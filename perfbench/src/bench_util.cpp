#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>
#include <variant>

#include "base/check.hpp"
#include "base/json.hpp"

namespace perfbench {

using afpga::base::check;

Percentile percentile(std::vector<double> xs, double q) {
    if (xs.empty()) return {};
    std::sort(xs.begin(), xs.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return {xs[lo] + (xs[hi] - xs[lo]) * frac, xs.size()};
}

double mean(const std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    double s = 0.0;
    for (double x : xs) s += x;
    return s / static_cast<double>(xs.size());
}

// --- Digest -----------------------------------------------------------------

Digest& Digest::bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

Digest& Digest::str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
}

Digest& Digest::u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    return bytes(b, sizeof b);
}

Digest& Digest::f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::uint32_t Tracer::thread_tag() {
    return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                                      0x7fffffffu);
}

std::int64_t Tracer::begin(std::string name, std::int64_t parent, std::uint64_t job) {
    if (!enabled_) return -1;
    Span s{std::move(name), now_ms(), -1.0, parent, job, thread_tag()};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t id) {
    if (!enabled_ || id < 0) return;
    const double t = now_ms();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ms = t;
}

std::int64_t Tracer::add(std::string name, double start_ms, double end_ms, std::int64_t parent,
                         std::uint64_t job) {
    if (!enabled_) return -1;
    Span s{std::move(name), start_ms, end_ms, parent, job, thread_tag()};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

// --- span analysis --------------------------------------------------------------

namespace {
// Spans derived from telemetry walls and caller clocks may differ from the
// enclosing interval by rounding only.
constexpr double kNestSlackMs = 1e-6;
}  // namespace

std::string validate_spans(const std::vector<Span>& spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::string id = "span " + std::to_string(i) + " (" + s.name + ")";
        if (!(s.end_ms >= s.start_ms)) return id + " never closed";
        if (s.parent < 0) continue;
        if (static_cast<std::size_t>(s.parent) >= i) return id + " has no earlier parent";
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        if (s.start_ms < p.start_ms - kNestSlackMs || s.end_ms > p.end_ms + kNestSlackMs)
            return id + " is not inside its parent " + p.name;
    }
    return {};
}

std::vector<double> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    std::vector<double> out(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::vector<std::pair<double, double>> iv;
        for (std::size_t c : children[i])
            iv.emplace_back(std::max(spans[c].start_ms, s.start_ms),
                            std::min(spans[c].end_ms, s.end_ms));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double run_start = 0.0;
        double run_end = -1.0;
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (b <= a) continue;
            if (open && a <= run_end) {
                run_end = std::max(run_end, b);
            } else {
                if (open) covered += run_end - run_start;
                run_start = a;
                run_end = b;
                open = true;
            }
        }
        if (open) covered += run_end - run_start;
        out[i] = std::max(0.0, (s.end_ms - s.start_ms) - covered);
    }
    return out;
}

std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans) {
    const std::vector<double> self = self_times(spans);
    std::map<std::string, double> by;
    for (std::size_t i = 0; i < spans.size(); ++i) by[spans[i].name] += self[i];
    return by;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
    afpga::base::JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").begin_array();
    char num[40];
    auto us = [&](double ms) {
        std::snprintf(num, sizeof num, "%.3f", ms * 1000.0);
        return std::string(num);
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        w.begin_object();
        w.key("name").value(s.name);
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(std::uint64_t{s.tid});
        w.key("ts").raw(us(s.start_ms));
        w.key("dur").raw(us(s.end_ms - s.start_ms));
        w.key("args").begin_object();
        w.key("span").value(std::uint64_t{i});
        w.key("parent").value(s.parent);
        w.key("job").value(s.job);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

// --- telemetry JSON reader ------------------------------------------------------------

namespace {

struct JsonValue;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;
};

class JsonParser {
public:
    explicit JsonParser(std::string_view s) : s_(s) {}

    JsonValue document() {
        JsonValue v = value();
        ws();
        check(i_ == s_.size(), "telemetry json: trailing bytes");
        return v;
    }

private:
    void ws() {
        while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr) ++i_;
    }
    char peek() {
        ws();
        check(i_ < s_.size(), "telemetry json: unexpected end");
        return s_[i_];
    }
    void expect(char c) {
        check(peek() == c, std::string("telemetry json: expected '") + c + "'");
        ++i_;
    }
    bool literal(std::string_view word) {
        if (s_.substr(i_, word.size()) != word) return false;
        i_ += word.size();
        return true;
    }

    JsonValue value() {
        const char c = peek();
        if (c == '{') return {object()};
        if (c == '[') return {array()};
        if (c == '"') return {string()};
        if (literal("true")) return {true};
        if (literal("false")) return {false};
        if (literal("null")) return {nullptr};
        return {number()};
    }

    JsonObject object() {
        expect('{');
        JsonObject o;
        if (peek() == '}') {
            ++i_;
            return o;
        }
        for (;;) {
            std::string k = string();
            expect(':');
            o.emplace_back(std::move(k), value());
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect('}');
            return o;
        }
    }

    JsonArray array() {
        expect('[');
        JsonArray a;
        if (peek() == ']') {
            ++i_;
            return a;
        }
        for (;;) {
            a.push_back(value());
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect(']');
            return a;
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (i_ < s_.size() && s_[i_] != '"') {
            char c = s_[i_++];
            if (c == '\\') {
                check(i_ < s_.size(), "telemetry json: bad escape");
                const char e = s_[i_++];
                switch (e) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case 'u':
                    // Stage and metric names are ASCII; keep the escape verbatim.
                    out += "\\u";
                    continue;
                default: c = e;
                }
            }
            out += c;
        }
        expect('"');
        return out;
    }

    double number() {
        const std::size_t start = i_;
        while (i_ < s_.size() && std::strchr("+-0123456789.eE", s_[i_]) != nullptr) ++i_;
        check(i_ > start, "telemetry json: expected a value");
        const std::string text(s_.substr(start, i_ - start));
        char* end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        check(end == text.c_str() + text.size(), "telemetry json: bad number " + text);
        return v;
    }

    std::string_view s_;
    std::size_t i_ = 0;
};

const JsonValue* member(const JsonObject& o, std::string_view key) {
    for (const auto& [k, v] : o)
        if (k == key) return &v;
    return nullptr;
}

}  // namespace

afpga::cad::FlowTelemetry parse_telemetry(std::string_view json) {
    const JsonValue doc = JsonParser(json).document();
    const auto* root = std::get_if<JsonObject>(&doc.v);
    check(root != nullptr, "telemetry json: not an object");
    afpga::cad::FlowTelemetry t;
    if (const JsonValue* total = member(*root, "total_ms"))
        if (const auto* d = std::get_if<double>(&total->v)) t.total_ms = *d;
    const JsonValue* stages = member(*root, "stages");
    check(stages != nullptr && std::holds_alternative<JsonArray>(stages->v),
          "telemetry json: no stages array");
    for (const JsonValue& sv : std::get<JsonArray>(stages->v)) {
        const auto* so = std::get_if<JsonObject>(&sv.v);
        check(so != nullptr, "telemetry json: stage is not an object");
        afpga::cad::StageReport r;
        for (const auto& [k, v] : *so) {
            if (k == "stage") {
                r.stage = std::get<std::string>(v.v);
            } else if (k == "key") {
                r.cache_key = std::get<std::string>(v.v);
            } else if (k == "cache_hit") {
                r.cache_hit = std::get<bool>(v.v) ? 1 : 0;
            } else if (k == "wall_ms") {
                r.wall_ms = std::get<double>(v.v);
            } else if (k == "iterations") {
                r.iterations = static_cast<int>(std::get<double>(v.v));
            } else if (k == "cost_trajectory") {
                for (const JsonValue& c : std::get<JsonArray>(v.v))
                    r.cost_trajectory.push_back(std::get<double>(c.v));
            } else if (const auto* d = std::get_if<double>(&v.v)) {
                r.add_metric(k, *d);
            }
        }
        t.stages.push_back(std::move(r));
    }
    return t;
}

}  // namespace perfbench
