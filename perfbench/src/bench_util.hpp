// Measurement helpers of the benchmark: percentiles with their sample
// count, a stable 64-bit digest, in-memory span tracing with validation,
// self time and Chrome trace-event export, and a reader for the
// FlowTelemetry JSON a remote compile returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cad/flow_stage.hpp"

namespace perfbench {

/// A percentile together with the number of samples it was taken over.
struct Percentile {
    double value = 0.0;
    std::size_t n = 0;
};

/// The q-quantile (q in [0, 1]) by linear interpolation between the two
/// closest ranks (the NumPy default); {0, 0} for an empty sample.
[[nodiscard]] Percentile percentile(std::vector<double> xs, double q);
/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& xs);

/// FNV-1a over a stream of typed values: a stable digest for job lists,
/// result blobs and QoR records.
class Digest {
public:
    Digest& bytes(const void* p, std::size_t n);
    Digest& str(std::string_view s);
    Digest& u64(std::uint64_t v);
    Digest& f64(double v);
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One traced interval. `parent` indexes the enclosing span (-1 = root);
/// spans of one compile request share `job`.
struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = -1.0;  ///< < start_ms while the span is open
    std::int64_t parent = -1;
    std::uint64_t job = 0;
    std::uint32_t tid = 0;
};

/// Span recorder: keeps spans in memory, thread-safe, and a no-op when
/// disabled (every call returns immediately, ids are -1).
class Tracer {
public:
    explicit Tracer(bool enabled);
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    /// Milliseconds since the tracer was created.
    [[nodiscard]] double now_ms() const noexcept;
    /// Open a span starting now; returns its id.
    std::int64_t begin(std::string name, std::int64_t parent, std::uint64_t job);
    /// Close an open span now.
    void end(std::int64_t id);
    /// Record a closed span with explicit bounds (e.g. taken from a
    /// StageReport); returns its id.
    std::int64_t add(std::string name, double start_ms, double end_ms, std::int64_t parent,
                     std::uint64_t job);
    /// Snapshot of every span recorded so far.
    [[nodiscard]] std::vector<Span> spans() const;

private:
    [[nodiscard]] static std::uint32_t thread_tag();

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class ScopedSpan {
public:
    ScopedSpan(Tracer& t, std::string name, std::int64_t parent, std::uint64_t job)
        : t_(t), id_(t.begin(std::move(name), parent, job)) {}
    ~ScopedSpan() { t_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    [[nodiscard]] std::int64_t id() const noexcept { return id_; }

private:
    Tracer& t_;
    std::int64_t id_;
};

/// Empty when every span is closed, has a valid earlier parent and lies
/// inside its parent's interval; otherwise a description of the first
/// violation.
[[nodiscard]] std::string validate_spans(const std::vector<Span>& spans);
/// Per span: its duration minus the part of it covered by its children.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);
/// Self time summed per span name.
[[nodiscard]] std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);
/// The spans as a Chrome trace-event JSON document (complete "X" events).
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

/// Rebuild the per-stage reports from FlowTelemetry::to_json() output.
/// Throws base::Error on malformed input.
[[nodiscard]] afpga::cad::FlowTelemetry parse_telemetry(std::string_view json);

}  // namespace perfbench
