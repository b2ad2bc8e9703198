// Self-test of the benchmark's own helpers: percentiles with their sample
// count, span validation and self time, telemetry read-back, and the
// determinism of every workload's job list. Exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "jobs.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++g_failures;
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
    expect(percentile({}, 0.5).n == 0 && percentile({}, 0.5).value == 0.0, "empty percentile");
    const Percentile one = percentile({7.0}, 0.9);
    expect(one.n == 1 && one.value == 7.0, "single-sample percentile");
    // 1..10 unsorted: median 5.5, p90 9.1 by linear interpolation.
    const std::vector<double> xs{10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    expect(near(percentile(xs, 0.5).value, 5.5), "median of 1..10");
    expect(near(percentile(xs, 0.9).value, 9.1), "p90 of 1..10");
    expect(percentile(xs, 0.9).n == 10, "percentile sample count");
    expect(near(percentile(xs, 0.0).value, 1.0) && near(percentile(xs, 1.0).value, 10.0),
           "percentile end points");
    expect(near(mean({1, 2, 3, 6}), 3.0), "mean");
}

void test_spans() {
    // root [0,10] with children [1,4] and [3,6] (overlapping) and a
    // grandchild [2,3]: root self = 10 - 5 = 5, first child self = 3 - 1.
    std::vector<Span> s{
        {"root", 0, 10, -1, 1, 0},
        {"a", 1, 4, 0, 1, 0},
        {"b", 3, 6, 0, 1, 0},
        {"c", 2, 3, 1, 1, 0},
    };
    expect(validate_spans(s).empty(), "well-formed spans validate");
    const auto self = self_times(s);
    expect(near(self[0], 5.0) && near(self[1], 2.0) && near(self[2], 3.0) && near(self[3], 1.0),
           "self times");
    const auto by = self_time_by_name(s);
    expect(near(by.at("root"), 5.0), "self time by name");

    auto open = s;
    open[2].end_ms = -1.0;
    expect(!validate_spans(open).empty(), "an unclosed span is reported");
    auto outside = s;
    outside[3].end_ms = 5.0;  // c ends after its parent a
    expect(!validate_spans(outside).empty(), "a span outside its parent is reported");
    auto forward = s;
    forward[1].parent = 2;
    expect(!validate_spans(forward).empty(), "a forward parent reference is reported");

    Tracer t(true);
    {
        ScopedSpan outer(t, "outer", -1, 7);
        ScopedSpan inner(t, "inner", outer.id(), 7);
    }
    expect(t.spans().size() == 2 && validate_spans(t.spans()).empty(), "tracer spans nest");
    Tracer off(false);
    { ScopedSpan span(off, "x", -1, 1); }
    expect(off.spans().empty(), "a disabled tracer records nothing");
    expect(chrome_trace_json(t.spans()).find("\"ph\":\"X\"") != std::string::npos,
           "chrome trace events");
}

void test_telemetry_roundtrip() {
    afpga::cad::FlowTelemetry t;
    t.total_ms = 12.5;
    afpga::cad::StageReport place;
    place.stage = "place";
    place.wall_ms = 10.25;
    place.iterations = 42;
    place.cache_key = "00ff";
    place.cache_hit = 0;
    place.cost_trajectory = {3.0, 2.0};
    place.add_metric("final_cost", 123.5);
    t.stages.push_back(place);
    const auto back = parse_telemetry(t.to_json());
    expect(back.stages.size() == 1, "telemetry stage count");
    const auto& p = back.stages.front();
    expect(p.stage == "place" && p.iterations == 42 && p.cache_hit == 0 && p.cache_key == "00ff",
           "telemetry stage fields");
    expect(p.metric("final_cost") && *p.metric("final_cost") == 123.5, "telemetry metric");
    expect(near(back.total_ms, 12.5) && p.cost_trajectory.size() == 2, "telemetry totals");
    bool threw = false;
    try {
        (void)parse_telemetry("{\"stages\": [");
    } catch (const std::exception&) {
        threw = true;
    }
    expect(threw, "truncated telemetry is rejected");
}

void test_job_lists() {
    const auto cold = cold_catalogue();
    auto cold_list = [&](std::uint64_t seed) {
        std::vector<JobSpec> v;
        for (std::size_t i = 0; i < 64; ++i) v.push_back(cold_job(cold, seed, i));
        return v;
    };
    expect(digest(cold_list(3)) == digest(cold_list(3)), "cold_compile list is a function of the seed");
    expect(digest(cold_list(3)) != digest(cold_list(4)), "cold_compile list depends on the seed");
    {
        // Every round holds every design once.
        const auto v = cold_list(5);
        for (std::size_t r = 0; r < v.size() / cold.size(); ++r) {
            std::set<std::size_t> seen;
            for (std::size_t k = 0; k < cold.size(); ++k) seen.insert(v[r * cold.size() + k].design);
            expect(seen.size() == cold.size(), "cold_compile round covers the catalogue");
        }
    }

    const auto remote = remote_catalogue();
    const auto repeats = remote_repeat_set(remote, 11);
    auto remote_list = [&](std::uint64_t seed) {
        std::vector<JobSpec> v;
        for (std::size_t i = 0; i < 96; ++i) v.push_back(remote_request(remote, repeats, seed, i));
        return v;
    };
    expect(digest(remote_list(11)) == digest(remote_list(11)), "remote list is a function of the seed");
    expect(digest(remote_list(11)) != digest(remote_list(12)), "remote list depends on the seed");
    {
        const auto v = remote_list(11);
        std::set<std::string> repeat_keys;
        for (const auto& j : repeats) repeat_keys.insert(j.key);
        for (std::size_t b = 0; b < v.size() / kRemoteBlock; ++b) {
            std::size_t fresh = 0;
            for (std::size_t k = 0; k < kRemoteBlock; ++k) {
                const JobSpec& j = v[b * kRemoteBlock + k];
                fresh += j.fresh ? 1 : 0;
                expect(j.fresh != (repeat_keys.count(j.key) != 0), "fresh jobs are not repeats");
            }
            expect(fresh == 1, "one fresh compile per block");
        }
    }
}

}  // namespace

int main() {
    test_percentile();
    test_spans();
    test_telemetry_roundtrip();
    test_job_lists();
    if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
