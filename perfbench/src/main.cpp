// The benchmark program. Runs one workload and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1. Exits non-zero on any correctness failure.
//
//   perfbench --workload <cold_compile|remote_rebuild> --seed N
//             --seconds S --trace <0|1> --work-dir DIR --state-dir DIR
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "base/json.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct MetricDef {
    const char* name;
    const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_ms_p50", "ms"},
    {"job_ms_p90", "ms"},
    {"jobs_per_s", "1/s"},
    {"verify_ms_p50", "ms"},
    {"placement_cost_per_job", "cost"},
    {"wirelength_per_job", "segments"},
    {"route_iterations_per_job", "count"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"techmap.ms", "ms"},          {"techmap.les", "count"},
    {"pack.ms", "ms"},             {"pack.clusters", "count"},
    {"place.ms", "ms"},            {"place.rounds", "count"},
    {"place.moves_tried", "count"}, {"place.accept_ratio", "ratio"},
    {"place.ns_per_move", "ns"},   {"rrgraph.build_ms", "ms"},
    {"rrgraph.nodes", "count"},    {"rrgraph.edges", "count"},
    {"route.ms", "ms"},            {"route.search_ms", "ms"},
    {"route.iterations", "count"}, {"route.nets_rerouted", "count"},
    {"route.heap_pops", "count"},  {"route.nodes_expanded", "count"},
    {"bitstream.ms", "ms"},        {"bitstream.switches_on", "count"},
    {"elaborate.ms", "ms"},        {"sim.ms", "ms"},
    {"sim.events", "count"},       {"sim.events_per_s", "1/s"},
    {"verify.repo_margin_fail_ratio", "ratio"},
    {"artifact.hit_ratio", "ratio"}, {"artifact.disk_hit_ratio", "ratio"},
    {"artifact.restore_ms", "ms"}, {"artifact.disk_writes", "count"},
    {"artifact.evictions", "count"}, {"artifact.resident_mb", "MiB"},
    {"service.queue_ms_p50", "ms"}, {"service.run_ms_p50", "ms"},
    {"service.worker_busy_ratio", "ratio"}, {"server.wire_ms_p50", "ms"},
    {"server.result_bytes_per_job", "B"}, {"server.busy_bounces", "count"},
    {"server.protocol_errors", "count"}, {"trace.overhead_ms", "ms"},
};

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

unsigned online_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
    return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <cold_compile|remote_rebuild> "
                 "--seed N --seconds S --trace <0|1> --work-dir DIR "
                 "--state-dir DIR\n",
                 why);
    std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
    RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        try {
            if (a == "--workload") cfg.workload = v;
            else if (a == "--seed") cfg.seed = std::stoull(v);
            else if (a == "--seconds") cfg.seconds = std::stod(v);
            else if (a == "--trace") cfg.trace = std::stoi(v) != 0;
            else if (a == "--work-dir") cfg.work_dir = v;
            else if (a == "--state-dir") cfg.state_dir = v;
            else usage(("unknown flag " + a).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (cfg.workload != "cold_compile" && cfg.workload != "remote_rebuild")
        usage("unknown workload");
    if (!(cfg.seconds > 0.0) || cfg.work_dir.empty() || cfg.state_dir.empty())
        usage("--seconds, --work-dir and --state-dir are required");
    cfg.nproc = online_cpus();
    return cfg;
}

WorkloadResult run_workload(const RunConfig& cfg, Tracer& tracer) {
    if (cfg.workload == "cold_compile") return run_cold_compile(cfg, tracer);
    return run_remote_rebuild(cfg, tracer);
}

std::map<std::string, double> end_to_end(const WorkloadResult& r) {
    std::map<std::string, double> m;
    m["setup_s"] = percentile(r.setup_s, 0.5).value;
    m["job_ms_p50"] = percentile(r.latency_ms, 0.5).value;
    m["job_ms_p90"] = percentile(r.latency_ms, 0.9).value;
    m["jobs_per_s"] = r.timed_s > 0 ? static_cast<double>(r.latency_ms.size()) / r.timed_s : 0.0;
    m["verify_ms_p50"] = percentile(r.verify_ms, 0.5).value;
    std::vector<double> cost, wl, it;
    for (const std::string& key : r.qor_keys) {
        const auto found = r.qor_by_key.find(key);
        if (found == r.qor_by_key.end()) continue;  // reported by main
        const Qor& q = found->second;
        cost.push_back(q.placement_cost);
        wl.push_back(q.wirelength);
        it.push_back(q.route_iterations);
    }
    m["placement_cost_per_job"] = mean(cost);
    m["wirelength_per_job"] = mean(wl);
    m["route_iterations_per_job"] = mean(it);
    m["peak_rss_mb"] = r.peak_rss_mb;
    return m;
}

// --- QoR ledger: per (workload, seed) and build, the QoR of every job key
// and the job-list digest. A later run on the same seed must agree on both.

std::string check_ledger(const RunConfig& cfg, const WorkloadResult& r) {
    fs::create_directories(cfg.state_dir);
    const fs::path path =
        fs::path(cfg.state_dir) / (cfg.workload + "-" + std::to_string(cfg.seed) + ".qor");
    std::map<std::string, std::string> rows;
    std::string error;
    auto row = [](const Qor& q) {
        return num(q.placement_cost) + " " + num(q.wirelength) + " " + num(q.route_iterations);
    };
    if (std::ifstream in(path); in) {
        std::string line;
        while (std::getline(in, line)) {
            const auto tab = line.find('\t');
            if (tab != std::string::npos) rows[line.substr(0, tab)] = line.substr(tab + 1);
        }
        if (rows.count("#digest") && rows["#digest"] != r.job_digest)
            error = "job list differs from an earlier run on seed " + std::to_string(cfg.seed);
    }
    rows["#digest"] = r.job_digest;
    for (const auto& [key, q] : r.qor_by_key) {
        const auto it = rows.find(key);
        if (it != rows.end() && it->second != row(q) && error.empty())
            error = key + ": QoR " + row(q) + " differs from an earlier run's " + it->second;
        rows[key] = row(q);
    }
    const fs::path tmp = path.string() + ".tmp";
    {
        std::ofstream out(tmp);
        for (const auto& [k, v] : rows) out << k << '\t' << v << '\n';
    }
    fs::rename(tmp, path);
    return error;
}

void print_context(const RunConfig& cfg, const WorkloadResult& r) {
    const unsigned threads = r.caller_threads + r.service_workers;
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d build=%s nproc=%u "
                "hardware_concurrency=%u caller_threads=%u service_workers=%u "
                "connections=%u io_threads=%u\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, cfg.nproc,
                std::thread::hardware_concurrency(), r.caller_threads, r.service_workers,
                r.connections, r.io_threads);
    if (threads + r.connections > cfg.nproc)
        std::fprintf(stderr,
                     "perfbench: WARNING: %u threads + %u connections exceed nproc=%u; "
                     "timings are oversubscribed\n",
                     threads, r.connections, cfg.nproc);
    std::printf("job_list_digest=%s (first %zu jobs)\n", r.job_digest.c_str(), r.jobs_listed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const RunConfig cfg = parse_args(argc, argv);
#ifndef NDEBUG
    const bool optimized = false;
#else
    const bool optimized = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
    if (!optimized) {
        std::fprintf(stderr, "perfbench: refusing to measure a %s build; configure Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    WorkloadResult res;
    std::vector<Span> spans;
    double overhead_ms = 0.0;
    std::string trace_path;
    std::vector<std::string> errors;
    try {
        fs::create_directories(cfg.work_dir);
        if (cfg.trace) {
            // Untraced then traced, each with its own set-up and half the
            // time; the difference of their median latencies is the tracing
            // overhead.
            RunConfig half = cfg;
            half.seconds = cfg.seconds / 2.0;
            Tracer off(false);
            const WorkloadResult plain = run_workload(half, off);
            if (std::string e = check_ledger(cfg, plain); !e.empty()) errors.push_back(e);
            Tracer on(true);
            res = run_workload(half, on);
            res.attempted += plain.attempted;
            res.failed += plain.failed;
            errors.insert(errors.end(), plain.errors.begin(), plain.errors.end());
            spans = on.spans();
            overhead_ms = percentile(res.latency_ms, 0.5).value - percentile(plain.latency_ms, 0.5).value;
            if (std::string e = validate_spans(spans); !e.empty()) errors.push_back("trace: " + e);
            trace_path = (fs::path(cfg.work_dir) /
                          ("trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json"))
                             .string();
            std::ofstream(trace_path) << chrome_trace_json(spans);
        } else {
            Tracer off(false);
            res = run_workload(cfg, off);
        }
        if (std::string e = check_ledger(cfg, res); !e.empty()) errors.push_back(e);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    print_context(cfg, res);
    for (const std::string& e : res.errors) errors.push_back(e);
    for (const std::string& key : res.qor_keys)
        if (!res.qor_by_key.count(key)) errors.push_back(key + ": no QoR for a job of the QoR list");
    const std::size_t failed = std::min(res.attempted, res.failed);
    const bool correct = res.failed == 0 && errors.empty() && res.attempted > 0;
    for (const std::string& e : errors) std::printf("FAIL %s\n", e.c_str());

    // Derived per-layer figures.
    std::map<std::string, double> layer = res.layer;
    if (!res.rr_build_ms.empty()) layer["rrgraph.build_ms"] = mean(res.rr_build_ms);
    if (!res.queue_ms.empty()) {
        layer["service.queue_ms_p50"] = percentile(res.queue_ms, 0.5).value;
        layer["service.run_ms_p50"] = percentile(res.run_ms, 0.5).value;
        double busy_ms = 0.0;
        for (double ms : res.run_ms) busy_ms += ms;
        layer["service.worker_busy_ratio"] = busy_ms / (res.service_workers * res.timed_s * 1000.0);
    }
    if (!res.wire_ms.empty()) layer["server.wire_ms_p50"] = percentile(res.wire_ms, 0.5).value;
    layer["trace.overhead_ms"] = overhead_ms;
    const std::map<std::string, double> e2e = end_to_end(res);

    afpga::base::JsonWriter d;
    d.begin_object();
    d.key("workload").value(cfg.workload);
    d.key("seed").value(cfg.seed);
    d.key("build_type").value(PERFBENCH_BUILD_TYPE);
    d.key("nproc").value(std::uint64_t{cfg.nproc});
    d.key("hardware_concurrency").value(std::uint64_t{std::thread::hardware_concurrency()});
    d.key("caller_threads").value(std::uint64_t{res.caller_threads});
    d.key("service_workers").value(std::uint64_t{res.service_workers});
    d.key("connections").value(std::uint64_t{res.connections});
    d.key("io_threads").value(std::uint64_t{res.io_threads});
    d.key("job_list_digest").value(res.job_digest);
    d.key("timed_s").raw(num(res.timed_s));
    d.key("samples").begin_object();
    d.key("job_ms").value(std::uint64_t{res.latency_ms.size()});
    d.key("verify_ms").value(std::uint64_t{res.verify_ms.size()});
    d.key("setup").value(std::uint64_t{res.setup_s.size()});
    d.end_object();
    d.key("failed_ratio").raw(num(res.attempted ? static_cast<double>(failed) / res.attempted : 0.0));
    d.key("layers").begin_object();
    for (const auto& [k, v] : layer) d.key(k).raw(num(v));
    d.end_object();
    if (cfg.trace) {
        d.key("trace_file").value(trace_path);
        d.key("spans").value(std::uint64_t{spans.size()});
        d.key("self_ms").begin_object();
        for (const auto& [k, v] : self_time_by_name(spans)) d.key(k).raw(num(v));
        d.end_object();
    }
    d.end_object();
    std::printf("details %s\n", d.str().c_str());

    const auto& defs = cfg.trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
                                 : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
    const auto& values = cfg.trace ? layer : e2e;
    for (const MetricDef& m : defs) {
        const auto it = values.find(m.name);
        std::printf("%-28s %14.4f %s\n", m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
    std::printf("job_ms samples=%zu  verify_ms samples=%zu  failed_ratio=%zu/%zu\n",
                res.latency_ms.size(), res.verify_ms.size(), failed, res.attempted);

    afpga::base::JsonWriter w;
    w.begin_object();
    w.key("correct").value(correct);
    w.key("attempted").value(std::uint64_t{res.attempted});
    w.key("failed").value(std::uint64_t{failed});
    w.key("metrics").begin_object();
    for (const MetricDef& m : defs) {
        const auto it = values.find(m.name);
        w.key(m.name).begin_object();
        w.key("value").raw(num(it == values.end() ? 0.0 : it->second));
        w.key("unit").value(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
