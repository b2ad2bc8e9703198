// What the workloads share: run configuration, the per-run result
// they fill, per-layer accumulation from flow telemetry, trace spans
// derived from stage reports, and the reference check that compiles every
// distinct job cold in-process and compares bytes and QoR.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cad/artifact.hpp"
#include "cad/flow.hpp"
#include "cad/flow_service.hpp"
#include "designs.hpp"
#include "jobs.hpp"

namespace perfbench {

/// Command-line configuration of one run.
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;   ///< working space for cache directories and sockets
    std::string state_dir;  ///< QoR ledger of this build
    unsigned nproc = 1;     ///< online processors
};

/// Quality of results of one compile.
struct Qor {
    double placement_cost = 0.0;
    double wirelength = 0.0;
    double route_iterations = 0.0;
};
[[nodiscard]] Qor qor_of(const afpga::cad::FlowTelemetry& t);

/// Everything one workload run measured.
struct WorkloadResult {
    // Configuration, reported with every result.
    unsigned caller_threads = 0;   ///< in-process threads issuing requests
    unsigned service_workers = 0;  ///< FlowService worker threads
    unsigned connections = 0;      ///< socket connections (one thread each)
    unsigned io_threads = 0;       ///< server poll-loop threads
    std::string job_digest;        ///< digest of the workload's job list
    std::size_t jobs_listed = 0;   ///< jobs the digest covers

    // End to end.
    std::vector<double> setup_s;     ///< one per set-up repetition
    std::vector<double> latency_ms;  ///< one per completed request
    double timed_s = 0.0;            ///< wall of the timed phase
    std::size_t attempted = 0;
    std::size_t failed = 0;          ///< failed, refused or mis-verified
    std::vector<double> verify_ms;
    std::map<std::string, Qor> qor_by_key;  ///< QoR of every distinct job compiled
    /// The fixed job list the QoR means are taken over: a function of the
    /// seed alone, compiled after the timed phase where it did not get there.
    std::vector<std::string> qor_keys;
    double peak_rss_mb = 0.0;
    std::vector<std::string> errors;  ///< first few failure descriptions

    // Per layer (filled for every run; spans only when tracing).
    std::map<std::string, double> layer;
    std::vector<double> queue_ms;     ///< service queue wait per request
    std::vector<double> run_ms;       ///< service execution per request
    std::vector<double> wire_ms;      ///< socket latency minus queue and run
    std::vector<double> rr_build_ms;  ///< RR graph builds outside the flows

    void fail(std::string why);
};

/// Accumulates per-stage work from FlowTelemetry: computed stages feed
/// their layer, restored ones (cache_hit == 1) the artifact layer.
class LayerAccum {
public:
    void add(const afpga::cad::FlowTelemetry& t);
    void add_verify(const VerifyOutcome& v);
    /// Write the layer metrics into `out` (keys as in BENCHMARK.json).
    void finish(std::map<std::string, double>& out) const;

private:
    struct Sum {
        double n = 0.0;
        double ms = 0.0;
    };
    Sum techmap_, pack_, place_, route_, bitstream_, restore_, verify_;
    double les_ = 0, clusters_ = 0, rounds_ = 0, moves_tried_ = 0, moves_accepted_ = 0;
    double rr_builds_ = 0, rr_build_ms_ = 0;
    double search_ms_ = 0, iterations_ = 0, rerouted_ = 0, heap_pops_ = 0, expanded_ = 0;
    double switches_ = 0, elaborate_ms_ = 0, sim_ms_ = 0, events_ = 0;
    double margin_probes_ = 0, margin_probe_failures_ = 0;
};

/// Add one span per stage of `t` under `parent`, laid end to end from
/// `start_ms` (stages run one after another); restored stages are named
/// "artifact.restore". A computed route stage gets "rrgraph.build" and
/// "route.search" children.
void add_stage_spans(Tracer& tracer, const afpga::cad::FlowTelemetry& t, double start_ms,
                     std::int64_t parent, std::uint64_t job);

/// A FlowService job for `j` borrowing `d`'s netlist and hints.
[[nodiscard]] afpga::cad::FlowJob flow_job(const JobSpec& j, const Design& d);

/// The bitstream-stage product as the artifact codec encodes it: the bytes
/// a remote client receives.
[[nodiscard]] std::vector<std::uint8_t> result_blob(const afpga::cad::FlowResult& fr);

/// Results observed per distinct job key, for the reference check.
class ResultBook {
public:
    /// Record one result (thread-safe); its QoR was read back from
    /// telemetry JSON.
    void record(const JobSpec& job, const std::vector<std::uint8_t>& blob, const Qor& qor);
    /// Have check() compile and verify `job` even if no result was recorded.
    void require(const JobSpec& job);

    /// Compile every key cold in-process (no store, no shared graph),
    /// `threads` at a time; every observed blob must match the reference's
    /// length and 64-bit digest, and its QoR must match. Each reference is
    /// then verified post-route, alone, and its QoR, read back through
    /// telemetry JSON as a client reads it, goes to res.qor_by_key.
    /// Failures go to `res`.
    void check(const std::vector<Design>& designs, unsigned threads, WorkloadResult& res,
               LayerAccum& layers, Tracer& tracer);

private:
    struct Observed {
        JobSpec job;
        std::set<std::pair<std::size_t, std::uint64_t>> blobs;  ///< (length, digest)
        std::set<std::vector<double>> qors;
    };
    std::mutex mu_;
    std::map<std::string, Observed> seen_;
};

/// Store counters before and after a timed phase, as artifact.* metrics.
void artifact_metrics(const afpga::cad::ArtifactStoreStats& before,
                      const afpga::cad::ArtifactStoreStats& after,
                      std::map<std::string, double>& out);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// The workloads; each runs set-up, the timed phase and the checks.
[[nodiscard]] WorkloadResult run_cold_compile(const RunConfig& cfg, Tracer& tracer);
[[nodiscard]] WorkloadResult run_remote_rebuild(const RunConfig& cfg, Tracer& tracer);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

}  // namespace perfbench
