// cold_compile: one caller runs run_flow back to back with default
// FlowOptions (only the seed varies), no artifact store and no shared RR
// graph, over rounds of the style catalogue. Every result is simulated
// post-route against its behavioural model, outside the timed calls.
#include <algorithm>

#include "base/timer.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace afpga;

namespace {
// Jobs covered by the printed job-list digest (more than a run completes).
constexpr std::size_t kListedJobs = 512;
// Whole rounds at the head of the job list that the QoR means cover.
constexpr std::size_t kQorRounds = 16;
}  // namespace

WorkloadResult run_cold_compile(const RunConfig& cfg, Tracer& tracer) {
    WorkloadResult res;
    res.caller_threads = 1;
    const std::vector<DesignSpec> cat = cold_catalogue();

    std::vector<JobSpec> listed;
    for (std::size_t i = 0; i < kListedJobs; ++i) listed.push_back(cold_job(cat, cfg.seed, i));
    res.job_digest = digest(listed);
    res.jobs_listed = listed.size();
    const std::size_t qor_jobs = kQorRounds * cat.size();
    for (std::size_t i = 0; i < qor_jobs; ++i) res.qor_keys.push_back(listed[i].key);

    // Set-up: generate every design and compile each once, untimed, so
    // lazy process set-up (page faults, allocator arenas) is done before
    // timing starts; one compile per design also averages out the
    // run-to-run noise of a single compile in setup_s.
    std::vector<Design> designs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        ScopedSpan span(tracer, "setup", -1, 0);
        base::WallTimer t;
        designs.clear();
        for (const DesignSpec& spec : cat) designs.push_back(build_design(spec));
        for (const Design& d : designs) (void)cad::run_flow(d.nl, d.hints, d.arch, {});
        res.setup_s.push_back(t.elapsed_ms() / 1000.0);
    }

    LayerAccum layers;
    double rr_nodes = 0.0;
    double rr_edges = 0.0;
    // Compile job `i` and verify it post-route; a timed call adds its
    // latency and per-layer work, an untimed one only its QoR.
    auto compile = [&](std::size_t i, bool timed) -> double {
        const JobSpec job = cold_job(cat, cfg.seed, i);
        const Design& d = designs[job.design];
        const std::uint64_t job_id = i + 1;
        ++res.attempted;
        const double t0 = tracer.now_ms();
        cad::FlowResult fr;
        try {
            fr = cad::run_flow(d.nl, d.hints, d.arch, job.opts);
        } catch (const std::exception& e) {
            res.fail(job.key + ": " + e.what());
            return tracer.now_ms() - t0;
        }
        const double t1 = tracer.now_ms();
        res.qor_by_key[job.key] = qor_of(fr.telemetry);
        if (timed) {
            res.latency_ms.push_back(t1 - t0);
            add_stage_spans(tracer, fr.telemetry, t0, tracer.add("job", t0, t1, -1, job_id), job_id);
            layers.add(fr.telemetry);
            rr_nodes += static_cast<double>(fr.rr->num_nodes());
            rr_edges += static_cast<double>(fr.rr->num_edges());
        }
        ScopedSpan vspan(tracer, "verify", -1, job_id);
        const VerifyOutcome v = verify_post_route(d, fr, job.opts.seed, tracer, vspan.id(), job_id);
        if (!v.ok) {
            res.fail(job.key + ": " + v.error);
        } else if (timed) {
            res.verify_ms.push_back(v.elaborate_ms + v.sim_ms);
            layers.add_verify(v);
        }
        return t1 - t0;
    };
    const double budget_ms = cfg.seconds * 1000.0;
    double timed_ms = 0.0;
    std::size_t done = 0;
    // Whole rounds only, so every run compiles the same design mix.
    for (; timed_ms < budget_ms || done % cat.size() != 0; ++done) timed_ms += compile(done, true);
    res.timed_s = timed_ms / 1000.0;
    res.peak_rss_mb = peak_rss_mb();
    for (std::size_t i = done; i < qor_jobs; ++i) (void)compile(i, false);

    layers.finish(res.layer);
    const double n = std::max<double>(1.0, static_cast<double>(res.latency_ms.size()));
    res.layer["rrgraph.nodes"] = rr_nodes / n;
    res.layer["rrgraph.edges"] = rr_edges / n;
    return res;
}

}  // namespace perfbench
