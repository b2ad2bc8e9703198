// remote_rebuild: an in-process FlowServer on a Unix socket, driven by one
// FlowClient connection in a closed loop. Set-up fills the cache directory
// with the repeat set and restarts the service over it, with a memory-tier
// budget a little above the repeat set's footprint. The timed stream then
// mixes repeats (first restore of a key off the disk tier, later ones from
// memory unless the budget evicted them) with one fresh cold compile per
// block. One connection keeps a repeat from queueing behind another
// client's cold compile, so the median measures the wire and cache read
// path (two connections doubled the run-to-run spread of the median on a
// shared 4-vCPU host).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "cad/flow_client.hpp"
#include "cad/flow_server.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace afpga;
namespace fs = std::filesystem;

namespace {
// Requests covered by the printed job-list digest (more than a run sends).
constexpr std::size_t kListedRequests = 2048;
// Fresh requests, after the repeat set, that the QoR means cover: 24
// rounds of the catalogue.
constexpr std::size_t kQorFresh = 144;
// Memory-tier budget of the restarted service, as a multiple of the repeat
// set's own footprint: the fresh compiles' products push repeat products
// out, so the timed phase evicts and re-reads some repeats from disk.
constexpr double kMemoryBudgetPerRepeatSet = 1.5;
}  // namespace

WorkloadResult run_remote_rebuild(const RunConfig& cfg, Tracer& tracer) {
    WorkloadResult res;
    res.connections = 1;
    res.service_workers = std::max(1u, std::min(2u, cfg.nproc - res.connections));
    res.io_threads = 1;
    const std::vector<DesignSpec> cat = remote_catalogue();
    const std::vector<JobSpec> repeat_set = remote_repeat_set(cat, cfg.seed);
    std::vector<JobSpec> listed = repeat_set;
    for (std::size_t i = 0; i < kListedRequests; ++i)
        listed.push_back(remote_request(cat, repeat_set, cfg.seed, i));
    res.job_digest = digest(listed);
    res.jobs_listed = listed.size();
    std::vector<JobSpec> qor_jobs = repeat_set;
    for (std::size_t i = 0; qor_jobs.size() < repeat_set.size() + kQorFresh; ++i)
        if (const JobSpec j = remote_request(cat, repeat_set, cfg.seed, i); j.fresh)
            qor_jobs.push_back(j);
    for (const JobSpec& j : qor_jobs) res.qor_keys.push_back(j.key);

    // Relative paths: a Unix socket path must stay short.
    const fs::path dir = fs::path(cfg.work_dir) / ("remote_rebuild-" + std::to_string(::getpid()));
    const fs::path cache = dir / "cache";
    const std::string sock = (dir / "flowd.sock").string();
    std::vector<Design> designs;
    std::unique_ptr<cad::FlowServer> server;
    std::vector<cad::FlowClient> clients;

    // Set-up: fill the cache with the repeat set, restart over it (a new
    // server with a new service), build the RR graph, connect the clients.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        clients.clear();
        server.reset();
        fs::remove_all(dir);
        fs::create_directories(dir);
        const double t0 = tracer.now_ms();
        const std::int64_t span = tracer.begin("setup", -1, 0);
        designs.clear();
        for (const DesignSpec& spec : cat) designs.push_back(build_design(spec));
        cad::FlowServiceOptions so;
        so.threads = res.service_workers;
        so.share_artifacts = true;
        so.artifact_cache_dir = cache.string();
        {
            cad::FlowService fill(so);
            std::vector<cad::FlowJob> jobs;
            for (const JobSpec& j : repeat_set) jobs.push_back(flow_job(j, designs[j.design]));
            for (const cad::FlowJobId id : fill.submit_grid(std::move(jobs))) {
                const cad::FlowJobResult& r = fill.wait(id);
                if (!r.ok()) res.fail("setup " + r.name + ": " + r.error);
            }
            so.artifact_memory_budget_bytes = static_cast<std::size_t>(
                kMemoryBudgetPerRepeatSet *
                static_cast<double>(fill.store().stats().resident_bytes));
        }
        cad::FlowServerOptions sopts;
        sopts.service = so;
        sopts.unix_path = sock;
        server = std::make_unique<cad::FlowServer>(sopts);
        server->start();
        const double rr_t0 = tracer.now_ms();
        const auto rr = server->service().prewarm_rr(designs.front().arch);
        const double rr_t1 = tracer.now_ms();
        tracer.add("rrgraph.build", rr_t0, rr_t1, span, 0);
        res.rr_build_ms.push_back(rr_t1 - rr_t0);
        res.layer["rrgraph.nodes"] = static_cast<double>(rr->num_nodes());
        res.layer["rrgraph.edges"] = static_cast<double>(rr->num_edges());
        for (unsigned c = 0; c < res.connections; ++c)
            clients.push_back(cad::FlowClient::connect_unix(sock, "perfbench-" + std::to_string(c)));
        tracer.end(span);
        res.setup_s.push_back((tracer.now_ms() - t0) / 1000.0);
    }

    LayerAccum layers;
    ResultBook book;
    std::mutex mu;  // guards res and layers from the client threads
    std::vector<double> result_bytes;
    std::size_t fresh_done = 0;
    const cad::ArtifactStoreStats before = server->service().store().stats();
    const cad::FlowServerStats server_before = server->stats();
    std::atomic<std::size_t> next{0};
    const double start = tracer.now_ms();
    const double deadline = start + cfg.seconds * 1000.0;
    auto client_loop = [&](cad::FlowClient& client) {
        while (tracer.now_ms() < deadline) {
            const std::size_t k = next++;
            const JobSpec job = remote_request(cat, repeat_set, cfg.seed, k);
            const Design& d = designs[job.design];
            const std::uint64_t job_id = k + 1;
            cad::RemoteJobSpec spec;
            spec.name = job.key;
            spec.nl = &d.nl;
            spec.hints = &d.hints;
            spec.arch = d.arch;
            spec.opts = job.opts;
            const double t0 = tracer.now_ms();
            std::string error;
            cad::RemoteFlowResult r;
            try {
                r = client.wait(client.submit(spec), job.key);
                if (!r.ok()) error = r.error;
            } catch (const std::exception& e) {
                error = e.what();
            }
            const double t1 = tracer.now_ms();
            cad::FlowTelemetry telemetry;
            if (error.empty()) {
                try {
                    telemetry = parse_telemetry(r.telemetry_json);
                } catch (const std::exception& e) {
                    error = std::string("telemetry: ") + e.what();
                }
            }
            if (!error.empty()) {
                std::lock_guard<std::mutex> lock(mu);
                ++res.attempted;
                res.fail(job.key + ": " + error);
                continue;
            }
            const Qor q = qor_of(telemetry);
            book.record(job, r.result_blob, q);
            const std::int64_t span = tracer.add("job", t0, t1, -1, job_id);
            const double run_start = t0 + r.queue_ms;
            tracer.add("service.queue", t0, run_start, span, job_id);
            add_stage_spans(tracer, telemetry, run_start,
                            tracer.add("service.run", run_start, run_start + r.wall_ms, span, job_id),
                            job_id);
            std::lock_guard<std::mutex> lock(mu);
            ++res.attempted;
            fresh_done += job.fresh ? 1 : 0;
            res.latency_ms.push_back(t1 - t0);
            res.queue_ms.push_back(r.queue_ms);
            res.run_ms.push_back(r.wall_ms);
            res.wire_ms.push_back(t1 - t0 - r.queue_ms - r.wall_ms);
            result_bytes.push_back(static_cast<double>(r.result_blob.size() + r.telemetry_json.size()));
            layers.add(telemetry);
        }
    };
    std::vector<std::thread> threads;
    for (cad::FlowClient& c : clients) threads.emplace_back(client_loop, std::ref(c));
    for (std::thread& t : threads) t.join();
    res.timed_s = (tracer.now_ms() - start) / 1000.0;
    res.peak_rss_mb = peak_rss_mb();

    artifact_metrics(before, server->service().store().stats(), res.layer);
    const cad::FlowServerStats server_after = server->stats();
    res.layer["server.busy_bounces"] =
        static_cast<double>(server_after.submits_rejected_busy - server_before.submits_rejected_busy);
    res.layer["server.protocol_errors"] =
        static_cast<double>(server_after.protocol_errors - server_before.protocol_errors);
    res.layer["server.result_bytes_per_job"] = mean(result_bytes);
    res.layer["remote.fresh_share"] =
        res.latency_ms.empty() ? 0.0 : static_cast<double>(fresh_done) / res.latency_ms.size();
    clients.clear();
    server->stop();
    server.reset();
    fs::remove_all(dir);

    for (const JobSpec& j : qor_jobs) book.require(j);
    book.check(designs, std::max(1u, cfg.nproc - 1), res, layers, tracer);
    layers.finish(res.layer);
    return res;
}

}  // namespace perfbench
