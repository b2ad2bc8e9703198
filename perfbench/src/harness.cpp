#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <optional>
#include <thread>

#include "cad/serialize.hpp"

namespace perfbench {

using namespace afpga;

namespace {

constexpr std::size_t kMaxErrors = 8;
// Trace job ids of the reference checks, apart from the timed requests'.
constexpr std::uint64_t kReferenceJobIds = 1'000'000'000;

double metric_or(const cad::StageReport& s, std::string_view name, double fallback = 0.0) {
    const double* v = s.metric(name);
    return v ? *v : fallback;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Qor qor_of(const cad::FlowTelemetry& t) {
    Qor q;
    if (const cad::StageReport* p = t.stage("place")) q.placement_cost = metric_or(*p, "final_cost");
    if (const cad::StageReport* r = t.stage("route")) {
        q.wirelength = metric_or(*r, "wirelength");
        q.route_iterations = r->iterations;
    }
    return q;
}

void WorkloadResult::fail(std::string why) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(std::move(why));
}

// --- LayerAccum --------------------------------------------------------------------

void LayerAccum::add(const cad::FlowTelemetry& t) {
    for (const cad::StageReport& s : t.stages) {
        if (s.cache_hit == 1) {
            restore_.n += 1;
            restore_.ms += s.wall_ms;
            continue;
        }
        if (s.stage == "techmap") {
            techmap_.n += 1;
            techmap_.ms += s.wall_ms;
            les_ += metric_or(s, "les");
        } else if (s.stage == "pack") {
            pack_.n += 1;
            pack_.ms += s.wall_ms;
            clusters_ += metric_or(s, "clusters");
        } else if (s.stage == "place") {
            place_.n += 1;
            place_.ms += s.wall_ms;
            rounds_ += s.iterations;
            moves_tried_ += metric_or(s, "moves_tried");
            moves_accepted_ += metric_or(s, "moves_accepted");
        } else if (s.stage == "route") {
            route_.n += 1;
            route_.ms += s.wall_ms;
            if (const double* rr = s.metric("rr_build_ms")) {
                rr_builds_ += 1;
                rr_build_ms_ += *rr;
            }
            search_ms_ += metric_or(s, "kernel_search_ms");
            iterations_ += s.iterations;
            rerouted_ += metric_or(s, "nets_rerouted");
            heap_pops_ += metric_or(s, "kernel_heap_pops");
            expanded_ += metric_or(s, "kernel_nodes_expanded");
        } else if (s.stage == "bitstream") {
            bitstream_.n += 1;
            bitstream_.ms += s.wall_ms;
            switches_ += metric_or(s, "switches_on");
        }
    }
}

void LayerAccum::add_verify(const VerifyOutcome& v) {
    verify_.n += 1;
    elaborate_ms_ += v.elaborate_ms;
    sim_ms_ += v.sim_ms;
    events_ += static_cast<double>(v.events);
    if (v.repo_margin_probed) {
        margin_probes_ += 1;
        margin_probe_failures_ += v.repo_margin_error.empty() ? 0 : 1;
    }
}

void LayerAccum::finish(std::map<std::string, double>& out) const {
    out["techmap.ms"] = ratio(techmap_.ms, techmap_.n);
    out["techmap.les"] = ratio(les_, techmap_.n);
    out["pack.ms"] = ratio(pack_.ms, pack_.n);
    out["pack.clusters"] = ratio(clusters_, pack_.n);
    out["place.ms"] = ratio(place_.ms, place_.n);
    out["place.rounds"] = ratio(rounds_, place_.n);
    out["place.moves_tried"] = ratio(moves_tried_, place_.n);
    out["place.accept_ratio"] = ratio(moves_accepted_, moves_tried_);
    out["place.ns_per_move"] = ratio(place_.ms * 1e6, moves_tried_);
    if (rr_builds_ > 0) out["rrgraph.build_ms"] = ratio(rr_build_ms_, rr_builds_);
    out["route.ms"] = ratio(route_.ms, route_.n);
    out["route.search_ms"] = ratio(search_ms_, route_.n);
    out["route.iterations"] = ratio(iterations_, route_.n);
    out["route.nets_rerouted"] = ratio(rerouted_, route_.n);
    out["route.heap_pops"] = ratio(heap_pops_, route_.n);
    out["route.nodes_expanded"] = ratio(expanded_, route_.n);
    out["bitstream.ms"] = ratio(bitstream_.ms, bitstream_.n);
    out["bitstream.switches_on"] = ratio(switches_, bitstream_.n);
    out["elaborate.ms"] = ratio(elaborate_ms_, verify_.n);
    out["sim.ms"] = ratio(sim_ms_, verify_.n);
    out["sim.events"] = ratio(events_, verify_.n);
    out["sim.events_per_s"] = ratio(events_, sim_ms_ / 1000.0);
    out["artifact.restore_ms"] = ratio(restore_.ms, restore_.n);
    out["verify.repo_margin_probes"] = margin_probes_;
    out["verify.repo_margin_fail_ratio"] = ratio(margin_probe_failures_, margin_probes_);
}

// --- spans ----------------------------------------------------------------------------

void add_stage_spans(Tracer& tracer, const cad::FlowTelemetry& t, double start_ms,
                     std::int64_t parent, std::uint64_t job) {
    if (!tracer.enabled()) return;
    double at = start_ms;
    for (const cad::StageReport& s : t.stages) {
        const double end = at + s.wall_ms;
        const bool restored = s.cache_hit == 1;
        const std::int64_t id = tracer.add(restored ? "artifact.restore" : s.stage, at, end, parent, job);
        if (!restored && s.stage == "route") {
            // The graph is acquired first and the search runs last; the
            // request list is built in between.
            if (const double* rr = s.metric("rr_build_ms"))
                tracer.add("rrgraph.build", at, std::min(end, at + *rr), id, job);
            if (const double* search = s.metric("kernel_search_ms"))
                tracer.add("route.search", std::max(at, end - *search), end, id, job);
        }
        at = end;
    }
}

// --- results ---------------------------------------------------------------------------

cad::FlowJob flow_job(const JobSpec& j, const Design& d) {
    cad::FlowJob fj;
    fj.name = j.key;
    fj.nl = &d.nl;
    fj.hints = &d.hints;
    fj.arch = d.arch;
    fj.opts = j.opts;
    return fj;
}

std::vector<std::uint8_t> result_blob(const cad::FlowResult& fr) {
    return cad::ArtifactCodec<cad::BitstreamArtifact>::encode_blob(
        cad::BitstreamArtifact{*fr.bits, fr.pad_names});
}

void ResultBook::record(const JobSpec& job, const std::vector<std::uint8_t>& blob, const Qor& qor) {
    const std::uint64_t h = Digest().bytes(blob.data(), blob.size()).value();
    std::lock_guard<std::mutex> lock(mu_);
    Observed& o = seen_.try_emplace(job.key, Observed{job, {}, {}}).first->second;
    o.blobs.emplace(blob.size(), h);
    o.qors.insert({qor.placement_cost, qor.wirelength, qor.route_iterations});
}

void ResultBook::require(const JobSpec& job) {
    std::lock_guard<std::mutex> lock(mu_);
    seen_.try_emplace(job.key, Observed{job, {}, {}});
}

void ResultBook::check(const std::vector<Design>& designs, unsigned threads, WorkloadResult& res,
                       LayerAccum& layers, Tracer& tracer) {
    std::vector<const Observed*> todo;
    for (const auto& [key, o] : seen_) todo.push_back(&o);
    // Batches of `threads` keys: their references compile in parallel, then
    // are verified one at a time with nothing else running, so verify_ms
    // is timed as quietly as on cold_compile.
    const std::size_t batch = std::max(1u, threads);
    for (std::size_t first = 0; first < todo.size(); first += batch) {
        const std::size_t n = std::min(batch, todo.size() - first);
        std::vector<std::optional<cad::FlowResult>> refs(n);
        std::vector<std::string> errors(n);
        std::vector<std::thread> pool;
        for (std::size_t k = 0; k < n; ++k) {
            pool.emplace_back([&, k] {
                const Observed& o = *todo[first + k];
                const Design& d = designs[o.job.design];
                try {
                    refs[k].emplace(cad::run_flow(d.nl, d.hints, d.arch, o.job.opts));
                } catch (const std::exception& e) {
                    errors[k] = o.job.key + ": reference compile failed: " + e.what();
                }
            });
        }
        for (std::thread& t : pool) t.join();

        for (std::size_t k = 0; k < n; ++k) {
            const Observed& o = *todo[first + k];
            if (!refs[k]) {
                res.fail(errors[k]);
                continue;
            }
            const cad::FlowResult& ref = *refs[k];
            const std::vector<std::uint8_t> blob = result_blob(ref);
            const std::uint64_t h = Digest().bytes(blob.data(), blob.size()).value();
            const Qor q = qor_of(parse_telemetry(ref.telemetry.to_json()));
            const std::vector<double> qv{q.placement_cost, q.wirelength, q.route_iterations};
            res.qor_by_key[o.job.key] = q;
            // A required key the timed phase did not reach has nothing to compare.
            const bool observed = !o.blobs.empty();
            if (observed &&
                (o.blobs.size() != 1 || *o.blobs.begin() != std::make_pair(blob.size(), h))) {
                res.fail(o.job.key + ": result differs from a cold in-process compile");
                continue;
            }
            if (observed && (o.qors.size() != 1 || *o.qors.begin() != qv)) {
                res.fail(o.job.key + ": QoR differs from a cold in-process compile");
                continue;
            }
            const std::uint64_t job_id = kReferenceJobIds + first + k;
            ScopedSpan span(tracer, "verify", -1, job_id);
            const VerifyOutcome v = verify_post_route(designs[o.job.design], ref, o.job.opts.seed,
                                                      tracer, span.id(), job_id);
            if (!v.ok) {
                res.fail(o.job.key + ": " + v.error);
                continue;
            }
            res.verify_ms.push_back(v.elaborate_ms + v.sim_ms);
            layers.add_verify(v);
        }
    }
}

void artifact_metrics(const cad::ArtifactStoreStats& before, const cad::ArtifactStoreStats& after,
                      std::map<std::string, double>& out) {
    const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
    const double hits = d(before.hits, after.hits);
    const double disk_hits = d(before.disk_hits, after.disk_hits);
    const double lookups = hits + disk_hits + d(before.misses, after.misses);
    out["artifact.hit_ratio"] = ratio(hits + disk_hits, lookups);
    out["artifact.disk_hit_ratio"] = ratio(disk_hits, lookups);
    out["artifact.disk_writes"] = d(before.disk_writes, after.disk_writes);
    out["artifact.evictions"] = d(before.evictions, after.evictions);
    out["artifact.resident_mb"] = static_cast<double>(after.resident_bytes) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}


}  // namespace perfbench
