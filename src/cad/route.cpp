#include "cad/route.hpp"

#include <utility>

#include "cad/fingerprint.hpp"
#include "cad/route_search.hpp"

namespace afpga::cad {

using core::RRGraph;

RoutingResult route(const RRGraph& rr, const std::vector<RouteRequest>& reqs,
                    const RouterOptions& opts) {
    const std::size_t N = rr.num_nodes();
    RoutingResult result;
    result.trees.assign(reqs.size(), {});

    std::vector<double> hist(N, 0.0);
    std::vector<std::uint16_t> occ(N, 0);
    double pres_fac = opts.pres_fac_first;

    // Per-net bookkeeping of occupied nodes so rip-up is exact.
    std::vector<std::vector<std::uint32_t>> net_nodes(reqs.size());

    detail::SearchScratch scratch(N);

    // Test/bench hook, read once: a whole run routes with either the pooled
    // kernel or the pre-rework reference kernel, never a mix.
    const bool use_ref = detail::use_reference_kernel();
    const auto kernel =
        use_ref ? detail::route_one_net_reference : detail::route_one_net;

    std::vector<std::size_t> dirty;  // nets to (re)route this iteration
    std::size_t best_overused = SIZE_MAX;
    int stall = 0;
    // Scratch growth seen during warm-up (iteration 1): everything after it
    // counts against the zero-steady-state-allocation contract.
    std::uint64_t warmup_allocations = 0;

    for (int iter = 1; iter <= opts.max_iterations; ++iter) {
        // Select this iteration's work. The first iteration routes everything;
        // afterwards only nets touching an over-capacity node (every user of
        // a congested node is implicated) or with unrouted sinks are ripped
        // up — unless congestion has stalled, in which case one full rip-up
        // round breaks the oscillation that pinned legal nets can otherwise
        // sustain forever.
        const bool full_rip_up =
            iter == 1 || (opts.stall_full_reroute > 0 && stall >= opts.stall_full_reroute);
        if (full_rip_up) stall = 0;
        dirty.clear();
        for (std::size_t ri = 0; ri < reqs.size(); ++ri) {
            bool d = full_rip_up;
            if (!d)
                for (std::uint32_t n : net_nodes[ri])
                    if (occ[n] > rr.node_capacity(n)) {
                        d = true;
                        break;
                    }
            if (!d)
                for (const auto& s : result.trees[ri].sinks)
                    if (s.ipin == UINT32_MAX) {
                        d = true;
                        break;
                    }
            if (d) dirty.push_back(ri);
        }
        result.nets_rerouted += dirty.size();

        for (std::size_t ri : dirty) {
            for (std::uint32_t n : net_nodes[ri]) --occ[n];
            net_nodes[ri].clear();
        }

        for (std::size_t k = 0; k < dirty.size(); ++k) {
            // Rotate the net order each iteration: with a fixed order the
            // first-routed net never pays present-congestion cost and small
            // conflict sets oscillate forever.
            const std::size_t ri =
                dirty[(k + static_cast<std::size_t>(iter - 1)) % dirty.size()];
            detail::NetRouteState st =
                kernel(rr, reqs[ri], opts, pres_fac, hist, occ, scratch, nullptr);
            net_nodes[ri] = std::move(st.nodes);
            result.trees[ri] = std::move(st.tree);
        }
        if (iter == 1) {
            // End of warm-up: every pooled buffer has seen one full routing
            // pass. Later iterations can still wave a wider front than the
            // first (rising pres_fac makes searches detour), and the vector's
            // doubling leaves capacity just above the iteration-1 peak — so
            // give the heap 2x headroom now, while growth is still free, to
            // honor the zero-steady-state-allocation contract afterwards.
            scratch.heap.reserve(2 * scratch.heap.capacity());
            warmup_allocations = scratch.stats.allocations;
        }

        // Congestion accounting.
        std::size_t overused = 0;
        bool all_routed = true;
        for (std::size_t n = 0; n < N; ++n) {
            const auto cap = rr.node_capacity(static_cast<std::uint32_t>(n));
            if (occ[n] > cap) {
                ++overused;
                // History scaled by the node's base cost so that it competes
                // with real detour costs within a few iterations.
                hist[n] += opts.hist_fac * rr.node_base_cost(static_cast<std::uint32_t>(n)) *
                           static_cast<double>(occ[n] - cap);
            }
        }
        for (std::size_t ri = 0; ri < reqs.size(); ++ri)
            for (const auto& s : result.trees[ri].sinks)
                if (s.ipin == UINT32_MAX) all_routed = false;

        result.iterations = iter;
        result.overused_nodes = overused;
        result.overuse_trajectory.push_back(overused);
        if (overused < best_overused) {
            best_overused = overused;
            stall = 0;
        } else {
            ++stall;
        }
        if (overused == 0 && all_routed) {
            result.success = true;
            break;
        }
        pres_fac *= opts.pres_fac_mult;
    }

    result.kernel = scratch.stats;
    result.kernel.steady_allocations = scratch.stats.allocations - warmup_allocations;

    if (!result.success) {
        if (use_ref)
            detail::report_overuse_reference(rr, reqs, net_nodes, occ, result);
        else
            detail::report_overuse(rr, reqs, net_nodes, occ, result);
        return result;
    }

    if (use_ref)
        detail::finalize_routing_reference(rr, reqs, net_nodes, result);
    else
        detail::finalize_routing(rr, reqs, net_nodes, result);
    return result;
}

std::uint64_t RouterOptions::fingerprint() const noexcept {
    static_assert(sizeof(RouterOptions) == 56,
                  "RouterOptions changed: update fingerprint() and this assert");
    Fingerprint f;
    f.mix(max_iterations)
        .mix(pres_fac_first)
        .mix(pres_fac_mult)
        .mix(hist_fac)
        .mix(astar_fac)
        .mix(stall_full_reroute)
        .mix(threads)
        .mix(bin_margin)
        .mix(min_bin_dim);
    return f.digest();
}

}  // namespace afpga::cad
