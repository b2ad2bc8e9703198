#include "cad/place.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/threadpool.hpp"
#include "base/timer.hpp"
#include "cad/fingerprint.hpp"
#include "cad/place_cost.hpp"
#include "cad/place_model.hpp"
#include "cad/place_multilevel.hpp"

namespace afpga::cad {

using base::check;
using core::PlbCoord;

namespace {

/// Mutable annealing state over the shared immutable PlaceModel.
struct State {
    const PlaceModel* model;

    // positions
    std::vector<PlbCoord> cluster_loc;
    std::vector<std::uint32_t> pad_of_io;  // io slot -> pad

    // occupancy
    std::vector<std::size_t> grid;  // (x + y*W) -> cluster index + 1, 0 = empty
    std::vector<std::size_t> pad_owner;  // pad -> io slot + 1

    explicit State(const PlaceModel& m) : model(&m) {}

    [[nodiscard]] PlacePt position(std::size_t eid) const {
        const PlaceEntity& e = model->entities[eid];
        if (e.kind == PlaceEntity::Kind::Cluster) {
            const PlbCoord c = cluster_loc[e.index];
            return {c.x + 1.0, c.y + 1.0};
        }
        return model->pad_pt(pad_of_io[e.io_slot]);
    }

    [[nodiscard]] double total_cost() const {
        return model->total_cost(cluster_loc, pad_of_io);
    }
};

/// One complete annealing run with an explicit seed — the unit of work a
/// multi-seed race submits per replica. Pure function of its arguments (each
/// call owns its State, Rng and PlaceCostEngine), so replicas are safe to run
/// concurrently over the same shared model.
///
/// Cold runs (`init_loc == nullptr`) start from a seeded random placement
/// and derive the initial temperature from an accept-everything probe. Warm
/// runs (the multilevel engine's polish pass) start from the given
/// placement, skip the probe — its 100 accept-all moves would destroy the
/// warm start — and open at a low temperature so only local refinement
/// survives.
/// Warm-start polish schedule (tuned on the cad_scaling benches): opening
/// temperature per net as a fraction of the incoming cost, and a faster
/// cooling rate than the cold default — the polish budget is a handful of
/// rounds, so each one has to shed temperature quickly.
constexpr double kPolishT0 = 0.8;
constexpr double kPolishAlpha = 0.85;
Placement anneal_single(const MappedDesign& md, const PlaceModel& model,
                        const PlaceOptions& opts, std::uint64_t seed,
                        const std::vector<PlbCoord>* init_loc,
                        const std::vector<std::uint32_t>* init_pads, int max_rounds) {
    const bool warm = init_loc != nullptr;
    State st(model);
    const std::uint32_t W = model.arch->width;
    const std::uint32_t H = model.arch->height;

    // --- initial placement ------------------------------------------------------
    base::Rng rng(seed);
    st.cluster_loc.resize(model.num_clusters);
    st.grid.assign(std::size_t{W} * H, 0);
    if (warm) {
        st.cluster_loc = *init_loc;
        for (std::size_t ci = 0; ci < st.cluster_loc.size(); ++ci)
            st.grid[st.cluster_loc[ci].y * W + st.cluster_loc[ci].x] = ci + 1;
    } else {
        std::vector<std::uint32_t> cells(W * H);
        for (std::uint32_t i = 0; i < W * H; ++i) cells[i] = i;
        rng.shuffle(cells);
        for (std::size_t ci = 0; ci < model.num_clusters; ++ci) {
            st.cluster_loc[ci] = {cells[ci] % W, cells[ci] / W};
            st.grid[cells[ci]] = ci + 1;
        }
    }
    st.pad_of_io.resize(model.io_entity_ids.size());
    st.pad_owner.assign(model.geom.num_pads(), 0);
    if (warm) {
        st.pad_of_io = *init_pads;
        for (std::size_t i = 0; i < st.pad_of_io.size(); ++i)
            st.pad_owner[st.pad_of_io[i]] = i + 1;
    } else {
        std::vector<std::uint32_t> pads(model.geom.num_pads());
        for (std::uint32_t i = 0; i < pads.size(); ++i) pads[i] = i;
        rng.shuffle(pads);
        for (std::size_t i = 0; i < model.io_entity_ids.size(); ++i) {
            st.pad_of_io[i] = pads[i];
            st.pad_owner[pads[i]] = i + 1;
        }
    }

    // --- incremental cost engine -------------------------------------------------
    // Entities and nets mirror the model tables; the engine caches positions
    // and per-net bounding boxes so move evaluation never rescans positions.
    PlaceCostEngine engine;
    for (std::size_t eid = 0; eid < model.entities.size(); ++eid) {
        const PlacePt p = st.position(eid);
        engine.add_entity(p.x, p.y);
    }
    for (const PlaceNet& n : model.nets) engine.add_net(n.entities);
    engine.finalize();

    // Pad coordinates are pure geometry, tabled on the model.
    const std::vector<PlacePt>& pad_pts = model.pad_pts;

    double cost = engine.total_cost();

    Placement result;

    // --- annealing ---------------------------------------------------------------
    // Range limit for move proposals (0 = whole fabric). Cold runs always
    // propose fabric-wide; warm (polish) rounds shrink the window so
    // low-temperature rounds spend their moves on proposals that can
    // actually be accepted (VPR's rlim idea, on a fixed schedule to stay
    // deterministic).
    std::uint32_t move_rlim = 0;
    auto try_move = [&](double temperature, bool commit_stats) -> double {
        // Returns the applied delta (0 if rejected).
        const bool move_cluster =
            model.io_entity_ids.empty() ||
            (model.num_clusters != 0 && rng.chance(0.7));
        if (move_cluster && model.num_clusters == 0) return 0;
        if (commit_stats) ++result.moves_tried;

        auto accept = [&](double delta) {
            return delta <= 0 ||
                   rng.uniform() < std::exp(-delta / std::max(temperature, 1e-9));
        };

        if (move_cluster) {
            const std::size_t ci = static_cast<std::size_t>(rng.below(model.num_clusters));
            const PlbCoord from = st.cluster_loc[ci];
            PlbCoord to;
            if (move_rlim == 0) {
                const std::uint32_t c = static_cast<std::uint32_t>(rng.below(W * H));
                to = {c % W, c / W};
            } else {
                const std::uint32_t x0 = from.x > move_rlim ? from.x - move_rlim : 0;
                const std::uint32_t x1 = std::min(W - 1, from.x + move_rlim);
                const std::uint32_t y0 = from.y > move_rlim ? from.y - move_rlim : 0;
                const std::uint32_t y1 = std::min(H - 1, from.y + move_rlim);
                to = {x0 + static_cast<std::uint32_t>(rng.below(x1 - x0 + 1)),
                      y0 + static_cast<std::uint32_t>(rng.below(y1 - y0 + 1))};
            }
            const std::uint32_t cell = to.y * W + to.x;
            if (to == from) return 0;
            const std::size_t other = st.grid[cell];  // cluster index + 1
            const EntityMove moves[2] = {{ci, to.x + 1.0, to.y + 1.0},
                                         {other - 1, from.x + 1.0, from.y + 1.0}};
            const double delta = engine.eval({moves, other ? std::size_t{2} : std::size_t{1}});
            if (!accept(delta)) return 0;
            st.cluster_loc[ci] = to;
            st.grid[cell] = ci + 1;
            st.grid[from.y * W + from.x] = other;
            if (other) st.cluster_loc[other - 1] = from;
            engine.commit();
            if (commit_stats) ++result.moves_accepted;
            return delta;
        }

        const std::size_t slot =
            static_cast<std::size_t>(rng.below(model.io_entity_ids.size()));
        const std::uint32_t n_pads = static_cast<std::uint32_t>(model.geom.num_pads());
        const std::uint32_t from_pad = st.pad_of_io[slot];
        std::uint32_t to_pad = 0;
        if (move_rlim == 0) {
            to_pad = static_cast<std::uint32_t>(rng.below(n_pads));
        } else {
            // Pad indices run along the perimeter, so an index window is a
            // ring-local window; scale it to keep pad and cluster locality
            // comparable.
            const std::uint32_t span = std::min(
                n_pads - 1, std::max<std::uint32_t>(4, 2 * move_rlim * n_pads /
                                                           (2 * (W + H))));
            to_pad = (from_pad + 1 +
                      static_cast<std::uint32_t>(rng.below(2 * span + 1)) + n_pads - 1 -
                      span) %
                     n_pads;
        }
        if (to_pad == from_pad) return 0;
        const std::size_t other = st.pad_owner[to_pad];  // io slot + 1
        const std::size_t eid = model.io_entity_ids[slot];
        const PlacePt p = pad_pts[to_pad];
        const PlacePt q = pad_pts[from_pad];
        const EntityMove moves[2] = {
            {eid, p.x, p.y}, {other ? model.io_entity_ids[other - 1] : SIZE_MAX, q.x, q.y}};
        const double delta = engine.eval({moves, other ? std::size_t{2} : std::size_t{1}});
        if (!accept(delta)) return 0;
        st.pad_of_io[slot] = to_pad;
        st.pad_owner[to_pad] = slot + 1;
        st.pad_owner[from_pad] = other;
        if (other) st.pad_of_io[other - 1] = from_pad;
        engine.commit();
        if (commit_stats) ++result.moves_accepted;
        return delta;
    };

    const bool do_anneal = warm || opts.anneal;
    if (do_anneal && !model.nets.empty()) {
        double temperature;
        if (warm) {
            // Low opening temperature: ~4x the exit threshold, so the polish
            // decays through O(10) rounds of strictly local refinement.
            temperature = kPolishT0 * std::max(cost, 1.0) / static_cast<double>(model.nets.size());
        } else {
            // Initial temperature: accept-everything probe (VPR's 20*sigma rule).
            std::vector<double> deltas;
            for (int i = 0; i < 100; ++i) {
                const double d = try_move(1e18, false);
                deltas.push_back(d);
            }
            double mean = 0;
            for (double d : deltas) mean += d;
            mean /= static_cast<double>(deltas.size());
            double var = 0;
            for (double d : deltas) var += (d - mean) * (d - mean);
            var /= static_cast<double>(deltas.size());
            temperature = std::max(1.0, 20.0 * std::sqrt(var));
            // Recompute cost (probe moves changed the state).
            cost = engine.total_cost();
        }

        const std::size_t n_ent = model.entities.size();
        const auto moves_per_temp = static_cast<std::size_t>(
            std::max(16.0, opts.moves_scale * std::pow(static_cast<double>(n_ent), 4.0 / 3.0)));

        const double alpha = warm ? kPolishAlpha : opts.alpha;
        // Warm runs shrink the proposal window geometrically from half the
        // fabric down to 1 over the round budget.
        const double rlim0 = std::max(2.0, 0.5 * static_cast<double>(std::max(W, H)));
        const double rlim_shrink =
            max_rounds > 1 ? std::pow(1.0 / rlim0, 1.0 / (max_rounds - 1)) : 1.0;
        double rlim_f = rlim0;
        for (int round = 0; round < max_rounds; ++round) {
            if (warm)
                move_rlim = static_cast<std::uint32_t>(
                    std::max(1.0, std::llround(rlim_f) * 1.0));
            for (std::size_t m = 0; m < moves_per_temp; ++m) cost += try_move(temperature, true);
            temperature *= alpha;
            rlim_f *= rlim_shrink;
            ++result.anneal_rounds;
            result.cost_trajectory.push_back(cost);
            if (temperature <
                0.005 * std::max(cost, 1.0) / static_cast<double>(model.nets.size()))
                break;
        }
    }

    // --- export -------------------------------------------------------------------
    result.cluster_loc = st.cluster_loc;
    for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
        result.pi_pad[md.primary_inputs[i].first] = st.pad_of_io[i];
    for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
        result.po_pad[md.primary_outputs[i].first] =
            st.pad_of_io[md.primary_inputs.size() + i];
    result.final_cost = st.total_cost();
    return result;
}

/// Deterministic detailed-placement descent on the real bounding-box cost:
/// each cluster, in index order, takes the best strictly-improving free
/// site or swap inside a small window, then each io slot takes the best
/// strictly-improving pad move or pad swap; passes repeat until dry. Pure
/// function of its inputs. The driver runs it as the final step, after the
/// polish anneal — descending before annealing traps the anneal in the
/// descent's local basin and measurably worsens the result. Cluster passes
/// (windowed moves/swaps) alternate with pad passes (every pad, plus pad
/// swaps): on I/O-heavy designs most of the recoverable wirelength is in
/// the pad assignment, which greedy seeding and short polishing leave
/// suboptimal.
void refine_detailed(const PlaceModel& model, std::vector<std::uint32_t>& pad_of_io,
                     std::vector<core::PlbCoord>& loc) {
    const std::uint32_t W = model.arch->width;
    const std::uint32_t H = model.arch->height;
    constexpr int kRadius = 3;
    constexpr int kMaxPasses = 16;
    const std::size_t n = model.num_clusters;
    const std::size_t n_io = model.io_entity_ids.size();
    const std::size_t n_pads = model.pad_pts.size();
    constexpr std::uint32_t kFree = 0xffffffffu;
    std::vector<std::uint32_t> grid(std::size_t{W} * H, kFree);
    auto cell = [&](std::uint32_t gx, std::uint32_t gy) -> std::uint32_t& {
        return grid[std::size_t{gy} * W + gx];
    };
    for (std::size_t i = 0; i < n; ++i) cell(loc[i].x, loc[i].y) = static_cast<std::uint32_t>(i);
    std::vector<std::uint32_t> pad_owner(n_pads, kFree);
    for (std::size_t s = 0; s < n_io; ++s) pad_owner[pad_of_io[s]] = static_cast<std::uint32_t>(s);

    // Cost over the nets touching entity a (and b, when swapping),
    // deduplicated — the only terms a move can change.
    std::vector<std::size_t> touched;
    auto cost_around = [&](std::size_t ea, std::size_t eb) {
        touched.clear();
        touched.insert(touched.end(), model.nets_of_entity[ea].begin(),
                       model.nets_of_entity[ea].end());
        if (eb != SIZE_MAX)
            touched.insert(touched.end(), model.nets_of_entity[eb].begin(),
                           model.nets_of_entity[eb].end());
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
        double c = 0;
        for (std::size_t ni : touched) c += model.net_cost(model.nets[ni], loc, pad_of_io);
        return c;
    };

    for (int pass = 0; pass < kMaxPasses; ++pass) {
        bool improved = false;
        for (std::size_t i = 0; i < n; ++i) {
            const core::PlbCoord from = loc[i];
            const std::uint32_t ty0 =
                from.y > static_cast<std::uint32_t>(kRadius) ? from.y - kRadius : 0;
            const std::uint32_t ty1 = std::min(H - 1, from.y + kRadius);
            const std::uint32_t tx0 =
                from.x > static_cast<std::uint32_t>(kRadius) ? from.x - kRadius : 0;
            const std::uint32_t tx1 = std::min(W - 1, from.x + kRadius);
            double best_delta = -1e-9;  // strict improvement only
            core::PlbCoord best_to{};
            bool have = false;
            for (std::uint32_t ty = ty0; ty <= ty1; ++ty)
                for (std::uint32_t tx = tx0; tx <= tx1; ++tx) {
                    if (tx == from.x && ty == from.y) continue;
                    const std::uint32_t occ = cell(tx, ty);
                    const std::size_t j = occ == kFree ? SIZE_MAX : occ;
                    const double before = cost_around(i, j);
                    loc[i] = {tx, ty};
                    if (j != SIZE_MAX) loc[j] = from;
                    const double delta = cost_around(i, j) - before;
                    loc[i] = from;
                    if (j != SIZE_MAX) loc[j] = {tx, ty};
                    if (delta < best_delta) {
                        best_delta = delta;
                        best_to = {tx, ty};
                        have = true;
                    }
                }
            if (have) {
                const std::uint32_t occ = cell(best_to.x, best_to.y);
                loc[i] = best_to;
                if (occ != kFree) {
                    loc[occ] = from;
                    cell(from.x, from.y) = occ;
                } else {
                    cell(from.x, from.y) = kFree;
                }
                cell(best_to.x, best_to.y) = static_cast<std::uint32_t>(i);
                improved = true;
            }
        }
        // Pad pass: each io slot, in slot order, tries pads in a Manhattan
        // window around the centroid of the other entities on its nets —
        // free pads as moves, owned pads as slot swaps. Full-delta
        // evaluation of every pad made this pass O(n_io * n_pads * pins)
        // and it dominated the entire placer at 100x100; every pad still
        // gets a cheap distance test, but only pads within kPadWindow of
        // the nearest-pad distance to the centroid (where any improving
        // move must roughly land, since the moved slot's nets are anchored
        // at that centroid) pay for a full delta.
        constexpr double kPadWindow = 8.0;
        for (std::size_t s = 0; s < n_io; ++s) {
            const std::size_t es = model.io_entity_ids[s];
            const std::uint32_t from = pad_of_io[s];
            double gx = model.pad_pts[from].x;
            double gy = model.pad_pts[from].y;
            {
                double sx = 0;
                double sy = 0;
                std::size_t cnt = 0;
                for (std::size_t ni : model.nets_of_entity[es])
                    for (std::size_t other : model.nets[ni].entities) {
                        if (other == es) continue;
                        const PlaceEntity& e = model.entities[other];
                        const PlacePt p = e.kind == PlaceEntity::Kind::Cluster
                                              ? PlacePt{loc[e.index].x + 1.0, loc[e.index].y + 1.0}
                                              : model.pad_pts[pad_of_io[e.io_slot]];
                        sx += p.x;
                        sy += p.y;
                        ++cnt;
                    }
                if (cnt != 0) {
                    gx = sx / static_cast<double>(cnt);
                    gy = sy / static_cast<double>(cnt);
                }
            }
            double d_floor = 1e300;
            for (std::uint32_t p = 0; p < n_pads; ++p)
                d_floor = std::min(d_floor, std::abs(model.pad_pts[p].x - gx) +
                                                std::abs(model.pad_pts[p].y - gy));
            const double d_cut = d_floor + kPadWindow;
            double best_delta = -1e-9;  // strict improvement only
            std::uint32_t best_pad = 0;
            bool have = false;
            for (std::uint32_t p = 0; p < n_pads; ++p) {
                if (p == from) continue;
                if (std::abs(model.pad_pts[p].x - gx) + std::abs(model.pad_pts[p].y - gy) >
                    d_cut)
                    continue;
                const std::uint32_t owner = pad_owner[p];
                const std::size_t t = owner == kFree ? SIZE_MAX : owner;
                const std::size_t et = t == SIZE_MAX ? SIZE_MAX : model.io_entity_ids[t];
                const double before = cost_around(es, et);
                pad_of_io[s] = p;
                if (t != SIZE_MAX) pad_of_io[t] = from;
                const double delta = cost_around(es, et) - before;
                pad_of_io[s] = from;
                if (t != SIZE_MAX) pad_of_io[t] = p;
                if (delta < best_delta) {
                    best_delta = delta;
                    best_pad = p;
                    have = true;
                }
            }
            if (have) {
                const std::uint32_t owner = pad_owner[best_pad];
                pad_of_io[s] = best_pad;
                if (owner != kFree) {
                    pad_of_io[owner] = from;
                    pad_owner[from] = owner;
                } else {
                    pad_owner[from] = kFree;
                }
                pad_owner[best_pad] = static_cast<std::uint32_t>(s);
                improved = true;
            }
        }
        if (!improved) break;
    }
}

/// One multilevel replica: V-cycle global placement + legalization
/// (cad/place_multilevel.cpp), then the optional warm-start polish anneal
/// and the detailed descent.
Placement multilevel_single(const MappedDesign& md, const PlaceModel& model,
                            const PlaceOptions& opts, std::uint64_t seed) {
    AnalyticalResult ar = place_multilevel_global(model, opts, seed);
    Placement result;
    if (opts.polish_rounds > 0 && !model.nets.empty()) {
        result = anneal_single(md, model, opts, seed, &ar.cluster_loc, &ar.pad_of_io,
                               opts.polish_rounds);
        // Final detailed-placement descent over the polished result (the
        // anneal leaves low-temperature residual the exhaustive window
        // cleans up deterministically).
        std::vector<std::uint32_t> pad_of_io(model.io_entity_ids.size());
        for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
            pad_of_io[i] = result.pi_pad.at(md.primary_inputs[i].first);
        for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
            pad_of_io[md.primary_inputs.size() + i] =
                result.po_pad.at(md.primary_outputs[i].first);
        refine_detailed(model, pad_of_io, result.cluster_loc);
        for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
            result.pi_pad[md.primary_inputs[i].first] = pad_of_io[i];
        for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
            result.po_pad[md.primary_outputs[i].first] =
                pad_of_io[md.primary_inputs.size() + i];
        result.final_cost = model.total_cost(result.cluster_loc, pad_of_io);
    } else {
        refine_detailed(model, ar.pad_of_io, ar.cluster_loc);
        result.cluster_loc = ar.cluster_loc;
        for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
            result.pi_pad[md.primary_inputs[i].first] = ar.pad_of_io[i];
        for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
            result.po_pad[md.primary_outputs[i].first] =
                ar.pad_of_io[md.primary_inputs.size() + i];
        result.final_cost = model.total_cost(ar.cluster_loc, ar.pad_of_io);
    }
    result.engine = PlaceEngine::Multilevel;
    result.analytical = std::move(ar.stats);
    return result;
}

}  // namespace

Placement place(const PackedDesign& pd, const MappedDesign& md, const core::ArchSpec& arch,
                const PlaceOptions& opts) {
    const PlaceModel model(pd, md, arch);

    if (opts.algorithm == PlaceAlgorithm::Multilevel)
        return multilevel_single(md, model, opts, opts.seed);

    const int n_anneal = std::max(1, opts.parallel_seeds);
    const bool with_multilevel = opts.algorithm == PlaceAlgorithm::Race;
    const int n = n_anneal + (with_multilevel ? 1 : 0);
    if (n == 1)
        return anneal_single(md, model, opts, opts.seed, nullptr, nullptr, opts.max_rounds);

    // Race N independently-seeded replicas on the pool (in Race mode the
    // multilevel engine is the final replica). Every replica is a pure
    // function of (model, opts, derived seed), and the winner is picked by
    // (final_cost, replica index) over the results in replica order, so the
    // outcome is identical whatever the pool size is. Replica slots outlive
    // the pool (reverse destruction order). parallel_for drains every
    // replica before rethrowing the lowest-index failure, which matches the
    // order a serial run of the same seeds would report.
    std::vector<Placement> results(static_cast<std::size_t>(n));
    std::vector<double> wall_ms(static_cast<std::size_t>(n), 0.0);
    // Never spawn more workers than replicas: a wide default pool would only
    // oversubscribe the machine when many place() races run concurrently
    // (e.g. inside batch jobs — which should still pin `threads` explicitly).
    const std::size_t workers =
        std::min<std::size_t>(opts.threads != 0 ? opts.threads : base::ThreadPool::default_workers(),
                              static_cast<std::size_t>(n));
    base::ThreadPool pool(workers);
    pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
        base::WallTimer t;
        const std::uint64_t rseed = base::Rng::derive_seed(opts.seed, i);
        if (with_multilevel && i == static_cast<std::size_t>(n_anneal))
            results[i] = multilevel_single(md, model, opts, rseed);
        else
            results[i] = anneal_single(md, model, opts, rseed, nullptr, nullptr,
                                       opts.max_rounds);
        wall_ms[i] = t.elapsed_ms();
    });

    std::size_t win = 0;
    for (std::size_t i = 1; i < results.size(); ++i)
        if (results[i].final_cost < results[win].final_cost) win = i;

    std::vector<PlaceReplica> replicas(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        replicas[i].seed = base::Rng::derive_seed(opts.seed, i);
        replicas[i].final_cost = results[i].final_cost;
        replicas[i].wall_ms = wall_ms[i];
        replicas[i].cost_trajectory = results[i].cost_trajectory;
        replicas[i].engine = results[i].engine;
    }

    Placement winner = std::move(results[win]);
    winner.replicas = std::move(replicas);
    winner.winner_replica = win;
    return winner;
}

double placement_wirelength(const PackedDesign& pd, const MappedDesign& md,
                            const core::ArchSpec& arch, const Placement& pl) {
    // Placement coordinates are integers, so the HPWL sum is exact in any order.
    std::vector<std::uint32_t> pad_of_io;
    pad_of_io.reserve(md.primary_inputs.size() + md.primary_outputs.size());
    for (const auto& [name, s] : md.primary_inputs) pad_of_io.push_back(pl.pi_pad.at(name));
    for (const auto& [name, s] : md.primary_outputs) pad_of_io.push_back(pl.po_pad.at(name));
    return PlaceModel(pd, md, arch).total_cost(pl.cluster_loc, pad_of_io);
}

std::uint64_t PlaceOptions::fingerprint() const noexcept {
    static_assert(sizeof(PlaceOptions) == 88,
                  "PlaceOptions changed: update fingerprint() and this assert");
    Fingerprint f;
    f.mix(seed)
        .mix(alpha)
        .mix(moves_scale)
        .mix(anneal)
        .mix(algorithm)
        .mix(parallel_seeds)
        .mix(threads)
        .mix(max_rounds)
        .mix(solver_passes)
        .mix(solver_max_iters)
        .mix(polish_rounds)
        .mix(solver_tolerance)
        .mix(anchor_weight)
        .mix(coarsen_ratio)
        .mix(min_coarse_nodes)
        .mix(max_levels);
    return f.digest();
}

}  // namespace afpga::cad
