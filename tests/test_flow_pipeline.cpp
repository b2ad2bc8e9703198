// Staged-pipeline and incremental-engine regressions:
//  - PlaceCostEngine's incremental delta cost matches a from-scratch HPWL
//    recomputation after randomized move sequences (the boundary-count
//    bookkeeping is exact, not approximate);
//  - the annealer's running cost (the sum of every accepted incremental
//    delta) equals a from-scratch HPWL recompute of its final placement on
//    mixed cluster/IO designs, which also pins the stored Entity::io_slot;
//  - incremental PathFinder rerouting produces a legal (no overuse) routing
//    without rerouting every net every iteration, at a pinned wirelength
//    and iteration count;
//  - multi-capacity channels (ArchSpec::wire_capacity) are honoured;
//  - FlowTelemetry reports all five stages with wall times and serializes
//    to JSON.
#include <gtest/gtest.h>

#include <set>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/json.hpp"
#include "base/rng.hpp"
#include "cad/flow.hpp"
#include "cad/place_cost.hpp"

namespace {

using namespace afpga;
using cad::EntityMove;
using cad::PlaceCostEngine;

TEST(PlaceCostEngine, IncrementalMatchesScratchAfterRandomMoves) {
    base::Rng rng(99);
    // A random hypergraph: 40 entities on a 12x12 grid, 60 nets of 2-7 pins.
    PlaceCostEngine eng;
    std::vector<std::pair<double, double>> pos;
    for (int e = 0; e < 40; ++e) {
        const double x = static_cast<double>(rng.below(12));
        const double y = static_cast<double>(rng.below(12));
        eng.add_entity(x, y);
        pos.emplace_back(x, y);
    }
    for (int n = 0; n < 60; ++n) {
        const std::size_t pins = 2 + rng.below(6);
        std::set<std::size_t> ents;
        while (ents.size() < pins) ents.insert(rng.below(40));
        eng.add_net({ents.begin(), ents.end()});
    }
    eng.finalize();
    EXPECT_DOUBLE_EQ(eng.total_cost(), eng.recompute_from_scratch());

    double running = eng.total_cost();
    for (int step = 0; step < 2000; ++step) {
        // Single moves and swaps, committed or discarded at random.
        EntityMove moves[2];
        const std::size_t n_moves = 1 + rng.below(2);
        moves[0] = {rng.below(40), static_cast<double>(rng.below(12)),
                    static_cast<double>(rng.below(12))};
        if (n_moves == 2) {
            std::size_t e2 = rng.below(40);
            while (e2 == moves[0].entity) e2 = rng.below(40);
            // A swap: the second entity takes the first one's old spot.
            moves[1] = {e2, eng.entity_x(moves[0].entity), eng.entity_y(moves[0].entity)};
        }
        const double delta = eng.eval({moves, n_moves});
        if (rng.chance(0.6)) {
            eng.commit();
            running += delta;
        }
        // Cached boxes stay exact: the running sum may accumulate float dust,
        // but total_cost() (sum of cached boxes) must equal a full rebuild
        // bit-for-bit because every cached box is rebuilt, never drifted.
        ASSERT_DOUBLE_EQ(eng.total_cost(), eng.recompute_from_scratch()) << "step " << step;
    }
    EXPECT_NEAR(running, eng.total_cost(), 1e-6);
}

TEST(PlaceCostEngine, DeltaMatchesRescanDifference) {
    base::Rng rng(5);
    PlaceCostEngine eng;
    for (int e = 0; e < 12; ++e)
        eng.add_entity(static_cast<double>(rng.below(8)), static_cast<double>(rng.below(8)));
    for (int n = 0; n < 20; ++n) {
        std::set<std::size_t> ents;
        while (ents.size() < 3) ents.insert(rng.below(12));
        eng.add_net({ents.begin(), ents.end()});
    }
    eng.finalize();
    for (int step = 0; step < 500; ++step) {
        const EntityMove mv{rng.below(12), static_cast<double>(rng.below(8)),
                            static_cast<double>(rng.below(8))};
        const double before = eng.recompute_from_scratch();
        const double delta = eng.eval({&mv, 1});
        eng.commit();
        const double after = eng.recompute_from_scratch();
        ASSERT_NEAR(after - before, delta, 1e-9) << "step " << step;
    }
}

// From-scratch oracle for the incremental cost engine inside the annealer:
// the running cost is the initial cost plus every accepted delta, and
// final_cost is a full PlaceModel::total_cost recompute. Coordinates are
// integers, so the two must agree exactly on designs mixing clusters and
// I/O pads (a wrong Entity::io_slot or a drifted bounding box would not).
TEST(PlaceIncremental, RunningCostMatchesScratchRecomputeOnMixedDesigns) {
    const auto adder = asynclib::make_qdi_adder(3);
    const auto fifo = asynclib::make_wchb_fifo(2, 3);
    const std::pair<const netlist::Netlist*, const asynclib::MappingHints*> designs[] = {
        {&adder.nl, &adder.hints}, {&fifo.nl, &fifo.hints}};
    core::ArchSpec arch;
    core::FabricGeometry geom(arch);
    for (const auto& [nl, hints] : designs) {
        const auto md = cad::techmap(*nl, *hints);
        const auto pd = cad::pack(md, arch);
        ASSERT_FALSE(pd.clusters.empty());
        ASSERT_FALSE(md.primary_inputs.empty());
        ASSERT_FALSE(md.primary_outputs.empty());
        for (const std::uint64_t seed : {1, 7, 31, 99}) {
            cad::PlaceOptions opts;
            opts.seed = seed;
            const auto pl = cad::place(pd, md, arch, opts);
            ASSERT_FALSE(pl.cost_trajectory.empty()) << nl->name() << " seed " << seed;
            EXPECT_EQ(pl.cost_trajectory.back(), pl.final_cost)
                << nl->name() << " seed " << seed;
            EXPECT_GT(pl.moves_accepted, 0u);

            // Pad assignment sanity: all pads distinct, in range.
            std::set<std::uint32_t> pads;
            for (const auto* io : {&pl.pi_pad, &pl.po_pad})
                for (const auto& [name, pad] : *io) {
                    EXPECT_LT(pad, geom.num_pads());
                    EXPECT_TRUE(pads.insert(pad).second) << "pad shared: " << name;
                }
        }
    }
}

cad::RouteRequest plb_to_plb(core::PlbCoord from, core::PlbCoord to) {
    cad::RouteRequest rq;
    rq.src_plb = from;
    cad::RouteRequest::Sink sk;
    sk.plb = to;
    rq.sinks.push_back(sk);
    return rq;
}

/// Occupancy of every RR node across all route trees.
std::vector<std::uint16_t> occupancy(const core::RRGraph& rr, const cad::RoutingResult& res) {
    std::vector<std::uint16_t> occ(rr.num_nodes(), 0);
    for (const auto& t : res.trees) {
        std::set<std::uint32_t> mine;
        if (t.root_opin != UINT32_MAX) mine.insert(t.root_opin);
        for (std::uint32_t e : t.edges) {
            mine.insert(rr.edge_source(e));
            mine.insert(rr.edge_target(e));
        }
        for (std::uint32_t n : mine) ++occ[n];
    }
    return occ;
}

TEST(RouteIncremental, LegalWithoutReroutingEveryNet) {
    core::ArchSpec a;
    a.width = 6;
    a.height = 6;
    a.channel_width = 8;
    const core::RRGraph rr(a);
    // A congested all-to-all-ish pattern that needs several iterations.
    std::vector<cad::RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 6; ++i)
        for (std::uint32_t j = 0; j < 6; j += 2)
            if (i != j) reqs.push_back(plb_to_plb({i, 0}, {j, 5}));

    const auto ri = cad::route(rr, reqs);
    ASSERT_TRUE(ri.success);

    // Legality: no node over capacity.
    const auto occ = occupancy(rr, ri);
    for (std::uint32_t n = 0; n < rr.num_nodes(); ++n)
        EXPECT_LE(occ[n], rr.node_capacity(n)) << "node " << n;

    // Quality, pinned exactly: these only move when routing decisions do.
    EXPECT_EQ(ri.wirelength, 122u);
    EXPECT_EQ(ri.iterations, 2);

    // Incremental must not redo everything every iteration.
    ASSERT_GT(ri.iterations, 1) << "the fixture must congest";
    EXPECT_LT(ri.nets_rerouted, reqs.size() * static_cast<std::size_t>(ri.iterations));
}

TEST(RouteIncremental, DeterministicAcrossRuns) {
    core::ArchSpec a;
    a.width = 5;
    a.height = 5;
    a.channel_width = 6;
    const core::RRGraph rr(a);
    std::vector<cad::RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 5; ++i) reqs.push_back(plb_to_plb({i, 0}, {4 - i, 4}));
    const auto r1 = cad::route(rr, reqs);
    const auto r2 = cad::route(rr, reqs);
    ASSERT_TRUE(r1.success && r2.success);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(r1.trees[i].root_opin, r2.trees[i].root_opin);
        EXPECT_EQ(r1.trees[i].edges, r2.trees[i].edges);
    }
}

TEST(RouteCapacity, MultiCapacityChannelsShareTracks) {
    // 2x1 fabric, 2 tracks: eight parallel nets cannot fit at capacity 1 but
    // route cleanly when each track carries two nets.
    core::ArchSpec narrow;
    narrow.width = 2;
    narrow.height = 1;
    narrow.channel_width = 2;
    narrow.fc_in = 1.0;
    narrow.fc_out = 1.0;
    std::vector<cad::RouteRequest> reqs;
    for (int i = 0; i < 8; ++i) reqs.push_back(plb_to_plb({0, 0}, {1, 0}));
    cad::RouterOptions opts;
    opts.max_iterations = 12;

    const core::RRGraph rr1(narrow);
    const auto res1 = cad::route(rr1, reqs, opts);

    core::ArchSpec wide = narrow;
    wide.wire_capacity = 2;
    const core::RRGraph rr2(wide);
    const auto res2 = cad::route(rr2, reqs, opts);
    ASSERT_TRUE(res2.success);
    const auto occ = occupancy(rr2, res2);
    std::uint16_t max_wire_occ = 0;
    for (std::uint32_t n = 0; n < rr2.num_nodes(); ++n) {
        EXPECT_LE(occ[n], rr2.node_capacity(n)) << "node " << n;
        const auto k = rr2.node(n).kind;
        if (k == core::RRKind::ChanX || k == core::RRKind::ChanY)
            max_wire_occ = std::max(max_wire_occ, occ[n]);
    }
    if (!res1.success) {
        // Capacity 1 could not carry the load, so capacity 2 must actually
        // have shared at least one wire.
        EXPECT_EQ(max_wire_occ, 2);
    }
}

TEST(RouteCapacity, FlowRejectsMultiCapacityChannels) {
    // Bundled wires are a router-level model; the bitstream layer programs
    // one net per wire node, so the flow must refuse rather than short nets.
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    core::ArchSpec a;
    a.wire_capacity = 2;
    EXPECT_THROW((void)cad::run_flow(fifo.nl, fifo.hints, a), base::Error);
}

TEST(FlowTelemetry, ReportsAllFiveStagesAndSerializes) {
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    cad::FlowOptions opts;
    opts.seed = 11;
    const auto fr = cad::run_flow(fifo.nl, fifo.hints, core::ArchSpec{}, opts);

    const char* expected[] = {"techmap", "pack", "place", "route", "bitstream"};
    ASSERT_EQ(fr.telemetry.stages.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(fr.telemetry.stages[i].stage, expected[i]);
        EXPECT_GE(fr.telemetry.stages[i].wall_ms, 0.0);
    }
    EXPECT_GE(fr.telemetry.total_ms, 0.0);
    const auto* rt = fr.telemetry.stage("route");
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->iterations, fr.routing.iterations);
    ASSERT_NE(rt->metric("wirelength"), nullptr);
    EXPECT_EQ(static_cast<std::size_t>(*rt->metric("wirelength")), fr.routing.wirelength);
    const auto* pl = fr.telemetry.stage("place");
    ASSERT_NE(pl, nullptr);
    EXPECT_EQ(pl->iterations, fr.placement.anneal_rounds);
    EXPECT_EQ(pl->cost_trajectory.size(), fr.placement.cost_trajectory.size());

    const std::string json = fr.telemetry.to_json();
    EXPECT_NE(json.find("\"stages\":["), std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"place\""), std::string::npos);
    EXPECT_NE(json.find("\"total_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"cost_trajectory\":["), std::string::npos);
}

TEST(JsonWriter, EscapesAndNests) {
    base::JsonWriter w;
    w.begin_object();
    w.key("s").value("a\"b\\c\nd");
    w.key("i").value(-3);
    w.key("d").value(1.5);
    w.key("whole").value(42.0);
    w.key("b").value(true);
    w.key("arr").begin_array().value(std::string_view("x")).value(2.25).end_array();
    w.key("raw").raw("{\"k\":1}");
    w.end_object();
    EXPECT_EQ(w.str(),
              "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"d\":1.5,\"whole\":42,"
              "\"b\":true,\"arr\":[\"x\",2.25],\"raw\":{\"k\":1}}");
}

TEST(JsonWriter, RejectsMisuse) {
    base::JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1.0), base::Error);  // value without key
    EXPECT_THROW(w.end_array(), base::Error);
    w.key("x").value(1.0);
    EXPECT_THROW((void)w.str(), base::Error);  // unclosed object
    w.end_object();
    EXPECT_NO_THROW((void)w.str());
}

}  // namespace
