// The parallel CAD subsystem: thread-pool semantics and determinism of
// multi-seed placement racing under different pool sizes (concurrent whole
// flows are covered by test_flow_service). Everything here must
// also run clean under ThreadSanitizer (the CI tsan leg executes this
// binary); tests deliberately push work through pools wider and narrower
// than the task count to exercise both queuing and stealing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "asynclib/adders.hpp"
#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/threadpool.hpp"
#include "cad/flow.hpp"
#include "cad/pack.hpp"
#include "cad/place.hpp"
#include "cad/techmap.hpp"
#include "support/flow_fixtures.hpp"

namespace {

using namespace afpga;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsResults) {
    base::ThreadPool pool(4);
    EXPECT_EQ(pool.num_workers(), 4u);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i) futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
    base::ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, TaskExceptionPropagates) {
    base::ThreadPool pool(2);
    auto f = pool.submit([]() -> int { throw base::Error("boom"); });
    EXPECT_THROW((void)f.get(), base::Error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
    EXPECT_THROW(pool.parallel_for(8,
                                   [](std::size_t i) {
                                       if (i == 3) throw base::Error("pf");
                                   }),
                 base::Error);
}

TEST(ThreadPool, MoreTasksThanWorkersDrains) {
    base::ThreadPool pool(2);
    std::atomic<int> sum{0};
    pool.parallel_for(1000, [&](std::size_t i) { sum += static_cast<int>(i % 7); });
    int expect = 0;
    for (int i = 0; i < 1000; ++i) expect += i % 7;
    EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, DefaultWorkersHonoursEnv) {
    // CMake exports AFPGA_TEST_THREADS as AFPGA_THREADS for every test, so
    // unit legs exercise a multi-worker pool even on one-core runners. Only
    // a fully-numeric positive value overrides the hardware default.
    if (const char* env = std::getenv("AFPGA_THREADS")) {
        char* end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0) {
            EXPECT_EQ(base::ThreadPool::default_workers(), static_cast<std::size_t>(v));
            return;
        }
    }
    EXPECT_GE(base::ThreadPool::default_workers(), 1u);
}

// ---------------------------------------------------------------------------
// Multi-seed placement racing
// ---------------------------------------------------------------------------

struct PlacedDesign {
    cad::MappedDesign md;
    cad::PackedDesign pd;
    core::ArchSpec arch;
};

PlacedDesign prepare_adder(std::size_t bits) {
    auto adder = asynclib::make_qdi_adder(bits);
    PlacedDesign out;
    out.md = cad::techmap(adder.nl, adder.hints, {});
    out.pd = cad::pack(out.md, out.arch, {});
    return out;
}

void expect_same_placement(const cad::Placement& a, const cad::Placement& b) {
    ASSERT_EQ(a.cluster_loc.size(), b.cluster_loc.size());
    for (std::size_t i = 0; i < a.cluster_loc.size(); ++i)
        EXPECT_TRUE(a.cluster_loc[i] == b.cluster_loc[i]) << "cluster " << i;
    EXPECT_EQ(a.pi_pad, b.pi_pad);
    EXPECT_EQ(a.po_pad, b.po_pad);
    EXPECT_EQ(a.final_cost, b.final_cost);
    EXPECT_EQ(a.winner_replica, b.winner_replica);
}

TEST(ParallelPlace, PoolSizeDoesNotChangeTheWinner) {
    const PlacedDesign d = prepare_adder(2);
    cad::PlaceOptions opts;
    opts.seed = 11;
    opts.parallel_seeds = 4;
    opts.threads = 1;
    const cad::Placement serial = cad::place(d.pd, d.md, d.arch, opts);
    ASSERT_EQ(serial.replicas.size(), 4u);
    for (unsigned t : {2u, 4u}) {
        opts.threads = t;
        const cad::Placement racy = cad::place(d.pd, d.md, d.arch, opts);
        expect_same_placement(serial, racy);
        ASSERT_EQ(racy.replicas.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(serial.replicas[i].seed, racy.replicas[i].seed) << "replica " << i;
            EXPECT_EQ(serial.replicas[i].final_cost, racy.replicas[i].final_cost)
                << "replica " << i;
            EXPECT_EQ(serial.replicas[i].cost_trajectory, racy.replicas[i].cost_trajectory)
                << "replica " << i;
        }
    }
}

TEST(ParallelPlace, ReplicaResultsArePureFunctionsOfTheirSeed) {
    // Growing the race keeps the existing replicas' per-seed QoR bit-identical
    // (N=2 is a prefix of N=4), and every replica equals a single-seed run
    // with the same derived seed.
    const PlacedDesign d = prepare_adder(2);
    cad::PlaceOptions opts;
    opts.seed = 23;
    opts.parallel_seeds = 2;
    const cad::Placement two = cad::place(d.pd, d.md, d.arch, opts);
    opts.parallel_seeds = 4;
    const cad::Placement four = cad::place(d.pd, d.md, d.arch, opts);
    ASSERT_EQ(two.replicas.size(), 2u);
    ASSERT_EQ(four.replicas.size(), 4u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(two.replicas[i].seed, four.replicas[i].seed);
        EXPECT_EQ(two.replicas[i].final_cost, four.replicas[i].final_cost);
    }
    // Cross-check replica 1 against a plain single-seed anneal.
    cad::PlaceOptions single;
    single.seed = base::Rng::derive_seed(23, 1);
    const cad::Placement alone = cad::place(d.pd, d.md, d.arch, single);
    EXPECT_EQ(alone.final_cost, four.replicas[1].final_cost);
}

TEST(ParallelPlace, WinnerIsMinCostThenLowestReplica) {
    const PlacedDesign d = prepare_adder(2);
    cad::PlaceOptions opts;
    opts.seed = 31;
    opts.parallel_seeds = 4;
    const cad::Placement pl = cad::place(d.pd, d.md, d.arch, opts);
    ASSERT_EQ(pl.replicas.size(), 4u);
    for (std::size_t i = 0; i < pl.replicas.size(); ++i) {
        if (i < pl.winner_replica)
            EXPECT_GT(pl.replicas[i].final_cost, pl.final_cost) << "replica " << i;
        else
            EXPECT_GE(pl.replicas[i].final_cost, pl.final_cost) << "replica " << i;
    }
    EXPECT_EQ(pl.final_cost, pl.replicas[pl.winner_replica].final_cost);
}

// ---------------------------------------------------------------------------
// Whole-flow determinism under parallelism
// ---------------------------------------------------------------------------

TEST(ParallelFlow, FingerprintInvariantUnderPoolSize) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = 77;
    opts.place.parallel_seeds = 4;
    std::set<std::string> fingerprints;
    for (unsigned t : {1u, 2u, 4u}) {
        opts.place.threads = t;
        const auto fr = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
        fingerprints.insert(testsupport::flow_fingerprint(fr));
    }
    EXPECT_EQ(fingerprints.size(), 1u)
        << "placement race winner depended on the pool size";
}

}  // namespace
