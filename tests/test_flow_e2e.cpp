// End-to-end CAD-flow regression harness.
//
// Drives two representative designs — a dual-rail (QDI) ripple-carry adder
// and a bundled-data micropipeline FIFO — through the complete pipeline:
// elaborate -> techmap -> pack -> place (annealing, fixed seed) -> route ->
// bitstream, then reconstructs the implemented netlist from the bitstream
// and simulates it against the behavioural (source netlist) model. Every
// stage's artifact is checked for structural legality, and the whole flow
// is checked to be seed-stable, so later placer/router optimisation PRs
// have a trustworthy baseline to diff against. An engine matrix repeats the
// simulation checks for every placement algorithm crossed with the serial
// and the partitioned router, so no configuration the flow offers ships
// unsimulated.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "cad/flow.hpp"
#include "sim/channels.hpp"
#include "sim/monitors.hpp"
#include "sim/simulator.hpp"
#include "sim/testbench.hpp"
#include "support/flow_fixtures.hpp"

namespace {

using namespace afpga;
using testsupport::PostRouteSim;

constexpr std::uint64_t kSeed = 2026;

// Structural legality of every intermediate artifact the flow produced.
void expect_legal_flow_result(const cad::FlowResult& fr, std::size_t n_clusters_max) {
    // techmap: at least one LE, and the mapping was verified by the flow.
    EXPECT_FALSE(fr.mapped.les.empty());
    // pack: every cluster within architectural capacity.
    ASSERT_FALSE(fr.packed.clusters.empty());
    EXPECT_LE(fr.packed.clusters.size(), n_clusters_max);
    for (const auto& c : fr.packed.clusters) {
        EXPECT_LE(c.le_indices.size(), fr.arch.les_per_plb);
        EXPECT_LE(c.external_inputs(fr.mapped).size(), fr.arch.plb_inputs);
    }
    // place: on-grid, one cluster per PLB, pads unique.
    ASSERT_EQ(fr.placement.cluster_loc.size(), fr.packed.clusters.size());
    std::set<std::pair<std::uint32_t, std::uint32_t>> used;
    for (const auto& c : fr.placement.cluster_loc) {
        EXPECT_LT(c.x, fr.arch.width);
        EXPECT_LT(c.y, fr.arch.height);
        EXPECT_TRUE(used.emplace(c.x, c.y).second) << "two clusters on one PLB";
    }
    std::set<std::uint32_t> pads;
    for (const auto& [n, p] : fr.placement.pi_pad) EXPECT_TRUE(pads.insert(p).second);
    for (const auto& [n, p] : fr.placement.po_pad) EXPECT_TRUE(pads.insert(p).second);
    // route: converged, nothing overused, every tree rooted.
    EXPECT_TRUE(fr.routing.success);
    EXPECT_EQ(fr.routing.overused_nodes, 0u);
    for (const auto& t : fr.routing.trees) EXPECT_NE(t.root_opin, UINT32_MAX);
    // bitstream: present and round-trippable.
    ASSERT_NE(fr.bits, nullptr);
    EXPECT_GT(fr.bits->serialize().size(), 0u);
}

// Simulate every input vector of an n-bit QDI adder through both the
// behavioural model (the source netlist, zero-delay wires) and the
// implementation (elaborated from the bitstream, routed wire delays on).
void expect_qdi_adder_matches_model(const asynclib::QdiAdder& adder, std::size_t n_bits,
                                    const cad::FlowResult& fr) {
    sim::Simulator golden(adder.nl);
    golden.run();
    sim::QdiCombIface golden_iface;
    golden_iface.inputs = adder.a;
    golden_iface.inputs.insert(golden_iface.inputs.end(), adder.b.begin(), adder.b.end());
    golden_iface.inputs.push_back(adder.cin);
    golden_iface.outputs = adder.sum;
    golden_iface.outputs.push_back(adder.cout);
    golden_iface.done = adder.done;

    PostRouteSim impl(fr);
    const auto impl_iface = testsupport::qdi_adder_iface(impl.design.nl, n_bits);

    const std::uint64_t mask = (std::uint64_t{1} << n_bits) - 1;
    for (std::uint64_t v = 0; v < (std::uint64_t{1} << (2 * n_bits + 1)); ++v) {
        const std::uint64_t a = v & mask;
        const std::uint64_t b = (v >> n_bits) & mask;
        const std::uint64_t cin = (v >> (2 * n_bits)) & 1;
        const std::uint64_t want = a + b + cin;
        EXPECT_EQ(sim::qdi_apply_token(golden, golden_iface, v), want) << "golden v=" << v;
        EXPECT_EQ(sim::qdi_apply_token(*impl.sim, impl_iface, v), want) << "impl v=" << v;
    }
}

// Stream tokens through a 4-bit micropipeline FIFO's behavioural model and
// its post-route implementation, with the bundling constraint monitored on
// the implementation's output channel — the property the routed PDEs exist
// to guarantee.
void expect_fifo_streams_tokens(const asynclib::MpFifo& fifo,
                                const cad::FlowResult& fr) {
    const std::vector<std::uint64_t> tokens{3, 14, 8, 0, 15, 1, 12, 7};

    sim::Simulator golden(fifo.nl);
    golden.run();
    sim::BdStreamSource gsrc(golden, fifo.in, fifo.req_in, fifo.ack_in, tokens, 100, 80);
    sim::BdStreamSink gsink(golden, fifo.out, fifo.req_out, fifo.ack_out, 100);
    gsrc.start();
    EXPECT_TRUE(golden.run(500'000'000).quiescent);
    EXPECT_EQ(gsink.received(), tokens);

    PostRouteSim impl(fr);
    const auto iface = testsupport::mp_fifo_iface(impl.design.nl, 4);
    sim::BundledChannelMonitor mon(*impl.sim, iface.data_out, iface.req_out, iface.ack_out,
                                   "e2e.out");
    sim::BdStreamSource src(*impl.sim, iface.data_in, iface.req_in, iface.ack_in, tokens, 100, 80);
    sim::BdStreamSink sink(*impl.sim, iface.data_out, iface.req_out, iface.ack_out, 100);
    src.start();
    EXPECT_TRUE(impl.sim->run(500'000'000).quiescent);
    EXPECT_EQ(sink.received(), tokens);
    EXPECT_TRUE(mon.violations().empty())
        << (mon.violations().empty() ? "" : mon.violations()[0].what);
}

TEST(FlowE2E, QdiRippleAdderImplementationMatchesBehaviouralModel) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = kSeed;
    const auto fr = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
    expect_legal_flow_result(fr, fr.arch.width * fr.arch.height);
    expect_qdi_adder_matches_model(adder, 2, fr);
}

TEST(FlowE2E, AdderFlowIsSeedStable) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = kSeed;
    const auto a = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
    const auto b = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
    EXPECT_EQ(testsupport::flow_fingerprint(a), testsupport::flow_fingerprint(b));
}

TEST(FlowE2E, FifoFlowIsSeedStable) {
    auto fifo = asynclib::make_micropipeline_fifo(4, 3);
    cad::FlowOptions opts;
    opts.seed = kSeed;
    const auto a = cad::run_flow(fifo.nl, {}, core::ArchSpec{}, opts);
    const auto b = cad::run_flow(fifo.nl, {}, core::ArchSpec{}, opts);
    EXPECT_EQ(testsupport::flow_fingerprint(a), testsupport::flow_fingerprint(b));
}

// --- engine matrix ----------------------------------------------------------
// Every placement algorithm x {serial router, partitioned router on two
// workers}: each configuration's output must simulate like the behavioural
// model, not merely route legally and deterministically. The
// Anneal_RouteThreads0 instance is the default flow.

using EngineConfig = std::tuple<cad::PlaceAlgorithm, unsigned>;

class FlowEngineMatrix : public ::testing::TestWithParam<EngineConfig> {
protected:
    [[nodiscard]] cad::FlowOptions options() const {
        cad::FlowOptions opts;
        opts.seed = kSeed;
        opts.place.algorithm = std::get<0>(GetParam());
        opts.route.threads = std::get<1>(GetParam());
        return opts;
    }
};

TEST_P(FlowEngineMatrix, QdiAdder4MatchesBehaviouralModelOnEveryVector) {
    auto adder = asynclib::make_qdi_adder(4);
    const auto fr = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, options());
    expect_legal_flow_result(fr, fr.arch.width * fr.arch.height);
    expect_qdi_adder_matches_model(adder, 4, fr);
}

TEST_P(FlowEngineMatrix, MicropipelineFifoStreamsTokensUnderBundlingMonitor) {
    auto fifo = asynclib::make_micropipeline_fifo(4, 3);
    const auto fr = cad::run_flow(fifo.nl, {}, core::ArchSpec{}, options());
    expect_legal_flow_result(fr, fr.arch.width * fr.arch.height);
    expect_fifo_streams_tokens(fifo, fr);
}

std::string engine_config_name(const ::testing::TestParamInfo<EngineConfig>& info) {
    std::string name;
    switch (std::get<0>(info.param)) {
        case cad::PlaceAlgorithm::Anneal: name = "Anneal"; break;
        case cad::PlaceAlgorithm::Race: name = "Race"; break;
        case cad::PlaceAlgorithm::Multilevel: name = "Multilevel"; break;
    }
    return name + "_RouteThreads" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Engines, FlowEngineMatrix,
                         ::testing::Combine(::testing::Values(cad::PlaceAlgorithm::Anneal,
                                                              cad::PlaceAlgorithm::Multilevel,
                                                              cad::PlaceAlgorithm::Race),
                                            ::testing::Values(0u, 2u)),
                         engine_config_name);

}  // namespace
