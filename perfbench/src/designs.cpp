#include "designs.hpp"

#include <functional>
#include <memory>
#include <optional>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "asynclib/oneofn.hpp"
#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "base/timer.hpp"
#include "bench_util.hpp"
#include "core/elaborate.hpp"
#include "netlist/truthtable.hpp"
#include "sim/channels.hpp"
#include "sim/monitors.hpp"
#include "sim/simulator.hpp"
#include "sim/testbench.hpp"

namespace perfbench {

using namespace afpga;
using netlist::Logic;
using netlist::NetId;

namespace {

constexpr std::size_t kOf4OutDigits = 2;
// Environment timing of the bundled-data testbenches.
struct Margins {
    std::int64_t bundled_settle_ps;      ///< 4-phase source: data settled before req
    std::int64_t bundled_response_ps;    ///< 4-phase stream source: ack_in to next data
    std::int64_t mousetrap_response_ps;  ///< 2-phase source: ack_in to next token
    std::int64_t mousetrap_settle_ps;    ///< 2-phase source: data settled before req
};
// The margins of the repository's own post-route tests: a 4-phase source
// settles its data 200 ps before req and a stream source answers ack_in
// after 100 ps; a MOUSETRAP source answers ack_in after 120 ps with data
// settled 400 ps before req.
constexpr Margins kRepoMargins{200, 100, 120, 400};
// The margins the check uses. At the repository's margins every bundled
// style fails for a share of placements, so each widens the one margin it
// fails on, and only that. A micropipeline adder's PDE is sized for the
// logic behind it, but post-route that does not always cover the routed
// data path from the input pads: at 200 ps settle 4 of 200 mp_adder_16
// placements failed, 2 ns still failed 1 of 500, 8 ns passed 4500. A
// micropipeline FIFO's first stage can latch the next token's data when
// the source answers ack_in within 100-600 ps (about 1 in 1000
// mp_fifo_16x6@14 placements); 1 ns passed 6000. A MOUSETRAP FIFO's
// ack_in can toggle before every first-stage latch has closed: a 120 ps
// response fails 17-33% of the 4-bit FIFOs, 600 ps passed 1000. Every
// bundled job is re-simulated at kRepoMargins as well, and the share that
// fails is reported (verify.repo_margin_fail_ratio), not gated.
Margins checked_margins(Style s) {
    Margins m = kRepoMargins;
    if (s == Style::MpAdder) m.bundled_settle_ps = 8000;
    if (s == Style::MpFifo) m.bundled_response_ps = 1000;
    if (s == Style::MousetrapFifo) m.mousetrap_response_ps = 600;
    return m;
}

bool has_wide_margins(Style s) {
    return s == Style::MpAdder || s == Style::MpFifo || s == Style::MousetrapFifo;
}

const char* style_name(Style s) {
    switch (s) {
    case Style::QdiAdder: return "qdi_adder";
    case Style::MpAdder: return "mp_adder";
    case Style::MpFifo: return "mp_fifo";
    case Style::MousetrapFifo: return "mousetrap_fifo";
    case Style::WchbFifo: return "wchb_fifo";
    case Style::OneOfFour: return "of4_adder";
    }
    return "?";
}

// The 1-of-4 unit's function of its input digits (packed two bits per
// digit, LSB first): output digit 0 is their sum mod 4, digit 1 their XOR,
// so every rail of both output digits is reachable.
std::uint64_t of4_spec(std::uint64_t v, std::size_t digits) {
    std::uint64_t sum = 0;
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < digits; ++i) {
        sum += (v >> (2 * i)) & 3u;
        x ^= (v >> (2 * i)) & 3u;
    }
    return (sum & 3u) | (x << 2);
}

// The 1-of-4 unit, built as examples/one_of_four_alu.cpp builds its adder:
// the generic minterm expansion plus per-digit completion.
void build_of4_adder(Design& d) {
    const std::size_t digits = d.spec.width;
    netlist::Netlist nl("of4_adder");
    const auto ins = asynclib::add_one_of_four_inputs(nl, "x", digits);
    const std::size_t vars = 2 * digits;
    std::vector<netlist::TruthTable> bits;
    for (std::size_t b = 0; b < 2 * kOf4OutDigits; ++b)
        bits.push_back(netlist::TruthTable::from_function(
            vars, [&, b](std::uint32_t m) { return ((of4_spec(m, digits) >> b) & 1u) != 0; }));
    auto res = asynclib::expand_one_of_four(nl, bits, ins, "add");
    const NetId done = asynclib::add_of4_completion(nl, res.outputs, "cd");
    for (std::size_t k = 0; k < res.outputs.size(); ++k)
        for (std::size_t s = 0; s < 4; ++s)
            nl.add_output("out" + std::to_string(k) + ".r" + std::to_string(s),
                          res.outputs[k].rail[s]);
    nl.add_output("done", done);
    nl.validate();
    d.nl = std::move(nl);
    d.hints = std::move(res.hints);
}

// --- net lookup, valid on the source and on the elaborated netlist alike:
// primary inputs keep their names and primary outputs their PO names.

NetId pi(const netlist::Netlist& nl, const std::string& name) {
    const NetId n = nl.find_net(name);
    base::check(n.valid(), "verify: missing input " + name);
    return n;
}

NetId po(const netlist::Netlist& nl, const std::string& name) {
    for (const auto& [n, net] : nl.primary_outputs())
        if (n == name) return net;
    base::fail("verify: missing output " + name);
}

asynclib::DualRail pi_rails(const netlist::Netlist& nl, const std::string& base) {
    return {pi(nl, base + ".t"), pi(nl, base + ".f")};
}

asynclib::DualRail po_rails(const netlist::Netlist& nl, const std::string& base) {
    return {po(nl, base + ".t"), po(nl, base + ".f")};
}

std::vector<NetId> pi_bus(const netlist::Netlist& nl, const std::string& name, std::size_t n) {
    std::vector<NetId> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(pi(nl, base::bus_bit(name, i)));
    return v;
}

std::vector<NetId> po_bus(const netlist::Netlist& nl, const std::string& name, std::size_t n) {
    std::vector<NetId> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(po(nl, base::bus_bit(name, i)));
    return v;
}

// --- token streams and their specification ------------------------------------------

std::size_t token_bits(const DesignSpec& s) {
    switch (s.style) {
    case Style::QdiAdder:
    case Style::MpAdder: return 2 * s.width + 1;
    case Style::OneOfFour: return 2 * s.width;
    default: return s.width;
    }
}

std::uint64_t spec_output(const DesignSpec& s, std::uint64_t v) {
    const std::uint64_t mask = (std::uint64_t{1} << s.width) - 1;
    switch (s.style) {
    case Style::QdiAdder:
    case Style::MpAdder: return (v & mask) + ((v >> s.width) & mask) + ((v >> (2 * s.width)) & 1);
    case Style::OneOfFour: return of4_spec(v, s.width);
    default: return v;
    }
}

std::vector<std::uint64_t> make_tokens(const DesignSpec& s, std::uint64_t seed) {
    const std::size_t count = s.style == Style::QdiAdder || s.style == Style::OneOfFour ? 16 : 12;
    base::Rng rng(seed);
    std::vector<std::uint64_t> t;
    for (std::size_t i = 0; i < count; ++i) t.push_back(rng.below(std::uint64_t{1} << token_bits(s)));
    return t;
}

// --- testbenches ------------------------------------------------------------------------

struct TbOutcome {
    std::vector<std::uint64_t> out;
    std::string violation;  ///< first monitor finding, empty if none
};

template <typename Monitor>
std::string first_violation(const Monitor& m) {
    return m.violations().empty() ? std::string() : m.violations().front().what;
}

std::string check_quiescent(const sim::RunResult& r) {
    return r.quiescent ? std::string() : std::string("simulation did not settle");
}

// Drive `tokens` through the design of style `s` simulated by `sim` over
// netlist `nl`, with the style's channel monitor armed on the output side.
TbOutcome run_testbench(const DesignSpec& s, sim::Simulator& sim, const netlist::Netlist& nl,
                        const std::vector<std::uint64_t>& tokens, const Margins& margins) {
    TbOutcome o;
    const std::size_t n = s.width;
    switch (s.style) {
    case Style::QdiAdder: {
        sim::QdiCombIface io;
        for (const char* bus : {"a", "b"})
            for (std::size_t i = 0; i < n; ++i) io.inputs.push_back(pi_rails(nl, base::bus_bit(bus, i)));
        io.inputs.push_back(pi_rails(nl, "cin"));
        for (std::size_t i = 0; i < n; ++i) io.outputs.push_back(po_rails(nl, base::bus_bit("sum", i)));
        io.outputs.push_back(po_rails(nl, "cout"));
        io.done = po(nl, "done");
        sim::DualRailChannelMonitor mon(sim, io.outputs, io.done, "sum");
        for (std::uint64_t v : tokens) o.out.push_back(sim::qdi_apply_token(sim, io, v));
        o.violation = first_violation(mon);
        break;
    }
    case Style::MpAdder: {
        sim::BundledStageIface io;
        io.data_in = pi_bus(nl, "a", n);
        const auto b = pi_bus(nl, "b", n);
        io.data_in.insert(io.data_in.end(), b.begin(), b.end());
        io.data_in.push_back(pi(nl, "cin"));
        io.req_in = pi(nl, "req_in");
        io.ack_out = pi(nl, "ack_out");
        io.data_out = po_bus(nl, "sum", n);
        io.data_out.push_back(po(nl, "cout"));
        io.req_out = po(nl, "req_out");
        io.ack_in = po(nl, "ack_in");
        sim::BundledChannelMonitor mon(sim, io.data_out, io.req_out, io.ack_out, "sum");
        for (std::uint64_t v : tokens)
            o.out.push_back(sim::bundled_apply_token(sim, io, v, margins.bundled_settle_ps));
        o.violation = first_violation(mon);
        break;
    }
    case Style::MpFifo: {
        const auto in = pi_bus(nl, "in", n);
        const auto out = po_bus(nl, "out", n);
        sim::BundledChannelMonitor mon(sim, out, po(nl, "req_out"), pi(nl, "ack_out"), "out");
        sim::BdStreamSource src(sim, in, pi(nl, "req_in"), po(nl, "ack_in"), tokens,
                                margins.bundled_response_ps, margins.bundled_settle_ps);
        sim::BdStreamSink sink(sim, out, po(nl, "req_out"), pi(nl, "ack_out"), 100);
        src.start();
        o.violation = check_quiescent(sim.run(500'000'000));
        o.out = sink.received();
        if (o.violation.empty()) o.violation = first_violation(mon);
        break;
    }
    case Style::MousetrapFifo: {
        const auto in = pi_bus(nl, "in", n);
        const auto out = po_bus(nl, "out", n);
        sim::TwoPhaseBundledMonitor mon(sim, out, po(nl, "req_out"), pi(nl, "ack_out"), "out");
        sim::Bd2StreamSource src(sim, in, pi(nl, "req_in"), po(nl, "ack_in"), tokens,
                                 margins.mousetrap_response_ps,
                                 margins.mousetrap_settle_ps);
        sim::Bd2StreamSink sink(sim, out, po(nl, "req_out"), pi(nl, "ack_out"), 120);
        src.start();
        o.violation = check_quiescent(sim.run(1'000'000'000));
        o.out = sink.received();
        if (o.violation.empty()) o.violation = first_violation(mon);
        break;
    }
    case Style::WchbFifo: {
        std::vector<asynclib::DualRail> in;
        std::vector<asynclib::DualRail> out;
        for (std::size_t i = 0; i < n; ++i) {
            in.push_back(pi_rails(nl, base::bus_bit("in", i)));
            out.push_back(po_rails(nl, base::bus_bit("out", i)));
        }
        sim::DualRailChannelMonitor mon(sim, out, pi(nl, "ack_out"), "out");
        sim::DrStreamSource src(sim, in, po(nl, "ack_in"), tokens, 100);
        sim::DrStreamSink sink(sim, out, pi(nl, "ack_out"), 100);
        src.start();
        o.violation = check_quiescent(sim.run(500'000'000));
        o.out = sink.received();
        if (o.violation.empty()) o.violation = first_violation(mon);
        break;
    }
    case Style::OneOfFour: {
        std::vector<std::array<NetId, 4>> in(n);
        for (std::size_t d = 0; d < n; ++d)
            for (std::size_t r = 0; r < 4; ++r)
                in[d][r] = pi(nl, base::bus_bit("x", d) + ".r" + std::to_string(r));
        std::array<std::array<NetId, 4>, kOf4OutDigits> out{};
        for (std::size_t k = 0; k < kOf4OutDigits; ++k)
            for (std::size_t r = 0; r < 4; ++r)
                out[k][r] = po(nl, "out" + std::to_string(k) + ".r" + std::to_string(r));
        const NetId done = po(nl, "done");
        for (std::uint64_t v : tokens) {
            // 4-phase: raise one rail per digit, wait for done, read, return to zero.
            for (std::size_t d = 0; d < n; ++d) sim.schedule_pi(in[d][(v >> (2 * d)) & 3u], Logic::T);
            (void)sim.run_until(done, Logic::T, sim.now() + 10'000'000);
            base::check(sim.value(done) == Logic::T, "verify: 1-of-4 done never rose");
            std::uint64_t word = 0;
            for (std::size_t k = 0; k < kOf4OutDigits; ++k) {
                int hot = -1;
                int fired = 0;
                for (int r = 0; r < 4; ++r)
                    if (sim.value(out[k][static_cast<std::size_t>(r)]) == Logic::T) {
                        hot = r;
                        ++fired;
                    }
                base::check(fired == 1, "verify: 1-of-4 output digit is not one-hot");
                word |= static_cast<std::uint64_t>(hot) << (2 * k);
            }
            o.out.push_back(word);
            for (std::size_t d = 0; d < n; ++d) sim.schedule_pi(in[d][(v >> (2 * d)) & 3u], Logic::F);
            (void)sim.run_until(done, Logic::F, sim.now() + 10'000'000);
            base::check(sim.value(done) == Logic::F, "verify: 1-of-4 done never fell");
        }
        break;
    }
    }
    return o;
}

std::string compare(const char* side, const std::vector<std::uint64_t>& got,
                    const std::vector<std::uint64_t>& want) {
    if (got.size() != want.size())
        return std::string(side) + ": " + std::to_string(got.size()) + " of " +
               std::to_string(want.size()) + " tokens came out";
    for (std::size_t i = 0; i < got.size(); ++i)
        if (got[i] != want[i])
            return std::string(side) + ": token " + std::to_string(i) + " read " +
                   std::to_string(got[i]) + ", expected " + std::to_string(want[i]);
    return {};
}

}  // namespace

std::string DesignSpec::name() const {
    std::string n = std::string(style_name(style)) + "_" + std::to_string(width);
    if (depth > 0) n += "x" + std::to_string(depth);
    return n + "@" + std::to_string(fabric);
}

Design build_design(const DesignSpec& spec) {
    Design d;
    d.spec = spec;
    switch (spec.style) {
    case Style::QdiAdder: {
        auto g = asynclib::make_qdi_adder(spec.width);
        d.nl = std::move(g.nl);
        d.hints = std::move(g.hints);
        break;
    }
    case Style::MpAdder: d.nl = asynclib::make_micropipeline_adder(spec.width).nl; break;
    case Style::MpFifo: d.nl = asynclib::make_micropipeline_fifo(spec.width, spec.depth).nl; break;
    case Style::MousetrapFifo:
        d.nl = asynclib::make_mousetrap_fifo(spec.width, spec.depth).nl;
        break;
    case Style::WchbFifo: {
        auto g = asynclib::make_wchb_fifo(spec.width, spec.depth);
        d.nl = std::move(g.nl);
        d.hints = std::move(g.hints);
        break;
    }
    case Style::OneOfFour: build_of4_adder(d); break;
    }
    d.arch.width = d.arch.height = spec.fabric;
    d.arch.channel_width = spec.channel_width;
    return d;
}

VerifyOutcome verify_post_route(const Design& d, const cad::FlowResult& fr,
                                std::uint64_t token_seed, Tracer& tracer, std::int64_t parent,
                                std::uint64_t job) {
    VerifyOutcome v;
    const auto tokens = make_tokens(d.spec, token_seed);
    v.tokens = tokens.size();
    std::vector<std::uint64_t> want;
    for (std::uint64_t t : tokens) want.push_back(spec_output(d.spec, t));
    try {
        // Behavioural model: the source netlist with zero-delay wires.
        sim::Simulator golden(d.nl);
        golden.run();
        const TbOutcome ref =
            run_testbench(d.spec, golden, d.nl, tokens, checked_margins(d.spec.style));
        v.error = compare("behavioural model", ref.out, want);

        // Implementation: elaborated from the bitstream, routed delays on.
        std::optional<core::ElaboratedDesign> design;
        {
            ScopedSpan span(tracer, "elaborate", parent, job);
            base::WallTimer t;
            design.emplace(fr.elaborate());
            v.elaborate_ms = t.elapsed_ms();
        }
        auto simulate = [&](const Margins& m) {
            sim::Simulator sim(design->nl);
            for (const auto& w : core::resolve_wire_delays(*design))
                sim.set_sink_delay(w.net, w.sink_idx, w.delay_ps);
            sim.run();
            TbOutcome o = run_testbench(d.spec, sim, design->nl, tokens, m);
            return std::make_pair(std::move(o), sim.total_events());
        };
        auto judge = [&](const TbOutcome& o) {
            std::string e = compare("post-route", o.out, want);
            if (e.empty() && !o.violation.empty()) e = "post-route monitor: " + o.violation;
            return e;
        };
        {
            ScopedSpan span(tracer, "sim", parent, job);
            base::WallTimer t;
            const auto [impl, events] = simulate(checked_margins(d.spec.style));
            v.sim_ms = t.elapsed_ms();
            v.events = events;
            if (v.error.empty()) v.error = judge(impl);
        }
        if (v.error.empty() && has_wide_margins(d.spec.style)) {
            v.repo_margin_probed = true;
            try {
                v.repo_margin_error = judge(simulate(kRepoMargins).first);
            } catch (const std::exception& e) {
                v.repo_margin_error = e.what();
            }
        }
    } catch (const std::exception& e) {
        v.error = std::string("verify: ") + e.what();
    }
    v.ok = v.error.empty();
    return v;
}

}  // namespace perfbench
