// The designs the workloads compile, one per asynchronous style of the
// paper, and their post-route check: the implemented design, elaborated
// from its bitstream with routed wire delays, must answer a seeded token
// stream exactly as the behavioural source netlist does, with the
// channel monitors of its style armed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asynclib/styles.hpp"
#include "cad/flow.hpp"
#include "core/archspec.hpp"
#include "netlist/netlist.hpp"

namespace perfbench {

class Tracer;

/// Circuit family, one per style the fabric is claimed to support.
enum class Style : std::uint8_t {
    QdiAdder,       ///< QDI/DIMS dual-rail ripple adder (make_qdi_adder)
    MpAdder,        ///< bundled-data micropipeline adder
    MpFifo,         ///< bundled-data micropipeline FIFO
    MousetrapFifo,  ///< 2-phase MOUSETRAP FIFO
    WchbFifo,       ///< dual-rail WCHB FIFO
    OneOfFour,      ///< 1-of-4 adder of three digits, as examples/one_of_four_alu.cpp
};

/// A design and the square fabric it is compiled onto.
struct DesignSpec {
    Style style = Style::QdiAdder;
    std::size_t width = 1;          ///< data bits (digits for OneOfFour)
    std::size_t depth = 0;          ///< FIFO stages (0 for combinational designs)
    std::uint32_t fabric = 10;      ///< PLB columns == rows
    std::uint32_t channel_width = 14;

    /// Stable label, e.g. "qdi_adder_8@14".
    [[nodiscard]] std::string name() const;
};

/// A generated design ready to compile.
struct Design {
    DesignSpec spec;
    afpga::netlist::Netlist nl;
    afpga::asynclib::MappingHints hints;
    afpga::core::ArchSpec arch;
};

/// Run the style's generator and size the architecture.
[[nodiscard]] Design build_design(const DesignSpec& spec);

/// What the post-route check measured and found.
struct VerifyOutcome {
    bool ok = false;
    std::string error;          ///< first mismatch or monitor violation when !ok
    double elaborate_ms = 0.0;  ///< FlowResult::elaborate()
    double sim_ms = 0.0;        ///< wire-delay annotation + post-route simulation
    std::uint64_t events = 0;   ///< simulator events of the post-route run
    std::size_t tokens = 0;     ///< tokens checked
    /// Styles checked with margins wider than the repository's post-route
    /// tests use are simulated once more at those margins (not timed, not
    /// gated): a known flow defect makes a share of them fail.
    bool repo_margin_probed = false;
    std::string repo_margin_error;  ///< empty if the probe passed
};

/// Simulate `fr` post-route against the behavioural model of `d` on a token
/// stream drawn from `token_seed`. With tracing on, elaborate/sim spans are
/// recorded under `parent`.
[[nodiscard]] VerifyOutcome verify_post_route(const Design& d, const afpga::cad::FlowResult& fr,
                                              std::uint64_t token_seed, Tracer& tracer,
                                              std::int64_t parent, std::uint64_t job);

}  // namespace perfbench
