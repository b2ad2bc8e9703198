/// \file
/// Multilevel analytical global placement: a coarsen→solve→interpolate
/// V-cycle over the coarsening hierarchy of cad/place_coarsen.hpp, built on
/// the bound-to-bound (B2B) quadratic wirelength model, the PCG solver and
/// the bisection spreader of cad/place_solver.hpp.
///
/// Running the full solve+spread schedule at netlist size makes the wall
/// grow with the fabric through the per-pass spreading cost. The V-cycle
/// instead runs the full schedule only at the coarsest level (a few
/// hundred super-nodes), then walks down the hierarchy interpolating each
/// solution to the next finer level and refining it with a short anchored
/// solve+spread schedule — the growing anchor weights carry across levels,
/// so by the finest level the placement is already spread and a handful of
/// passes suffice. The finest level hands off to the Tetris legalizer
/// (cad/place_legalize.hpp); the driver in cad/place.cpp layers the
/// warm-start polish anneal and the detailed descent on top. Spreading at
/// coarse levels is weighted by node weight (clusters represented), so
/// density stays honest at every level.
///
/// Determinism contract: every loop runs in a fixed serial order with
/// fixed tie-breaks (net order from the model, ascending node ids, no
/// thread-count- or scheduling-dependent floating-point reductions), the
/// coarsening is itself deterministic, and `seed` only feeds the initial
/// pad shuffle; the result is a pure function of (model, options, seed),
/// bit-identical across runs, machines and thread counts.
///
/// Threading: pure function of its arguments; race replicas may call it
/// concurrently over one shared PlaceModel.
#pragma once

#include <cstdint>
#include <vector>

#include "cad/place.hpp"
#include "cad/place_model.hpp"

namespace afpga::cad {

/// Output of global placement + legalization (pre-polish).
struct AnalyticalResult {
    std::vector<core::PlbCoord> cluster_loc;  ///< legal per-cluster sites
    std::vector<std::uint32_t> pad_of_io;     ///< io slot -> pad
    AnalyticalStats stats;                    ///< solver/spread/legalize telemetry
};

/// Run the multilevel V-cycle: build the hierarchy, solve coarsest-first,
/// interpolate down with per-level refinement, legalize the finest level.
/// Uses PlaceOptions::{solver_passes, solver_max_iters, solver_tolerance,
/// anchor_weight, coarsen_ratio, min_coarse_nodes, max_levels}. Per-level
/// telemetry lands in AnalyticalStats::levels (coarsest first).
[[nodiscard]] AnalyticalResult place_multilevel_global(const PlaceModel& model,
                                                       const PlaceOptions& opts,
                                                       std::uint64_t seed);

}  // namespace afpga::cad
