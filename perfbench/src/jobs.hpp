// Job lists of the workloads. Every list is a pure function of the
// workload seed: the same seed yields the same designs, flow seeds and
// knobs in the same order, which digest() makes checkable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cad/flow.hpp"
#include "designs.hpp"

namespace perfbench {

/// One compile request.
struct JobSpec {
    std::size_t design = 0;       ///< index into the workload's catalogue
    afpga::cad::FlowOptions opts; ///< semantic knobs only (no store, no prebuilt graph)
    std::string key;              ///< canonical label: design name plus every knob set
    bool fresh = false;           ///< remote_rebuild: a seed no earlier job used
};

/// Canonical key of a job: two jobs with equal keys compile identically.
[[nodiscard]] std::string job_key(const DesignSpec& d, const afpga::cad::FlowOptions& o);
/// Digest over the keys of `jobs` in order.
[[nodiscard]] std::string digest(const std::vector<JobSpec>& jobs);

// --- cold_compile: an endless stream in rounds; each round compiles every
// catalogue design once, in a seeded order, with fresh flow seeds.
[[nodiscard]] std::vector<DesignSpec> cold_catalogue();
[[nodiscard]] JobSpec cold_job(const std::vector<DesignSpec>& cat, std::uint64_t seed,
                               std::size_t index);

// --- remote_rebuild: a repeat set compiled during set-up, then a request
// stream in blocks of four holding three repeats and one fresh compile.
[[nodiscard]] std::vector<DesignSpec> remote_catalogue();
[[nodiscard]] std::vector<JobSpec> remote_repeat_set(const std::vector<DesignSpec>& cat,
                                                     std::uint64_t seed);
[[nodiscard]] JobSpec remote_request(const std::vector<DesignSpec>& cat,
                                     const std::vector<JobSpec>& repeat_set, std::uint64_t seed,
                                     std::size_t index);
/// Requests per block, and fresh compiles among them.
inline constexpr std::size_t kRemoteBlock = 4;

}  // namespace perfbench
