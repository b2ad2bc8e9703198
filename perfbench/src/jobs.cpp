#include "jobs.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "base/rng.hpp"
#include "bench_util.hpp"

namespace perfbench {

using afpga::base::Rng;
using afpga::cad::FlowOptions;

namespace {

// Stream ids that decorrelate the workloads' draws from one seed.
constexpr std::uint64_t kColdStream = 0xC01D;
constexpr std::uint64_t kRemoteStream = 0x4E40;

constexpr std::size_t kRepeatSeedsPerDesign = 2;

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

JobSpec make_job(const std::vector<DesignSpec>& cat, std::size_t design, std::uint64_t flow_seed) {
    JobSpec j;
    j.design = design;
    j.opts.seed = flow_seed;
    j.key = job_key(cat[design], j.opts);
    return j;
}

}  // namespace

std::string job_key(const DesignSpec& d, const FlowOptions& o) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s/s%llu/astar%g/pfm%g/pde%g", d.name().c_str(),
                  static_cast<unsigned long long>(o.seed), o.route.astar_fac,
                  o.route.pres_fac_mult, o.pde_extra_margin);
    return buf;
}

std::string digest(const std::vector<JobSpec>& jobs) {
    Digest h;
    for (const JobSpec& j : jobs) h.str(j.key).u64(j.fresh ? 1 : 0);
    return h.hex();
}

// --- cold_compile ---------------------------------------------------------------------

std::vector<DesignSpec> cold_catalogue() {
    // Twelve designs whose compile times rise in small steps (about 50 to
    // 240 ms on a 4-thread x86 box), so the latency percentiles fall
    // inside the distribution rather than on a gap between two designs.
    return {
        {Style::MousetrapFifo, 4, 8, 12, 14}, {Style::MpAdder, 16, 0, 12, 14},
        {Style::MpFifo, 16, 6, 14, 14},       {Style::WchbFifo, 8, 4, 12, 14},
        {Style::MousetrapFifo, 4, 12, 14, 14}, {Style::QdiAdder, 4, 0, 10, 14},
        {Style::OneOfFour, 3, 0, 10, 14},     {Style::MpAdder, 24, 0, 14, 14},
        {Style::QdiAdder, 6, 0, 12, 14},      {Style::WchbFifo, 8, 8, 14, 14},
        {Style::QdiAdder, 8, 0, 14, 14},      {Style::QdiAdder, 10, 0, 15, 14},
    };
}

JobSpec cold_job(const std::vector<DesignSpec>& cat, std::uint64_t seed, std::size_t index) {
    const std::size_t round = index / cat.size();
    Rng rng(Rng::derive_seed(Rng::derive_seed(seed, kColdStream), round));
    std::vector<std::size_t> order(cat.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    shuffle(order, rng);
    const std::uint64_t flow_seed =
        Rng::derive_seed(Rng::derive_seed(seed, kColdStream + 1), index) % 1'000'000'007ULL;
    return make_job(cat, order[index % cat.size()], flow_seed);
}

// --- remote_rebuild ------------------------------------------------------------------------

std::vector<DesignSpec> remote_catalogue() {
    // One fabric, so the restarted server prewarms a single RR graph.
    return {
        {Style::QdiAdder, 6, 0, 14, 14},      {Style::MpAdder, 16, 0, 14, 14},
        {Style::MpFifo, 16, 6, 14, 14},       {Style::MousetrapFifo, 4, 12, 14, 14},
        {Style::WchbFifo, 8, 4, 14, 14},      {Style::OneOfFour, 3, 0, 14, 14},
    };
}

std::vector<JobSpec> remote_repeat_set(const std::vector<DesignSpec>& cat, std::uint64_t seed) {
    Rng rng(Rng::derive_seed(seed, kRemoteStream));
    std::vector<JobSpec> set;
    for (std::size_t d = 0; d < cat.size(); ++d)
        for (std::size_t s = 0; s < kRepeatSeedsPerDesign; ++s)
            set.push_back(make_job(cat, d, rng.below(1'000'000'007ULL)));
    return set;
}

JobSpec remote_request(const std::vector<DesignSpec>& cat, const std::vector<JobSpec>& repeat_set,
                       std::uint64_t seed, std::size_t index) {
    const std::size_t block = index / kRemoteBlock;
    Rng block_rng(Rng::derive_seed(Rng::derive_seed(seed, kRemoteStream + 1), block));
    const std::size_t fresh_slot = block_rng.below(kRemoteBlock);
    if (index % kRemoteBlock == fresh_slot) {
        // Fresh compiles cycle the catalogue in seeded rounds so every run
        // sees the same design mix; their seeds lie above every repeat-set seed.
        const std::size_t round = block / cat.size();
        Rng round_rng(Rng::derive_seed(Rng::derive_seed(seed, kRemoteStream + 2), round));
        std::vector<std::size_t> order(cat.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        shuffle(order, round_rng);
        const std::uint64_t flow_seed =
            2'000'000'000ULL +
            Rng::derive_seed(Rng::derive_seed(seed, kRemoteStream + 4), block) % 1'000'000'007ULL;
        JobSpec j = make_job(cat, order[block % cat.size()], flow_seed);
        j.fresh = true;
        return j;
    }
    // Repeats walk the repeat set in seeded rounds, so over whole rounds
    // every key repeats equally often, whatever the seed.
    const std::size_t slot = index % kRemoteBlock;
    const std::size_t nth = block * (kRemoteBlock - 1) + (slot < fresh_slot ? slot : slot - 1);
    const std::size_t round = nth / repeat_set.size();
    Rng round_rng(Rng::derive_seed(Rng::derive_seed(seed, kRemoteStream + 3), round));
    std::vector<std::size_t> order(repeat_set.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    shuffle(order, round_rng);
    return repeat_set[order[nth % repeat_set.size()]];
}

}  // namespace perfbench
