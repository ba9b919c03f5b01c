#include "baseline/random_scheduler.h"

#include <algorithm>
#include <numeric>

namespace p2pcd::baseline {

random_scheduler::random_scheduler(std::uint64_t seed, std::size_t max_rounds)
    : rng_(seed), max_rounds_(max_rounds) {}

void random_scheduler::reseed(std::uint64_t seed) { rng_ = sim::rng_stream(seed); }

core::schedule random_scheduler::solve(const core::problem_view& problem) {
    // Random visiting order per request (sampling without replacement),
    // flat in CSR order.
    const auto offsets = problem.offsets();
    order_.resize(problem.num_candidates());
    cursor_.resize(problem.num_requests());
    for (std::size_t r = 0; r < problem.num_requests(); ++r) {
        auto begin = order_.begin() + offsets[r];
        auto end = order_.begin() + offsets[r + 1];
        std::iota(begin, end, std::uint32_t{0});
        std::shuffle(begin, end, rng_.engine());
    }
    return rounds_.run(problem, max_rounds_, [&](std::uint32_t r, std::uint32_t prev) {
        cursor_[r] = prev == knock_rounds::none ? offsets[r] : cursor_[r] + 1;
        return cursor_[r] < offsets[r + 1] ? order_[cursor_[r]] : knock_rounds::none;
    });
}

}  // namespace p2pcd::baseline
