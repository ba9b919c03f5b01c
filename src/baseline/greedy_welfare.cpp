#include "baseline/greedy_welfare.h"

#include <algorithm>

namespace p2pcd::baseline {

core::schedule greedy_welfare_scheduler::solve(const core::problem_view& problem) {
    const std::uint32_t* offsets = problem.offsets().data();
    const std::uint32_t* uploader_of = problem.cand_uploaders().data();
    const double* cost = problem.cand_costs().data();
    // Two passes over the slab: count the profitable edges, then store
    // exactly those (full candidate lists carry many with w > v).
    const auto for_each_profitable = [&](auto&& take) {
        for (std::uint32_t r = 0; r < problem.num_requests(); ++r) {
            const double v = problem.request(r).valuation;
            for (std::uint32_t k = offsets[r]; k < offsets[r + 1]; ++k)
                if (const double profit = v - cost[k]; profit > 0.0) take(r, k, profit);
        }
    };
    std::size_t profitable = 0;
    for_each_profitable([&](std::uint32_t, std::uint32_t, double) { ++profitable; });
    edges_.clear();
    edges_.reserve(profitable);
    for_each_profitable([&](std::uint32_t r, std::uint32_t k, double profit) {
        edges_.push_back({r, k, profit});
    });
    std::stable_sort(edges_.begin(), edges_.end(),
                     [](const edge& a, const edge& b) { return a.profit > b.profit; });

    core::schedule sched;
    sched.choice.assign(problem.num_requests(), core::no_candidate);
    remaining_.assign(problem.num_uploaders(), 0);
    for (std::size_t u = 0; u < problem.num_uploaders(); ++u)
        remaining_[u] = problem.uploader(u).capacity;

    for (const auto& e : edges_) {
        if (sched.choice[e.request] != core::no_candidate) continue;
        const std::uint32_t u = uploader_of[e.candidate];
        if (remaining_[u] <= 0) continue;
        --remaining_[u];
        sched.choice[e.request] =
            static_cast<std::ptrdiff_t>(e.candidate - offsets[e.request]);
    }
    return sched;
}

}  // namespace p2pcd::baseline
