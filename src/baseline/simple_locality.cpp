#include "baseline/simple_locality.h"

namespace p2pcd::baseline {

simple_locality_scheduler::simple_locality_scheduler(locality_options options)
    : options_(options) {}

core::schedule simple_locality_scheduler::solve(const core::problem_view& problem) {
    const auto offsets = problem.offsets();
    const double* const costs = problem.cand_costs().data();
    // The least (cost, ordinal) candidate strictly after `prev` in the row.
    return rounds_.run(problem, options_.max_rounds, [&](std::uint32_t r, std::uint32_t prev) {
        const double* const cost = costs + offsets[r];
        const std::uint32_t n = offsets[r + 1] - offsets[r];
        const bool first = prev == knock_rounds::none;
        const double floor = first ? 0.0 : cost[prev];
        std::uint32_t best = knock_rounds::none;
        double best_cost = 0.0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const double c = cost[i];
            const bool after = first || c > floor || (c == floor && i > prev);
            if (after && (best == knock_rounds::none || c < best_cost)) {
                best = i;
                best_cost = c;
            }
        }
        return best;
    });
}

}  // namespace p2pcd::baseline
