#include "core/exact.h"

#include "common/contracts.h"

namespace p2pcd::core {

exact_result exact_scheduler::run(const problem_view& problem) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();

    // Flat candidate k ↔ instance edge k, in CSR order.
    instance_.num_sources = nr;
    instance_.sink_capacity.resize(nu);
    for (std::size_t u = 0; u < nu; ++u)
        instance_.sink_capacity[u] = problem.uploader(u).capacity;
    const auto requests = problem.all_requests();
    const std::uint32_t* cand_up = problem.cand_uploaders().data();
    const double* cand_costs = problem.cand_costs().data();
    const std::uint32_t* offsets = problem.offsets().data();
    instance_.edges.resize(problem.num_candidates());
    for (std::size_t r = 0; r < nr; ++r) {
        const double v = requests[r].valuation;
        for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
            instance_.edges[k] = {r, cand_up[k], v - cand_costs[k]};
    }

    opt::transportation_solution sol = opt::solve_transportation_simplex(instance_);

    exact_result result;
    result.sched.choice.assign(nr, no_candidate);
    for (std::size_t r = 0; r < nr; ++r) {
        const std::ptrdiff_t e = sol.edge_of_source[r];
        if (e == opt::unassigned) continue;
        result.sched.choice[r] =
            e - static_cast<std::ptrdiff_t>(offsets[r]);  // edge k ↔ candidate k
        ensures(result.sched.choice[r] >= 0 &&
                    static_cast<std::size_t>(e) < offsets[r + 1],
                "assigned edge must map back into its request's candidate row");
    }
    result.welfare = sol.welfare;
    result.prices = std::move(sol.sink_price);
    result.request_utility = std::move(sol.source_utility);
    result.pivots = sol.pivots;
    total_pivots_ += sol.pivots;
    return result;
}

schedule exact_scheduler::solve(const problem_view& problem) {
    return run(problem).sched;
}

}  // namespace p2pcd::core
