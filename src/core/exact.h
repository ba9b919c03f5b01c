// Centralized exact scheduler: solves problem (1) to optimality with opt's
// primal network simplex on the transportation form. This is the reference
// the test suite holds the auction against (Theorem 1), and the "offline
// optimum" series in the ablation benches. It is not a practical P2P
// protocol — it needs global knowledge — which is precisely why the paper
// wants the distributed auction to match it.
//
// The CSR problem_view is translated into a transportation_instance (flat
// candidate k of the view is edge k of the instance, so the mapping back is
// pure arithmetic) and solved with solve_transportation_simplex, which also
// returns the optimal duals. opt::solve_exact (min-cost max-flow) stays in
// opt as the independently-derived optimum the property suite holds this
// scheduler against.
//
// The instance arena persists across solve() calls and is counted and shed
// under the core::scheduler footprint contract (the simplex's spanning-tree
// state is allocated per solve and freed before run() returns).
#ifndef P2PCD_CORE_EXACT_H
#define P2PCD_CORE_EXACT_H

#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "opt/transportation.h"

namespace p2pcd::core {

struct exact_result {
    schedule sched;
    double welfare = 0.0;
    std::vector<double> prices;           // optimal λ per uploader
    std::vector<double> request_utility;  // optimal η per request
    std::uint64_t pivots = 0;             // simplex pivots this solve
};

class exact_scheduler final : public scheduler {
public:
    [[nodiscard]] exact_result run(const problem_view& problem);

    [[nodiscard]] schedule solve(const problem_view& problem) override;
    [[nodiscard]] std::string_view name() const override { return "exact"; }
    void shed_memory() override {
        std::vector<std::int64_t>().swap(instance_.sink_capacity);
        std::vector<opt::transportation_edge>().swap(instance_.edges);
    }
    [[nodiscard]] std::size_t workspace_bytes() const override {
        return instance_.edges.capacity() * sizeof(opt::transportation_edge) +
               instance_.sink_capacity.capacity() * sizeof(std::int64_t);
    }
    // Cumulative pivots over every solve of this instance's lifetime.
    [[nodiscard]] std::uint64_t total_pivots() const noexcept {
        return total_pivots_;
    }

private:
    opt::transportation_instance instance_;  // persistent arena
    std::uint64_t total_pivots_ = 0;
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_EXACT_H
