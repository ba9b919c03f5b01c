// Centralized greedy ablation: sort all (request, candidate) edges by net
// utility and take every profitable edge that still fits. Requires global
// knowledge like the exact solver, but runs in O(E log E). It brackets the
// auction from above in simplicity and from below in welfare — the ablation
// benches report all three (greedy ≤ auction ≤ exact on welfare).
#ifndef P2PCD_BASELINE_GREEDY_WELFARE_H
#define P2PCD_BASELINE_GREEDY_WELFARE_H

#include <cstdint>
#include <vector>

#include "core/problem.h"

namespace p2pcd::baseline {

class greedy_welfare_scheduler final : public core::scheduler {
public:
    [[nodiscard]] core::schedule solve(const core::problem_view& problem) override;
    [[nodiscard]] std::string_view name() const override { return "greedy-welfare"; }
    void shed_memory() override {
        std::vector<edge>().swap(edges_);
        std::vector<std::int64_t>().swap(remaining_);
    }
    [[nodiscard]] std::size_t workspace_bytes() const override {
        return edges_.capacity() * sizeof(edge) + remaining_.capacity() * sizeof(std::int64_t);
    }

private:
    // 16 B: the uploader and the row ordinal are read back off the CSR
    // slab (problem.h bounds requests and candidates to u32).
    struct edge {
        std::uint32_t request;
        std::uint32_t candidate;  // flat CSR candidate index
        double profit;
    };
    // Persistent workspaces (see core::scheduler contract).
    std::vector<edge> edges_;
    std::vector<std::int64_t> remaining_;
};

}  // namespace p2pcd::baseline

#endif  // P2PCD_BASELINE_GREEDY_WELFARE_H
