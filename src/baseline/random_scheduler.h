// Network-agnostic baseline: requests pick uniformly random caching neighbors
// (exactly what "most existing P2P protocols" in the paper's introduction do),
// uploaders still serve the most urgent chunks first. Used in the ablation
// benches to show how much of the auction's gain comes from ISP awareness
// versus plain urgency-driven allocation.
#ifndef P2PCD_BASELINE_RANDOM_SCHEDULER_H
#define P2PCD_BASELINE_RANDOM_SCHEDULER_H

#include <cstdint>
#include <vector>

#include "baseline/knock_rounds.h"
#include "core/problem.h"
#include "sim/rng.h"

namespace p2pcd::baseline {

class random_scheduler final : public core::scheduler {
public:
    explicit random_scheduler(std::uint64_t seed, std::size_t max_rounds = 3);

    [[nodiscard]] core::schedule solve(const core::problem_view& problem) override;
    [[nodiscard]] std::string_view name() const override { return "random"; }

    // Re-keys the visiting-order RNG. The emulator calls this once per
    // bidding round with a seed derived from (slot, round) via
    // sim::rng_factory, so rounds are independent and reproducible.
    void reseed(std::uint64_t seed) override;

    void shed_memory() override {
        std::vector<std::uint32_t>().swap(order_);
        std::vector<std::uint32_t>().swap(cursor_);
        rounds_.shed();
    }
    [[nodiscard]] std::size_t workspace_bytes() const override {
        return (order_.capacity() + cursor_.capacity()) * sizeof(std::uint32_t) +
               rounds_.memory_bytes();
    }

private:
    sim::rng_stream rng_;
    std::size_t max_rounds_;
    // Persistent workspaces (see core::scheduler contract). `order_` is the
    // per-request shuffled candidate ordinals, flat in CSR order, and
    // `cursor_[r]` the flat index of request r's current entry in it.
    std::vector<std::uint32_t> order_;
    std::vector<std::uint32_t> cursor_;
    knock_rounds rounds_;
};

}  // namespace p2pcd::baseline

#endif  // P2PCD_BASELINE_RANDOM_SCHEDULER_H
