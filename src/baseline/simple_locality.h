// The paper's comparison baseline (Sec. V): "each downstream peer requests
// chunks from upstream neighbors with the lowest network costs in between as
// much as possible; for bandwidth allocation at an upstream peer, it always
// prioritizes to transmit chunks with more urgent deadlines."
//
// Interpretation (the quote is all the paper specifies): bidding proceeds in
// rounds. In each round every still-unserved request knocks at its cheapest
// not-yet-tried candidate; an uploader ranks the round's incoming requests by
// valuation (urgency) and grants its remaining capacity top-down. Rejected
// requests try their next-cheapest candidate next round, up to `max_rounds`.
//
// The rounds are `knock_rounds`. Cheapest-first is the total order (cost,
// ordinal) — a stable sort by cost — so after a rejection at ordinal p one
// row scan finds the least (cost, ordinal) strictly after (cost[p], p).
//
// Crucially — and this is the behaviour the paper criticizes — the baseline
// ignores net utility: it will happily schedule a transfer whose network cost
// exceeds the chunk's valuation, which is how its social welfare goes negative
// in Fig. 3.
#ifndef P2PCD_BASELINE_SIMPLE_LOCALITY_H
#define P2PCD_BASELINE_SIMPLE_LOCALITY_H

#include "baseline/knock_rounds.h"
#include "core/problem.h"

namespace p2pcd::baseline {

struct locality_options {
    // How many "next cheapest neighbor" retries a request gets. The paper's
    // "as much as possible" suggests unbounded; 3 keeps the protocol's
    // chattiness realistic and is swept in bench/solver_comparison.
    std::size_t max_rounds = 3;
};

class simple_locality_scheduler final : public core::scheduler {
public:
    explicit simple_locality_scheduler(locality_options options = {});

    [[nodiscard]] core::schedule solve(const core::problem_view& problem) override;
    [[nodiscard]] std::string_view name() const override { return "simple-locality"; }
    void shed_memory() override { rounds_.shed(); }
    [[nodiscard]] std::size_t workspace_bytes() const override {
        return rounds_.memory_bytes();
    }

private:
    locality_options options_;
    knock_rounds rounds_;  // persistent workspace (see core::scheduler contract)
};

}  // namespace p2pcd::baseline

#endif  // P2PCD_BASELINE_SIMPLE_LOCALITY_H
