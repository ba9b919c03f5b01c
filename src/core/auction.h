// The paper's auction (Sec. IV-B/IV-C) as a synchronous (Gauss-Seidel)
// solver: one cold auction at a fixed ε — every price starts at 0 — with
// bids processed one at a time against up-to-date prices, then dual
// recovery.
//
// It computes the same fixed point as the message-level runtime in src/vod
// (both satisfy ε-complementary slackness at termination) and is what the
// emulator uses for per-slot scheduling by default.
// Theorem 1's guarantees, as verified by the test suite:
//  * terminates for every instance under the ε policy;
//  * the schedule is primal feasible and the prices λ dual feasible;
//  * welfare ≥ optimal − (#assigned)·ε — exactly optimal on integer-valued
//    instances when ε < 1/(#requests).
// The bound is the cold single-ε auction's: prices carried in from another
// round, or an ε-scaling ladder, would void it, so the solver has neither.
//
// The solver is long-lived: workspaces persist across run()/solve() calls,
// so repeated solves on similarly-sized problems allocate ~nothing. The
// workspace is per uploader and per queued request only: bids read v − w
// straight off the problem's cost slab, so nothing per candidate is copied.
#ifndef P2PCD_CORE_AUCTION_H
#define P2PCD_CORE_AUCTION_H

#include <cstdint>
#include <vector>

#include "core/auctioneer.h"
#include "core/bidder.h"
#include "core/problem.h"

namespace p2pcd::core {

struct auction_options {
    bidder_options bidding;
    // Safety valve; a correct ε-auction terminates long before this.
    std::uint64_t max_bid_iterations = 100'000'000;

    // Dual recovery (η per request) is a full candidate sweep per run().
    // Consumers that only read the schedule and λ (the emulator) turn it
    // off; `result.request_utility` comes back empty and zero-capacity
    // uploaders keep their unlifted prices. Never changes the schedule;
    // solve() skips it regardless.
    bool compute_request_utilities = true;
};

struct auction_result {
    schedule sched;
    // Final dual variables: λ per uploader, η per request (η is derived via
    // the paper's closed form η = max(0, max_u v − w − λ_u)).
    std::vector<double> prices;
    std::vector<double> request_utility;
    // Diagnostics.
    std::uint64_t bids_submitted = 0;
    std::uint64_t evictions = 0;
    std::uint64_t abstentions = 0;
    std::uint64_t parked_at_termination = 0;
    bool converged = false;
};

// Completes a set of final bandwidth prices into a full dual solution:
//  * `prices` must hold λ for every positive-capacity uploader; entries for
//    zero-capacity uploaders are overwritten with the cheapest dual-feasible
//    lift (their B(u)·λ_u term is free in the dual objective);
//  * returns η per request via the paper's closed form
//    η_d = max(0, max_u v − w_u − λ_u).
[[nodiscard]] std::vector<double> derive_request_utilities(
    const problem_view& problem, std::vector<double>& prices);

class auction_solver final : public scheduler {
public:
    explicit auction_solver(auction_options options = {});

    // One cold auction: every λ_u starts at 0. η is recovered only when
    // compute_request_utilities is set.
    [[nodiscard]] auction_result run(const problem_view& problem);

    // The schedule of run(); never recovers duals.
    [[nodiscard]] schedule solve(const problem_view& problem) override;
    [[nodiscard]] std::string_view name() const override { return "auction"; }
    void shed_memory() override;
    [[nodiscard]] std::size_t workspace_bytes() const override;

    [[nodiscard]] const auction_options& options() const noexcept { return options_; }

private:
    // The auction itself; run() adds dual recovery on top.
    [[nodiscard]] auction_result run_auction(const problem_view& problem);

    auction_options options_;

    // --- persistent workspaces (cleared/resized per solve, never shrunk) ---
    std::vector<auctioneer> sellers_;
    // FIFO bidding queue as a grow-only vector with a read head: total pushes
    // per solve are bounded by initial requests + evictions + wake-ups.
    std::vector<std::size_t> queue_;
    struct parked_entry {
        std::size_t request;
        std::uint64_t price_version;
    };
    std::vector<parked_entry> parked_;
    // λ per uploader, mirrored out of the auctioneers into one dense array
    // (+inf for zero capacity): the per-bid gather reads this, not the
    // auctioneer objects.
    std::vector<double> price_cache_;
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_AUCTION_H
