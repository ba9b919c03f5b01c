// Synchronous (Gauss-Seidel) driver of the paper's distributed auctions.
//
// Bids are processed one at a time against up-to-date prices; this computes
// the same fixed point as the message-level runtime in src/vod (both satisfy
// ε-complementary slackness at termination) and is what the emulator uses for
// per-slot scheduling. Theorem 1's guarantees, as verified by the test suite:
//  * terminates for every instance under the ε policy;
//  * the schedule is primal feasible and the prices λ dual feasible;
//  * welfare ≥ optimal − (#assigned)·ε — exactly optimal on integer-valued
//    instances when ε < 1/(#requests).
//
// The solver is long-lived: auctioneer heaps, the bidding queue and the
// dense price cache persist across run()/solve() calls, so repeated solves
// on similarly-sized problems allocate ~nothing. Its workspace is per
// uploader and per queued request only: bids read v − w straight off the
// problem's cost slab, so nothing per candidate is copied. run() may also be
// warm-started from a previous round's prices (Sec. IV-C's slot price cycle),
// mirroring what vod::auction_runtime does with its `initial_prices`.
#ifndef P2PCD_CORE_AUCTION_H
#define P2PCD_CORE_AUCTION_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/auctioneer.h"
#include "core/bidder.h"
#include "core/problem.h"

namespace p2pcd::core {

struct auction_options {
    bidder_options bidding;
    // Safety valve; a correct ε-auction terminates long before this.
    std::uint64_t max_bid_iterations = 100'000'000;

    // ε-scaling (Bertsekas & Castañón 1989): run the auction in phases with
    // ε shrinking geometrically from `scaling_initial_epsilon` down to
    // bidding.epsilon, warm-starting each phase from the previous phase's
    // prices. Cuts total bids on contended instances. Caveat (documented in
    // EXPERIMENTS.md and quantified by bench/convergence_scaling): with
    // scarce supply, warm-started prices on spare capacity can strand
    // low-value requests, so the strict n·ε bound holds only for the
    // unscaled auction; scaling trades a little welfare for speed.
    bool epsilon_scaling = false;
    double scaling_initial_epsilon = 1.0;
    double scaling_factor = 4.0;
    // Adaptive round schedule (only with epsilon_scaling): derive the ladder
    // from the instance instead of `scaling_initial_epsilon` — supply-rich
    // instances (total capacity covers every request) run a single phase at
    // the target ε, contended ones start at max(v−w)/scaling_factor. The
    // phase count thus tracks the instance's contention, not a fixed knob.
    bool adaptive_scaling = false;
    // Record an auction_phase_snapshot at every phase boundary (prices as
    // the phase left them, before the inter-phase spare-capacity repair).
    // Off by default: the trace exists for the ε-CS property tests.
    bool record_phase_trace = false;

    // Dual recovery (η per request) is a full candidate sweep per solve.
    // Consumers that only read the schedule and λ (the emulator) turn it
    // off; `result.request_utility` comes back empty. Never changes the
    // schedule or the prices.
    bool compute_request_utilities = true;

    // Cross-slot solver reuse: when a solve is warm-started from prices of a
    // converged solve on a near-identical instance (the emulator's
    // warm_start_mode::slots), the warm prices already satisfy ε-CS almost
    // everywhere, so the coarse rungs of the ε ladder only re-derive what the
    // previous slot knew. With this flag the ladder collapses to the target ε
    // whenever warm prices are present and the previous run() converged —
    // including skipping the adaptive schedule's max(v−w) instance sweep.
    // Changes schedules (pinned by the warm-start slot goldens); no effect on
    // cold starts or single-phase (scaling-off) configurations.
    bool warm_start_early_exit = false;
};

// Phase-boundary state of an ε-scaling run, recorded when
// `record_phase_trace` is set: the ε the phase ran at, its final prices
// (pre-repair) and its schedule. Every snapshot must satisfy ε-complementary
// slackness at its own ε — the invariant tests/solver_equivalence_property
// pins for both the synchronous and the parallel auction.
struct auction_phase_snapshot {
    double epsilon = 0.0;
    std::vector<double> prices;
    std::vector<std::ptrdiff_t> choice;
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
    // ε phases the solve descended (1 unless ε-scaling engaged a ladder).
    std::uint64_t phases_run = 0;
    bool converged = false;
    // The ε ladder was collapsed to its target rung by warm_start_early_exit.
    bool early_exited = false;
    // One entry per ε phase, only when options.record_phase_trace is set.
    std::vector<auction_phase_snapshot> phase_trace;
};

// The ε ladder a solve descends: geometric from `initial` down to `target`
// (always ending exactly at `target`). With `adaptive` set, `initial` is
// replaced per instance: `target` itself when total capacity covers every
// request (one phase), otherwise max(v−w)/factor over the instance.
[[nodiscard]] std::vector<double> epsilon_schedule(const problem_view& problem,
                                                   double target, double initial,
                                                   double factor, bool scaling,
                                                   bool adaptive);

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

    // Cold start: all prices begin at 0.
    [[nodiscard]] auction_result run(const problem_view& problem);

    // Warm start: λ_u begins at initial_prices[u] (must cover every uploader;
    // empty = cold start). With ε-scaling enabled only the first phase is
    // warm-started. The emulator threads a slot's prices through its bidding
    // rounds this way when its warm_start option is on.
    [[nodiscard]] auction_result run(const problem_view& problem,
                                     std::span<const double> initial_prices);

    [[nodiscard]] schedule solve(const problem_view& problem) override;
    [[nodiscard]] std::string_view name() const override { return "auction"; }
    void shed_memory() override;
    [[nodiscard]] std::size_t workspace_bytes() const override;

    [[nodiscard]] const auction_options& options() const noexcept { return options_; }

private:
    void run_phase(const problem_view& problem, double epsilon,
                   std::vector<double>& prices, auction_result& result);

    auction_options options_;
    // Whether the previous run() reached ε-CS — the warm_start_early_exit
    // precondition (a warm start from a diverged solve must re-descend).
    bool last_run_converged_ = false;

    // --- persistent workspaces (cleared/resized per solve, never shrunk) ---
    std::vector<auctioneer> sellers_;
    // FIFO bidding queue as a grow-only vector with a read head: total pushes
    // per phase are bounded by initial requests + evictions + wake-ups.
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
    std::vector<std::int64_t> used_scratch_;  // ε-scaling inter-phase repair
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_AUCTION_H
