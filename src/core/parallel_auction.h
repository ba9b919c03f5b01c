// Parallel (Jacobi) driver of the paper's distributed auctions.
//
// Where the synchronous solver (core/auction.h) processes one bid at a time
// against up-to-date prices, this solver runs *bidding rounds*: every
// unassigned request computes its bid against a snapshot of the bandwidth
// prices, then the bids are merged uploader by uploader. Both halves
// parallelize on an engine::thread_pool —
//  * bid phase: the active requests are split into blocks; each block sweeps
//    its rows of the flat CSR candidate slab, computing v − w − λ margins on
//    the fly (on a cold round the sweep is pure contiguous arithmetic — no
//    price gather at all) and writes its decisions positionally;
//  * merge phase: bids are binned by uploader in request order (a serial
//    counting sort, so the per-uploader bid order is canonical), then the
//    touched uploaders are processed concurrently — each auctioneer's heap,
//    price cell and loser slots are owned by exactly one item, so the merge
//    is race-free by construction.
// Losers (rejected or evicted) re-bid next round against the new prices.
// That is one fixed-ε phase; the ε ladder around it, warm starts and dual
// recovery are core::auction_ladder's (core/auction.h), shared with the
// synchronous solver.
//
// Determinism contract: the schedule, the final prices and every counter are
// a pure function of the problem and the options — NEVER of num_threads.
// Block boundaries only decide which worker computes an item; every item's
// arithmetic and every merge order is fixed in request/uploader order. The
// slot-golden and fleet-determinism suites pin this at threads 1/2/4/16.
//
// The fixed point differs from Gauss-Seidel (bids race within a round), so
// "auction-par" carries its own golden hashes; it satisfies the same
// ε-complementary-slackness invariant at every phase boundary and the same
// welfare ≥ optimal − (#assigned)·ε bound (pinned by the property suite).
#ifndef P2PCD_CORE_PARALLEL_AUCTION_H
#define P2PCD_CORE_PARALLEL_AUCTION_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/auction.h"
#include "core/bidder.h"
#include "core/problem.h"

namespace p2pcd::engine {
class thread_pool;
}

namespace p2pcd::core {

struct parallel_auction_options {
    bidder_options bidding{bid_policy::epsilon, 1e-3};  // ε policy required
    std::uint64_t max_bid_iterations = 100'000'000;

    // ε-scaling ladder (see auction_options; both solvers descend it through
    // core::auction_ladder); adaptive by default — the solver derives its
    // round schedule from the instance's contention.
    bool epsilon_scaling = true;
    bool adaptive_scaling = true;
    double scaling_initial_epsilon = 1.0;
    double scaling_factor = 4.0;
    bool record_phase_trace = false;
    // Same contracts as the synchronous solver (core/auction.h): dual
    // recovery is skippable by schedule-only consumers, and a warm start from
    // a converged solve may collapse the ε ladder to its target rung
    // (warm-start slot goldens pin the resulting schedules).
    bool compute_request_utilities = true;
    bool warm_start_early_exit = false;

    // Worker threads for the bid/merge phases. 1 runs everything inline on
    // the calling thread (no pool); 0 resolves to the hardware count. The
    // result is bit-identical for every value.
    std::size_t num_threads = 1;
    // Fewest items worth splitting into parallel blocks; below this a phase
    // runs inline even when a pool exists.
    std::size_t grain = 2048;
};

class parallel_auction_solver final : public auction_ladder {
public:
    explicit parallel_auction_solver(parallel_auction_options options = {});
    ~parallel_auction_solver() override;

    [[nodiscard]] std::string_view name() const override { return "auction-par"; }
    void shed_memory() override;
    [[nodiscard]] std::size_t workspace_bytes() const override;

    [[nodiscard]] const parallel_auction_options& options() const noexcept {
        return options_;
    }
    // Actual worker count (1 when running inline).
    [[nodiscard]] std::size_t threads() const noexcept;

private:
    // One bid-phase decision, positional by active-list index; candidate ==
    // `abstained` marks a request that drops out. The uploader rides along so
    // the binning pass never gathers it back out of the candidate array, and
    // the whole slot is 16 bytes so that pass streams half the traffic a
    // padded layout would.
    struct bid_slot {
        std::uint32_t candidate = 0;  // flat CSR candidate index, or abstained
        std::uint32_t uploader = 0;
        double amount = 0.0;
    };
    static constexpr std::uint32_t abstained = 0xffffffffu;

    // Starts the pool on first use and lays out the seller slab.
    void begin_solve(const problem_view& problem) override;
    void run_phase(const problem_view& problem, double epsilon,
                   std::vector<double>& prices, auction_result& result) override;
    // Runs fn(begin, end) over [0, count) — inline, or as pool blocks of at
    // least `grain` items. Which worker runs which block is unobservable.
    void for_blocks(std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

    parallel_auction_options options_;
    std::unique_ptr<engine::thread_pool> pool_;

    // --- persistent workspaces (cleared/resized per solve, never shrunk) ---
    // Seller state lives in one flat slab instead of per-uploader auctioneer
    // objects: uploader u's assignment set is the min-heap (same std::*_heap
    // calls and (amount, seq) comparator as core/auctioneer.h, so outcomes —
    // including FIFO eviction tie-breaks — are bit-identical) occupying
    // heap_slab_[slab_off_[u] .. slab_off_[u] + sell_size_[u]). Contiguity
    // replaces 20k+ scattered heap vectors with one streamed allocation.
    struct slab_entry {
        double amount = 0.0;
        std::uint32_t seq = 0;  // FIFO tie-break: equal bids evict oldest first
        std::uint32_t request = 0;
    };
    std::vector<slab_entry> heap_slab_;
    // Everything the merge needs about a seller in one 16-byte cell: the
    // settle loop visits ~every uploader in random order, so one cache line
    // pull per seller instead of four parallel-array gathers.
    struct seller_meta {
        std::uint32_t slab_off = 0;  // start of this seller's heap in the slab
        std::uint32_t size = 0;
        std::uint32_t seq = 0;
        std::uint32_t capacity = 0;
    };
    std::vector<seller_meta> sellers_;
    std::vector<double> price_cache_;  // λ per uploader (+inf for zero cap)
    std::vector<std::uint32_t> active_;       // unassigned requests, ascending
    std::vector<std::uint32_t> next_active_;  // next round's losers
    std::vector<bid_slot> decisions_;         // by active position
    // Merge bins: one contiguous segment of bids per touched uploader, and a
    // parallel segment of the requests each uploader turned away.
    struct bin_entry {
        std::uint32_t request = 0;
        std::uint32_t candidate = 0;  // flat CSR candidate index
        double amount = 0.0;
    };
    std::vector<bin_entry> bins_;
    std::vector<std::uint32_t> losers_;
    std::vector<std::uint32_t> touched_;     // uploaders with bids this round
    std::vector<std::uint32_t> bid_count_;   // per uploader, reset per round
    std::vector<std::size_t> bin_start_;     // per touched ordinal
    std::vector<std::size_t> bin_fill_;      // per touched ordinal
    std::vector<std::uint32_t> loser_count_; // per touched ordinal
    std::vector<std::uint64_t> evict_count_; // per touched ordinal
    std::vector<std::uint32_t> touched_of_uploader_;  // uploader -> ordinal
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_PARALLEL_AUCTION_H
