#include "core/parallel_auction.h"

#include <algorithm>
#include <limits>

#include "common/contracts.h"
#include "engine/thread_pool.h"

namespace p2pcd::core {

namespace {

// The ladder's view of the options: the fields auction_options shares.
auction_options ladder_of(const parallel_auction_options& o) {
    return {.bidding = o.bidding,
            .max_bid_iterations = o.max_bid_iterations,
            .epsilon_scaling = o.epsilon_scaling,
            .scaling_initial_epsilon = o.scaling_initial_epsilon,
            .scaling_factor = o.scaling_factor,
            .adaptive_scaling = o.adaptive_scaling,
            .record_phase_trace = o.record_phase_trace,
            .compute_request_utilities = o.compute_request_utilities,
            .warm_start_early_exit = o.warm_start_early_exit};
}

}  // namespace

parallel_auction_solver::parallel_auction_solver(parallel_auction_options options)
    : auction_ladder(ladder_of(options)), options_(options) {
    expects(options.bidding.policy == bid_policy::epsilon,
            "the parallel auction requires the epsilon bid policy: Jacobi "
            "rounds have no park/wake machinery");
    expects(options.grain > 0, "grain must be positive");
}

parallel_auction_solver::~parallel_auction_solver() = default;

std::size_t parallel_auction_solver::threads() const noexcept {
    if (pool_) return pool_->size();
    return options_.num_threads == 0 ? engine::thread_pool::default_thread_count()
                                     : options_.num_threads;
}

void parallel_auction_solver::for_blocks(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
    if (count == 0) return;
    if (!pool_ || count <= grain) {
        fn(0, count);
        return;
    }
    // A few blocks per worker lets the pool's shared cursor balance uneven
    // block costs; block boundaries depend only on (count, nblocks), and
    // nblocks only on the configured thread count — but nothing observable
    // depends on either (each item owns its outputs positionally).
    const std::size_t max_blocks = (count + grain - 1) / grain;
    const std::size_t nblocks = std::min(pool_->size() * 4, max_blocks);
    pool_->parallel_for_each(nblocks, [&](std::size_t b) {
        const std::size_t begin = count * b / nblocks;
        const std::size_t end = count * (b + 1) / nblocks;
        if (begin != end) fn(begin, end);
    });
}

// Lays out the seller slab: uploader u's assignment set lives at
// heap_slab_[slab_off .. slab_off + capacity) — capacities are invariant
// across the ε ladder, so the layout is computed once per solve.
void parallel_auction_solver::begin_solve(const problem_view& problem) {
    if (!pool_ && threads() > 1)
        pool_ = std::make_unique<engine::thread_pool>(threads());

    const std::size_t nu = problem.num_uploaders();
    const auto uploaders = problem.all_uploaders();
    sellers_.resize(nu);
    price_cache_.resize(nu);
    std::size_t slab_total = 0;
    for (std::size_t u = 0; u < nu; ++u) {
        const auto cap = static_cast<std::uint32_t>(uploaders[u].capacity);
        sellers_[u] = {static_cast<std::uint32_t>(slab_total), 0, 0, cap};
        slab_total += cap;
    }
    expects(slab_total <= 0xffffffffu, "seller slab exceeds 32-bit offsets");
    heap_slab_.resize(slab_total);
}

// One complete Jacobi auction at a fixed ε. Each round: every active
// (unassigned) request bids against the round-start price snapshot, the bids
// are binned per uploader in request order, every touched uploader settles
// its bin, and the round's losers — rejected bidders plus evicted previous
// holders — become the next round's active set, in ascending request order.
// Every step is a pure function of the problem and the previous round's
// state, never of thread scheduling, so the fixed point is bit-identical at
// any thread count.
void parallel_auction_solver::run_phase(const problem_view& problem, double eps,
                                        std::vector<double>& prices,
                                        auction_result& result) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();

    result.sched.choice.assign(nr, no_candidate);

    // Re-arm the seller slab (laid out by begin_solve): empty assignment sets,
    // prices seeded from the previous phase / warm start. A zero-capacity
    // seller advertises +inf so no finite bid ever targets it.
    // On a cold phase every gatherable price is 0, so round 1's margins are
    // the net values themselves: the bid sweep is pure contiguous arithmetic
    // over the candidate slab, with no price gather at all. (A zero-capacity
    // uploader's +inf sentinel breaks that equivalence, so it disables the
    // fast path.)
    constexpr double inf = std::numeric_limits<double>::infinity();
    bool cold = true;
    for (std::size_t u = 0; u < nu; ++u) {
        sellers_[u].size = 0;
        sellers_[u].seq = 0;
        price_cache_[u] = sellers_[u].capacity == 0 ? inf : prices[u];
        cold = cold && price_cache_[u] == 0.0;
    }

    active_.resize(nr);
    for (std::size_t r = 0; r < nr; ++r) active_[r] = static_cast<std::uint32_t>(r);
    bid_count_.assign(nu, 0);
    touched_of_uploader_.resize(nu);  // only touched entries are ever read

    const std::uint32_t* offsets = problem.offsets().data();
    const std::uint32_t* cand_up = problem.cand_uploaders().data();
    const double* cand_costs = problem.cand_costs().data();
    const request_info* requests = problem.all_requests().data();
    double* price_cache = price_cache_.data();

    std::uint64_t iterations = 0;
    while (!active_.empty()) {
        ensures(iterations < options_.max_bid_iterations,
                "auction exceeded its bid-iteration budget");
        const std::size_t n_active = active_.size();
        iterations += n_active;
        decisions_.resize(n_active);
        const std::uint32_t* act = active_.data();
        bid_slot* dec = decisions_.data();

        // --- bid phase: snapshot prices, positional writes only. The margin
        // tracking replicates compute_bid_with (core/bidder.h) expression for
        // expression — same association, same strict-> tie-breaks, same
        // outside-option clamp — fused over each row's slab of candidate_info
        // so cost and uploader arrive on one cache line, instead of calling
        // the generic kernel per candidate row. The decisions (and hence the
        // golden hashes) are bit-identical to the kernel's.
        const bool cold_round = cold;
        for_blocks(n_active, options_.grain, [&](std::size_t lo, std::size_t hi) {
            constexpr double neg_inf = -std::numeric_limits<double>::infinity();
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t r = act[i];
                const std::size_t base = offsets[r];
                const std::size_t end = offsets[r + 1];
                double best = neg_inf;
                double second = neg_inf;
                std::size_t best_k = SIZE_MAX;
                if (end != base) {
                    const double v = requests[r].valuation;
                    if (cold_round) {
                        for (std::size_t k = base; k < end; ++k) {
                            const double margin = v - cand_costs[k];
                            if (margin > best) {
                                second = best;
                                best = margin;
                                best_k = k;
                            } else if (margin > second) {
                                second = margin;
                            }
                        }
                    } else {
                        for (std::size_t k = base; k < end; ++k) {
                            const double margin =
                                v - cand_costs[k] - price_cache[cand_up[k]];
                            if (margin > best) {
                                second = best;
                                best = margin;
                                best_k = k;
                            } else if (margin > second) {
                                second = margin;
                            }
                        }
                    }
                }
                // The outside option (stay unserved, utility 0) caps how
                // much of the margin the bidder gives up.
                if (second < 0.0) second = 0.0;
                if (best_k != SIZE_MAX && best >= 0.0) {
                    const std::uint32_t u = cand_up[best_k];
                    const double increment = best - second;
                    dec[i] = {static_cast<std::uint32_t>(best_k), u,
                              cold_round ? 0.0 + increment + eps
                                         : price_cache[u] + increment + eps};
                } else {
                    dec[i].candidate = abstained;
                }
            }
        });
        cold = false;

        // --- bin bids per uploader, in request order (serial counting sort:
        // this fixes the canonical per-uploader processing order) ---
        touched_.clear();
        std::size_t total_bids = 0;
        for (std::size_t i = 0; i < n_active; ++i) {
            if (dec[i].candidate == abstained) {
                // Prices only rise, so a negative best margin is permanent:
                // the abstainer drops out for the rest of the phase.
                ++result.abstentions;
                continue;
            }
            const std::uint32_t u = dec[i].uploader;
            if (bid_count_[u]++ == 0) {
                touched_of_uploader_[u] = static_cast<std::uint32_t>(touched_.size());
                touched_.push_back(u);
            }
            ++total_bids;
        }
        result.bids_submitted += total_bids;
        if (total_bids == 0) break;  // everyone abstained: phase converged

        const std::size_t nt = touched_.size();
        bin_start_.resize(nt + 1);  // +1: the merge reads per-bin counts as
                                    // bin_start_[t+1] − bin_start_[t]
        bin_fill_.resize(nt);
        loser_count_.resize(nt);
        evict_count_.resize(nt);
        std::size_t cum = 0;
        for (std::size_t t = 0; t < nt; ++t) {
            bin_start_[t] = cum;
            bin_fill_[t] = cum;
            cum += bid_count_[touched_[t]];
        }
        bin_start_[nt] = cum;
        bins_.resize(total_bids);
        losers_.resize(total_bids);  // ≤ one loser per bid (rejected XOR evicts)
        for (std::size_t i = 0; i < n_active; ++i) {
            if (dec[i].candidate == abstained) continue;
            bins_[bin_fill_[touched_of_uploader_[dec[i].uploader]]++] = {
                act[i], dec[i].candidate, dec[i].amount};
        }

        // --- merge phase: touched uploaders settle concurrently. Worker t
        // owns seller touched_[t], its price cell, its loser segment, and the
        // choice slots of every request appearing in its bin (each active
        // request bid exactly one uploader; an evicted holder was assigned
        // here and nowhere else) — so the writes partition by construction.
        std::ptrdiff_t* choice = result.sched.choice.data();
        slab_entry* slab = heap_slab_.data();
        // Min-heap order, exactly core/auctioneer.h's greater_entry: top()
        // is the lowest (amount, seq) — the eviction victim / price setter.
        const auto cmp = [](const slab_entry& a, const slab_entry& b) noexcept {
            if (a.amount != b.amount) return a.amount > b.amount;
            return a.seq > b.seq;
        };
        for_blocks(nt, /*grain=*/16, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
                const std::uint32_t u = touched_[t];
                seller_meta meta = sellers_[u];
                slab_entry* heap = slab + meta.slab_off;
                std::uint32_t size = meta.size;
                std::uint32_t seq = meta.seq;
                const std::uint32_t cap = meta.capacity;
                double lambda = price_cache[u];
                const std::size_t start = bin_start_[t];
                const std::size_t count = bin_start_[t + 1] - start;
                std::uint32_t nlos = 0;
                std::uint64_t nevict = 0;
                std::size_t clearing = 0;
                for (std::size_t k = start; k < start + count; ++k)
                    clearing += bins_[k].amount > lambda;
                if (clearing == count && size + count <= cap) {
                    // Bulk path: everything fits and clears λ_u — identical
                    // outcome to sequential offers, one heapify at the end.
                    for (std::size_t k = start; k < start + count; ++k) {
                        heap[size++] = {bins_[k].amount, seq++, bins_[k].request};
                        choice[bins_[k].request] = static_cast<std::ptrdiff_t>(
                            bins_[k].candidate - offsets[bins_[k].request]);
                    }
                    std::make_heap(heap, heap + size, cmp);
                    if (size == cap) {
                        const double np = heap[0].amount;
                        ensures(np >= lambda, "bandwidth price must be "
                                              "non-decreasing during an auction");
                        lambda = np;
                    }
                } else {
                    for (std::size_t k = start; k < start + count; ++k) {
                        const std::uint32_t r = bins_[k].request;
                        // "if b(d,c,u) <= λ_u, reject"
                        if (bins_[k].amount <= lambda) {
                            losers_[start + nlos++] = r;
                            continue;
                        }
                        if (size == cap) {
                            // Evict the lowest bid to make room.
                            std::pop_heap(heap, heap + size, cmp);
                            const std::uint32_t l = heap[--size].request;
                            ++nevict;
                            choice[l] = no_candidate;
                            losers_[start + nlos++] = l;
                        }
                        heap[size++] = {bins_[k].amount, seq++, r};
                        std::push_heap(heap, heap + size, cmp);
                        choice[r] = static_cast<std::ptrdiff_t>(bins_[k].candidate -
                                                                offsets[r]);
                        if (size == cap) {
                            // "update λ_u to the smallest bid among all
                            // requests in A"
                            const double np = heap[0].amount;
                            ensures(np >= lambda, "bandwidth price must be "
                                                  "non-decreasing during an auction");
                            lambda = np;
                        }
                    }
                }
                sellers_[u].size = size;
                sellers_[u].seq = seq;
                price_cache[u] = lambda;
                loser_count_[t] = nlos;
                evict_count_[t] = nevict;
            }
        });

        // --- losers re-bid next round, in ascending request order ---
        next_active_.clear();
        for (std::size_t t = 0; t < nt; ++t) {
            result.evictions += evict_count_[t];
            for (std::uint32_t k = 0; k < loser_count_[t]; ++k)
                next_active_.push_back(losers_[bin_start_[t] + k]);
            bid_count_[touched_[t]] = 0;  // re-zero only what this round used
        }
        std::sort(next_active_.begin(), next_active_.end());
        active_.swap(next_active_);
    }

    result.converged = true;
    for (std::size_t u = 0; u < nu; ++u)
        if (sellers_[u].capacity > 0) prices[u] = price_cache_[u];
}

void parallel_auction_solver::shed_memory() {
    auction_ladder::shed_memory();
    std::vector<slab_entry>().swap(heap_slab_);
    std::vector<seller_meta>().swap(sellers_);
    std::vector<double>().swap(price_cache_);
    std::vector<std::uint32_t>().swap(active_);
    std::vector<std::uint32_t>().swap(next_active_);
    std::vector<bid_slot>().swap(decisions_);
    std::vector<bin_entry>().swap(bins_);
    std::vector<std::uint32_t>().swap(losers_);
    std::vector<std::uint32_t>().swap(touched_);
    std::vector<std::uint32_t>().swap(bid_count_);
    std::vector<std::size_t>().swap(bin_start_);
    std::vector<std::size_t>().swap(bin_fill_);
    std::vector<std::uint32_t>().swap(loser_count_);
    std::vector<std::uint64_t>().swap(evict_count_);
    std::vector<std::uint32_t>().swap(touched_of_uploader_);
}

std::size_t parallel_auction_solver::workspace_bytes() const {
    return auction_ladder::workspace_bytes() +
           heap_slab_.capacity() * sizeof(slab_entry) +
           sellers_.capacity() * sizeof(seller_meta) +
           price_cache_.capacity() * sizeof(double) +
           active_.capacity() * sizeof(std::uint32_t) +
           next_active_.capacity() * sizeof(std::uint32_t) +
           decisions_.capacity() * sizeof(bid_slot) +
           bins_.capacity() * sizeof(bin_entry) +
           losers_.capacity() * sizeof(std::uint32_t) +
           touched_.capacity() * sizeof(std::uint32_t) +
           bid_count_.capacity() * sizeof(std::uint32_t) +
           bin_start_.capacity() * sizeof(std::size_t) +
           bin_fill_.capacity() * sizeof(std::size_t) +
           loser_count_.capacity() * sizeof(std::uint32_t) +
           evict_count_.capacity() * sizeof(std::uint64_t) +
           touched_of_uploader_.capacity() * sizeof(std::uint32_t);
}

}  // namespace p2pcd::core
