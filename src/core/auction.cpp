#include "core/auction.h"

#include "common/contracts.h"

namespace p2pcd::core {

auction_solver::auction_solver(auction_options options) : options_(options) {
    expects(options.bidding.epsilon >= 0.0, "epsilon must be non-negative");
    expects(options.bidding.policy == bid_policy::paper_literal ||
                options.bidding.epsilon > 0.0,
            "the epsilon policy requires a positive epsilon");
}

auction_result auction_solver::run(const problem_view& problem) {
    auction_result result = run_auction(problem);
    if (options_.compute_request_utilities)
        result.request_utility = derive_request_utilities(problem, result.prices);
    return result;
}

schedule auction_solver::solve(const problem_view& problem) {
    return run_auction(problem).sched;
}

// One complete Gauss-Seidel auction at a fixed ε, from all-zero prices.
auction_result auction_solver::run_auction(const problem_view& problem) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();
    const auto uploaders = problem.all_uploaders();

    // λ starts at 0 everywhere; zero-capacity uploaders keep it
    // (derive_request_utilities lifts them when duals are wanted).
    auction_result result;
    result.prices.assign(nu, 0.0);
    result.sched.choice.assign(nr, no_candidate);

    sellers_.resize(nu);
    price_cache_.resize(nu);
    for (std::size_t u = 0; u < nu; ++u) {
        sellers_[u].reset(uploaders[u].capacity);
        price_cache_[u] = sellers_[u].price();  // +inf for zero capacity
    }

    // Requests 0..nr-1 are implicitly queued first (the fresh sweep); the
    // explicit queue only carries evicted losers and woken parked bidders,
    // which FIFO-follow the sweep exactly as if everything had been pushed.
    queue_.clear();
    std::size_t queue_head = 0;
    std::size_t next_fresh = 0;
    parked_.clear();
    std::uint64_t price_version = 0;

    std::uint64_t iterations = 0;

    // Raw CSR arrays for the hot loop — no per-iteration bounds checks. The
    // uploader indices and costs come straight from the problem's SoA slabs:
    // each margin is evaluated as (v − w) − λ, the same expression (and so
    // the same doubles) as derive_request_utilities.
    const std::uint32_t* offsets = problem.offsets().data();
    const std::uint32_t* uploader_of = problem.cand_uploaders().data();
    const double* cand_costs = problem.cand_costs().data();
    const request_info* all_requests = problem.all_requests().data();
    const double* price_cache = price_cache_.data();
    // A local copy: the loop's price_cache_ stores could alias the member.
    const bidder_options bidding = options_.bidding;

    while (true) {
        std::size_t r;
        if (next_fresh < nr) {
            r = next_fresh++;
        } else {
            if (queue_head == queue_.size()) {
                // Wake parked bidders that have seen a price change.
                std::size_t kept = 0;
                for (const auto& p : parked_) {
                    if (p.price_version < price_version) queue_.push_back(p.request);
                    else parked_[kept++] = p;
                }
                parked_.resize(kept);
                if (queue_head == queue_.size()) break;  // converged: no more bids
            }
            r = queue_[queue_head++];
        }
        ensures(iterations < options_.max_bid_iterations,
                "auction exceeded its bid-iteration budget");
        ++iterations;
        const std::size_t base = offsets[r];
        const std::size_t n_cands = offsets[r + 1] - base;
        if (n_cands == 0) {
            ++result.abstentions;
            continue;
        }

        const std::uint32_t* cand_uploader = uploader_of + base;
        const double* cost = cand_costs + base;
        const double v = all_requests[r].valuation;
        bid_decision decision = compute_bid_with(
            n_cands, [&](std::size_t i) { return v - cost[i]; },
            [&](std::size_t i) { return price_cache[cand_uploader[i]]; }, bidding);

        switch (decision.action) {
            case bid_action::abstain:
                // Prices only rise, so a negative best margin is permanent.
                ++result.abstentions;
                break;
            case bid_action::park:
                parked_.push_back({r, price_version});
                break;
            case bid_action::submit: {
                ++result.bids_submitted;
                std::size_t u = cand_uploader[decision.candidate];
                auto outcome = sellers_[u].offer(r, decision.amount);
                // Against current prices a submitted bid always clears λ_u.
                ensures(outcome.accepted, "synchronous bid must be accepted");
                result.sched.choice[r] = static_cast<std::ptrdiff_t>(decision.candidate);
                if (outcome.evicted) {
                    ++result.evictions;
                    std::size_t loser = *outcome.evicted;
                    result.sched.choice[loser] = no_candidate;
                    queue_.push_back(loser);
                }
                if (outcome.price_changed) {
                    price_cache_[u] = sellers_[u].price();
                    ++price_version;
                }
                break;
            }
        }
    }

    result.converged = true;
    result.parked_at_termination = parked_.size();

    for (std::size_t u = 0; u < nu; ++u)
        if (uploaders[u].capacity > 0) result.prices[u] = sellers_[u].price();
    return result;
}

std::vector<double> derive_request_utilities(const problem_view& problem,
                                             std::vector<double>& prices) {
    expects(prices.size() == problem.num_uploaders(),
            "price vector must cover every uploader");
    const std::size_t nu = problem.num_uploaders();
    const std::size_t nr = problem.num_requests();
    const std::uint32_t* offsets = problem.offsets().data();
    const std::uint32_t* cand_up = problem.cand_uploaders().data();
    const double* cand_costs = problem.cand_costs().data();
    const auto requests = problem.all_requests();
    const auto uploaders = problem.all_uploaders();

    // Zero-capacity uploaders never sell; their dual price is free in the
    // objective (B(u)·λ_u = 0), so lift it just enough for dual feasibility.
    // Every other margin is (v − w) − λ, the auctions' own bid expression.
    std::vector<double> zero_cap_price(nu, 0.0);
    std::vector<double> utilities(nr, 0.0);
    for (std::size_t r = 0; r < nr; ++r) {
        const double v = requests[r].valuation;
        double best = 0.0;
        for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
            const std::uint32_t u = cand_up[k];
            double margin = v - cand_costs[k];
            if (uploaders[u].capacity == 0) {
                if (margin > zero_cap_price[u]) zero_cap_price[u] = margin;
                continue;
            }
            margin -= prices[u];
            if (margin > best) best = margin;
        }
        utilities[r] = best;
    }
    for (std::size_t u = 0; u < nu; ++u)
        if (uploaders[u].capacity == 0) prices[u] = zero_cap_price[u];
    return utilities;
}

void auction_solver::shed_memory() {
    std::vector<auctioneer>().swap(sellers_);
    std::vector<std::size_t>().swap(queue_);
    std::vector<parked_entry>().swap(parked_);
    std::vector<double>().swap(price_cache_);
}

std::size_t auction_solver::workspace_bytes() const {
    std::size_t bytes = sellers_.capacity() * sizeof(auctioneer) +
                        queue_.capacity() * sizeof(std::size_t) +
                        parked_.capacity() * sizeof(parked_entry) +
                        price_cache_.capacity() * sizeof(double);
    for (const auto& s : sellers_) bytes += s.heap_bytes();
    return bytes;
}

}  // namespace p2pcd::core
