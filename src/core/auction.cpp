#include "core/auction.h"

#include <algorithm>

#include "common/contracts.h"

namespace p2pcd::core {

auction_solver::auction_solver(auction_options options) : options_(options) {
    expects(options.bidding.epsilon >= 0.0, "epsilon must be non-negative");
    expects(options.bidding.policy == bid_policy::paper_literal ||
                options.bidding.epsilon > 0.0,
            "the epsilon policy requires a positive epsilon");
    if (options.epsilon_scaling) {
        expects(options.bidding.policy == bid_policy::epsilon,
                "epsilon scaling requires the epsilon bid policy");
        expects(options.scaling_factor > 1.0, "scaling factor must exceed 1");
        expects(options.scaling_initial_epsilon >= options.bidding.epsilon,
                "initial epsilon must not be below the final epsilon");
    }
}

// One complete Gauss-Seidel auction at a fixed ε.
void auction_solver::run_phase(const problem_view& problem, double epsilon,
                               std::vector<double>& prices, auction_result& result) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();
    const auto uploaders = problem.all_uploaders();

    bidder_options bidding = options_.bidding;
    bidding.epsilon = epsilon;

    result.sched.choice.assign(nr, no_candidate);

    sellers_.resize(nu);
    price_cache_.resize(nu);
    for (std::size_t u = 0; u < nu; ++u) {
        sellers_[u].reset(uploaders[u].capacity, prices[u]);
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
        if (uploaders[u].capacity > 0) prices[u] = sellers_[u].price();
}

std::vector<double> epsilon_schedule(const problem_view& problem, double target,
                                     double initial, double factor, bool scaling,
                                     bool adaptive) {
    std::vector<double> schedule;
    if (scaling) {
        double eps = initial;
        if (adaptive) {
            // Supply-rich instances (every request could be served) converge
            // in ~one sweep; a coarse opening phase would only add passes.
            std::int64_t total_capacity = 0;
            for (const auto& u : problem.all_uploaders()) total_capacity += u.capacity;
            if (total_capacity >= static_cast<std::int64_t>(problem.num_requests())) {
                eps = target;
            } else {
                double max_net = 0.0;
                const auto requests = problem.all_requests();
                for (std::size_t r = 0; r < problem.num_requests(); ++r)
                    for (const auto& c : problem.candidates(r))
                        max_net = std::max(max_net, requests[r].valuation - c.cost);
                eps = std::max(target, max_net / factor);
            }
        }
        while (eps > target) {
            schedule.push_back(eps);
            eps /= factor;
        }
    }
    schedule.push_back(target);
    return schedule;
}

auction_result auction_solver::run(const problem_view& problem,
                                   std::span<const double> initial_prices) {
    auction_result result = descend(problem, initial_prices);
    if (options_.compute_request_utilities)
        result.request_utility = derive_request_utilities(problem, result.prices);
    return result;
}

schedule auction_solver::solve(const problem_view& problem) {
    return descend(problem, {}).sched;
}

auction_result auction_solver::descend(const problem_view& problem,
                                       std::span<const double> initial_prices) {
    const std::size_t nu = problem.num_uploaders();
    const std::size_t nr = problem.num_requests();
    expects(initial_prices.empty() || initial_prices.size() == nu,
            "initial price vector must cover every uploader");

    // The ε schedule: a single phase normally; a geometric descent from the
    // initial ε down to the target when scaling is on. A warm start from a
    // converged solve may collapse the ladder to the target rung outright —
    // decided before epsilon_schedule so the adaptive max(v−w) instance
    // sweep is skipped along with the coarse phases.
    const bool early_exit = options_.warm_start_early_exit && options_.epsilon_scaling &&
                            !initial_prices.empty() && last_run_converged_;
    const std::vector<double> schedule =
        early_exit ? std::vector<double>{options_.bidding.epsilon}
                   : epsilon_schedule(problem, options_.bidding.epsilon,
                                      options_.scaling_initial_epsilon,
                                      options_.scaling_factor, options_.epsilon_scaling,
                                      options_.adaptive_scaling);

    const std::uint32_t* offsets = problem.offsets().data();
    const std::uint32_t* cand_up = problem.cand_uploaders().data();
    auction_result result;
    std::vector<double> prices(nu, 0.0);
    if (!initial_prices.empty())
        std::copy(initial_prices.begin(), initial_prices.end(), prices.begin());
    for (std::size_t k = 0; k < schedule.size(); ++k) {
        // Counters accumulate across phases; the schedule of the last phase
        // is the answer.
        run_phase(problem, schedule[k], prices, result);
        ++result.phases_run;
        if (options_.record_phase_trace)
            result.phase_trace.push_back({schedule[k], prices, result.sched.choice});

        // Between phases, repair complementary slackness condition 1: a
        // seller that ended the phase with spare capacity cannot honestly
        // quote a positive price, so its carried-over price falls back to 0.
        // Without this, coarse-phase prices strand cheap capacity for good.
        if (k + 1 < schedule.size()) {
            used_scratch_.assign(nu, 0);
            for (std::size_t r = 0; r < nr; ++r) {
                std::ptrdiff_t c = result.sched.choice[r];
                if (c != no_candidate)
                    ++used_scratch_[cand_up[offsets[r] + static_cast<std::size_t>(c)]];
            }
            for (std::size_t u = 0; u < nu; ++u)
                if (used_scratch_[u] < problem.uploader(u).capacity) prices[u] = 0.0;
        }
    }

    result.prices = std::move(prices);
    result.early_exited = early_exit;
    last_run_converged_ = result.converged;
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
    std::vector<std::int64_t>().swap(used_scratch_);
}

std::size_t auction_solver::workspace_bytes() const {
    std::size_t bytes = sellers_.capacity() * sizeof(auctioneer) +
                        queue_.capacity() * sizeof(std::size_t) +
                        parked_.capacity() * sizeof(parked_entry) +
                        price_cache_.capacity() * sizeof(double) +
                        used_scratch_.capacity() * sizeof(std::int64_t);
    for (const auto& s : sellers_) bytes += s.heap_bytes();
    return bytes;
}

}  // namespace p2pcd::core
