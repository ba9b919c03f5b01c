#include "core/auction.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/contracts.h"
#include "core/exact.h"
#include "core/welfare.h"
#include "opt/duality.h"
#include "workload/instance_gen.h"

namespace p2pcd::core {
namespace {

scheduling_problem contested_slot() {
    // Two requests fight over one unit at a good uploader; a worse uploader
    // has spare capacity.
    scheduling_problem p;
    auto good = p.add_uploader(peer_id(0), 1);
    auto poor = p.add_uploader(peer_id(1), 1);
    auto r0 = p.add_request(peer_id(10), chunk_id(0), 8.0);
    auto r1 = p.add_request(peer_id(11), chunk_id(1), 8.0);
    p.add_candidate(r0, good, 1.0);  // net 7
    p.add_candidate(r0, poor, 5.0);  // net 3
    p.add_candidate(r1, good, 2.0);  // net 6
    p.add_candidate(r1, poor, 6.0);  // net 2
    return p;
}

TEST(auction, resolves_contention_optimally) {
    auction_solver solver({.bidding = {bid_policy::epsilon, 1e-4}});
    auto result = solver.run(contested_slot());
    ASSERT_TRUE(result.converged);
    // Optimal: r0 -> good (7), r1 -> poor (2): welfare 9 (vs 6+3=9 ... tie!)
    // Both assignments are optimal at welfare 9; check welfare not structure.
    auto stats = compute_stats(contested_slot(), result.sched);
    EXPECT_NEAR(stats.welfare, 9.0, 2.0 * 1e-4 + 1e-9);
    EXPECT_TRUE(schedule_feasible(contested_slot(), result.sched));
}

TEST(auction, serves_nothing_when_all_utilities_negative) {
    scheduling_problem p;
    auto u = p.add_uploader(peer_id(0), 4);
    auto r = p.add_request(peer_id(1), chunk_id(0), 1.0);
    p.add_candidate(r, u, 9.0);  // net -8: downloading would hurt welfare
    auction_solver solver;
    auto result = solver.run(p);
    EXPECT_EQ(result.sched.choice[0], no_candidate);
    EXPECT_EQ(result.abstentions, 1u);
    EXPECT_DOUBLE_EQ(result.prices[0], 0.0);
}

TEST(auction, request_without_candidates_is_skipped) {
    scheduling_problem p;
    p.add_uploader(peer_id(0), 1);
    p.add_request(peer_id(1), chunk_id(0), 5.0);  // no candidates
    auction_solver solver;
    auto result = solver.run(p);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.sched.choice[0], no_candidate);
}

TEST(auction, zero_capacity_uploader_never_sells) {
    scheduling_problem p;
    auto u0 = p.add_uploader(peer_id(0), 0);
    auto u1 = p.add_uploader(peer_id(1), 1);
    auto r = p.add_request(peer_id(2), chunk_id(0), 5.0);
    p.add_candidate(r, u0, 0.5);  // better net value but no capacity
    p.add_candidate(r, u1, 2.0);
    auction_solver solver;
    auto result = solver.run(p);
    ASSERT_NE(result.sched.choice[0], no_candidate);
    EXPECT_EQ(p.candidates(0)[static_cast<std::size_t>(result.sched.choice[0])].uploader,
              u1);
}

TEST(auction, empty_problem_converges_trivially) {
    scheduling_problem p;
    auction_solver solver;
    auto result = solver.run(p);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.bids_submitted, 0u);
}

TEST(auction, price_rises_with_contention) {
    // Five identical requests, one uploader with capacity 2: three must be
    // priced out, so λ ends near the marginal (third) valuation.
    scheduling_problem p;
    auto u = p.add_uploader(peer_id(0), 2);
    for (int i = 0; i < 5; ++i) {
        auto r = p.add_request(peer_id(10 + i), chunk_id(i), 4.0 + i);  // v = 4..8
        p.add_candidate(r, u, 1.0);
    }
    auction_solver solver({.bidding = {bid_policy::epsilon, 1e-3}});
    auto result = solver.run(p);
    // Served: v=8 and v=7. With a single candidate each, bidders' second-best
    // margin is the outside option (0), so winners bid their full margins and
    // λ settles in [losing margin, winning margin] = [5, 6] (+ε slack): high
    // enough to price out v=6's margin of 5, low enough to keep v=7 in.
    auto stats = compute_stats(p, result.sched);
    EXPECT_NEAR(stats.welfare, (8.0 - 1.0) + (7.0 - 1.0), 5e-3);
    EXPECT_GE(result.prices[0], 5.0 - 1e-9);
    EXPECT_LE(result.prices[0], 6.0 + 2e-3);
}

TEST(auction, literal_policy_solves_tie_free_instances) {
    auction_solver solver({.bidding = {bid_policy::paper_literal, 0.0}});
    auto p = workload::make_uniform_instance({.num_requests = 25,
                                              .num_uploaders = 6,
                                              .candidates_per_request = 3,
                                              .integer_values = false,
                                              .seed = 7});
    auto result = solver.run(p);
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(schedule_feasible(p, result.sched));

    // Continuous random values make exact ties measure-zero, so the literal
    // auction should reach the exact optimum.
    exact_scheduler exact;
    auto best = exact.run(p);
    auto stats = compute_stats(p, result.sched);
    EXPECT_NEAR(stats.welfare, best.welfare, 1e-6);
}

TEST(auction, literal_policy_parks_on_exact_ties) {
    // Two uploaders with identical value and cost: the first bid ties and the
    // bidder parks... unless one uploader's set fills first. Construct the
    // degenerate case: both margins equal from the start.
    scheduling_problem p;
    auto u0 = p.add_uploader(peer_id(0), 1);
    auto u1 = p.add_uploader(peer_id(1), 1);
    auto r = p.add_request(peer_id(2), chunk_id(0), 5.0);
    p.add_candidate(r, u0, 1.0);
    p.add_candidate(r, u1, 1.0);
    auction_solver solver({.bidding = {bid_policy::paper_literal, 0.0}});
    auto result = solver.run(p);
    EXPECT_TRUE(result.converged);
    // The paper's rule leaves the tied bidder waiting forever (prices never
    // change in a one-request auction) — the request ends unassigned. This
    // is the fidelity cost of the literal rule that the ε policy fixes.
    EXPECT_EQ(result.sched.choice[0], no_candidate);
    EXPECT_EQ(result.parked_at_termination, 1u);
}

TEST(auction, epsilon_policy_breaks_the_same_tie) {
    scheduling_problem p;
    auto u0 = p.add_uploader(peer_id(0), 1);
    auto u1 = p.add_uploader(peer_id(1), 1);
    (void)u0;
    (void)u1;
    auto r = p.add_request(peer_id(2), chunk_id(0), 5.0);
    p.add_candidate(r, u0, 1.0);
    p.add_candidate(r, u1, 1.0);
    auction_solver solver({.bidding = {bid_policy::epsilon, 0.01}});
    auto result = solver.run(p);
    EXPECT_NE(result.sched.choice[0], no_candidate);
}

TEST(auction, respects_capacity_on_hot_uploader) {
    scheduling_problem p;
    auto u = p.add_uploader(peer_id(0), 3);
    for (int i = 0; i < 10; ++i) {
        auto r = p.add_request(peer_id(10 + i), chunk_id(i), 6.0);
        p.add_candidate(r, u, 1.0);
    }
    auction_solver solver;
    auto result = solver.run(p);
    EXPECT_TRUE(schedule_feasible(p, result.sched));
    auto stats = compute_stats(p, result.sched);
    EXPECT_EQ(stats.assigned, 3u);
    EXPECT_EQ(stats.unassigned, 7u);
}

TEST(auction, rejects_invalid_options) {
    auto make_zero_eps = [] {
        return auction_solver({.bidding = {bid_policy::epsilon, 0.0}});
    };
    auto make_negative_eps = [] {
        return auction_solver({.bidding = {bid_policy::epsilon, -1.0}});
    };
    EXPECT_THROW((void)make_zero_eps(), contract_violation);
    EXPECT_THROW((void)make_negative_eps(), contract_violation);
}

std::unique_ptr<auction_solver> make_auction(const auction_options& o) {
    return std::make_unique<auction_solver>(o);
}

// 60 requests over 12 uploaders of capacity capacity_min..3: contended, so
// evictions and price rises have work to do.
scheduling_problem contended_instance(std::uint64_t seed, std::int32_t capacity_min = 1) {
    return workload::make_uniform_instance({.num_requests = 60,
                                            .num_uploaders = 12,
                                            .candidates_per_request = 5,
                                            .capacity_min = capacity_min,
                                            .capacity_max = 3,
                                            .seed = seed});
}

// η comes out of derive_request_utilities, the one sweep of the flat cost
// slab the auction and the message-level runtime use: run()'s η must equal
// a re-derivation from run()'s own prices bit for bit, with or without
// zero-capacity uploaders (whose prices the sweep lifts, idempotently). A
// schedule-only solver (compute_request_utilities off) returns no η and
// changes nothing else.
TEST(auction, request_utility_from_cost_slab_matches_derive_bit_for_bit) {
    auction_options lean_options;
    lean_options.compute_request_utilities = false;
    for (const std::int32_t capacity_min : {1, 0}) {
        bool saw_zero_capacity = false;
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const auto p = contended_instance(seed, capacity_min);
            for (const auto& u : p.view().all_uploaders())
                saw_zero_capacity = saw_zero_capacity || u.capacity == 0;
            const auto result = make_auction({})->run(p);
            ASSERT_EQ(result.request_utility.size(), p.num_requests());
            std::vector<double> prices = result.prices;
            const std::vector<double> derived = derive_request_utilities(p, prices);
            for (std::size_t r = 0; r < derived.size(); ++r)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(result.request_utility[r]),
                          std::bit_cast<std::uint64_t>(derived[r]))
                    << "seed " << seed << " request " << r;
            EXPECT_EQ(prices, result.prices) << "seed " << seed;

            const auto lean_result = make_auction(lean_options)->run(p);
            EXPECT_TRUE(lean_result.request_utility.empty());
            EXPECT_EQ(lean_result.sched.choice, result.sched.choice) << "seed " << seed;
            EXPECT_EQ(lean_result.bids_submitted, result.bids_submitted);
            if (capacity_min > 0) {  // recovery lifts zero-capacity prices
                EXPECT_EQ(lean_result.prices, result.prices) << "seed " << seed;
            }
        }
        EXPECT_EQ(saw_zero_capacity, capacity_min == 0);
    }
}

// solve() is run()'s schedule, minus the dual recovery nobody reads.
TEST(auction, solve_matches_run) {
    std::vector<scheduling_problem> instances;
    instances.push_back(workload::make_uniform_instance({.seed = 3}));
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        instances.push_back(contended_instance(seed));
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const auto solver = make_auction({.bidding = {bid_policy::epsilon, 1e-3}});
        const auto run_result = solver->run(instances[i]);
        EXPECT_EQ(solver->solve(instances[i]).choice, run_result.sched.choice)
            << "instance " << i;
    }
}

}  // namespace
}  // namespace p2pcd::core
