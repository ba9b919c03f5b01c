#include <gtest/gtest.h>

#include "baseline/greedy_welfare.h"
#include "baseline/random_scheduler.h"
#include "baseline/simple_locality.h"
#include "core/auction.h"
#include "core/exact.h"
#include "core/welfare.h"
#include "workload/instance_gen.h"

namespace p2pcd::baseline {
namespace {

using core::no_candidate;

core::scheduling_problem locality_trap() {
    // One local (cheap) but saturated uploader, one remote (expensive) with
    // room. The locality baseline sends the low-value request remote at a
    // loss; the auction leaves it unserved.
    core::scheduling_problem p;
    auto local = p.add_uploader(peer_id(0), 1);
    auto remote = p.add_uploader(peer_id(1), 5);
    auto urgent = p.add_request(peer_id(2), chunk_id(0), 8.0);
    auto casual = p.add_request(peer_id(3), chunk_id(1), 1.0);
    p.add_candidate(urgent, local, 0.5);
    p.add_candidate(urgent, remote, 5.0);
    p.add_candidate(casual, local, 0.5);
    p.add_candidate(casual, remote, 5.0);  // net 1 - 5 = -4
    return p;
}

TEST(simple_locality, prefers_cheapest_then_spills_over) {
    auto p = locality_trap();
    simple_locality_scheduler solver;
    auto sched = solver.solve(p);
    EXPECT_TRUE(core::schedule_feasible(p, sched));
    // Urgent (v=8) wins the local unit; casual is rejected locally and, being
    // cost-driven rather than welfare-driven, retries at the remote uploader.
    EXPECT_EQ(sched.choice[0], 0);
    EXPECT_EQ(sched.choice[1], 1);
    auto stats = core::compute_stats(p, sched);
    EXPECT_DOUBLE_EQ(stats.welfare, 7.5 - 4.0);
}

TEST(simple_locality, auction_avoids_the_negative_transfer) {
    auto p = locality_trap();
    core::auction_solver auction;
    auto result = auction.run(p);
    auto stats = core::compute_stats(p, result.sched);
    EXPECT_DOUBLE_EQ(stats.welfare, 7.5) << "casual request should stay unserved";
    EXPECT_EQ(result.sched.choice[1], no_candidate);
}

TEST(simple_locality, round_limit_bounds_retries) {
    core::scheduling_problem p;
    // Ten requests, ten uploaders of capacity 1, everyone prefers uploader 0.
    std::vector<std::size_t> ups;
    for (int u = 0; u < 10; ++u) ups.push_back(p.add_uploader(peer_id(u), 1));
    for (int r = 0; r < 10; ++r) {
        auto req = p.add_request(peer_id(100 + r), chunk_id(r), 5.0);
        for (int u = 0; u < 10; ++u)
            p.add_candidate(req, ups[static_cast<std::size_t>(u)],
                            0.1 * static_cast<double>(u + 1));
    }
    simple_locality_scheduler one_round({.max_rounds = 1});
    auto sched1 = one_round.solve(p);
    auto stats1 = core::compute_stats(p, sched1);
    EXPECT_EQ(stats1.assigned, 1u) << "everyone knocked at uploader 0 once";

    simple_locality_scheduler ten_rounds({.max_rounds = 10});
    auto sched10 = ten_rounds.solve(p);
    auto stats10 = core::compute_stats(p, sched10);
    EXPECT_EQ(stats10.assigned, 10u) << "enough retries spread the load";
}

TEST(simple_locality, urgency_priority_at_uploader) {
    core::scheduling_problem p;
    auto u = p.add_uploader(peer_id(0), 1);
    auto low = p.add_request(peer_id(1), chunk_id(0), 1.0);
    auto high = p.add_request(peer_id(2), chunk_id(1), 7.0);
    p.add_candidate(low, u, 0.5);
    p.add_candidate(high, u, 0.5);
    simple_locality_scheduler solver;
    auto sched = solver.solve(p);
    EXPECT_EQ(sched.choice[high], 0) << "more urgent deadline served first";
    EXPECT_EQ(sched.choice[low], no_candidate);
}

TEST(random_scheduler, produces_feasible_schedules) {
    auto p = workload::make_uniform_instance({.num_requests = 40, .seed = 9});
    random_scheduler solver(123);
    auto sched = solver.solve(p);
    EXPECT_TRUE(core::schedule_feasible(p, sched));
    EXPECT_EQ(solver.name(), "random");
}

TEST(random_scheduler, deterministic_per_seed) {
    auto p = workload::make_uniform_instance({.num_requests = 40, .seed = 9});
    random_scheduler a(123);
    random_scheduler b(123);
    EXPECT_EQ(a.solve(p).choice, b.solve(p).choice);
}

TEST(greedy_welfare, takes_profitable_edges_only) {
    auto p = locality_trap();
    greedy_welfare_scheduler solver;
    auto sched = solver.solve(p);
    auto stats = core::compute_stats(p, sched);
    EXPECT_DOUBLE_EQ(stats.welfare, 7.5);
    EXPECT_EQ(sched.choice[1], no_candidate) << "negative edges are skipped";
}

TEST(greedy_welfare, bounded_by_exact_optimum) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        auto p = workload::make_uniform_instance(
            {.num_requests = 30, .num_uploaders = 6, .seed = seed});
        greedy_welfare_scheduler greedy;
        core::exact_scheduler exact;
        auto g = core::compute_stats(p, greedy.solve(p));
        auto e = exact.run(p);
        EXPECT_LE(g.welfare, e.welfare + 1e-9);
        EXPECT_GE(g.welfare, 0.0) << "greedy never takes losing edges";
    }
}

TEST(baselines, welfare_ordering_on_isp_instances) {
    // On ISP-structured instances the expected ordering of realized welfare:
    // exact >= auction >= greedy and locality below auction (the paper's
    // core claim). Averaged over seeds to avoid flaky single draws.
    double auction_total = 0.0;
    double locality_total = 0.0;
    double exact_total = 0.0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        auto inst = workload::make_isp_instance({.seed = seed + 1});
        core::auction_solver auction({.bidding = {core::bid_policy::epsilon, 1e-3}});
        simple_locality_scheduler locality;
        core::exact_scheduler exact;
        auction_total += core::compute_stats(inst.problem, auction.solve(inst.problem)).welfare;
        locality_total += core::compute_stats(inst.problem, locality.solve(inst.problem)).welfare;
        exact_total += exact.run(inst.problem).welfare;
    }
    EXPECT_LE(auction_total, exact_total + 1e-6);
    EXPECT_GT(auction_total, locality_total) << "the paper's headline comparison";
}

// The core::scheduler footprint contract the auctions keep: a solve leaves
// its workspace counted in workspace_bytes(), shed_memory() returns all of
// it, and the solve after a shed regrows it to the same schedule.
void expect_workspace_counted_and_shed(core::scheduler& solver) {
    const auto p = workload::make_isp_instance({.seed = 4}).problem;
    ASSERT_GT(p.num_requests(), 0u);
    solver.reseed(77);
    const auto first = solver.solve(p);
    EXPECT_GT(solver.workspace_bytes(), 0u) << solver.name();
    solver.shed_memory();
    EXPECT_EQ(solver.workspace_bytes(), 0u) << solver.name();
    solver.reseed(77);
    EXPECT_EQ(solver.solve(p).choice, first.choice) << solver.name();
}

TEST(simple_locality, workspace_is_counted_and_shed) {
    simple_locality_scheduler solver;
    expect_workspace_counted_and_shed(solver);
}

TEST(random_scheduler, workspace_is_counted_and_shed) {
    random_scheduler solver(5);
    expect_workspace_counted_and_shed(solver);
}

TEST(greedy_welfare, workspace_is_counted_and_shed) {
    greedy_welfare_scheduler solver;
    expect_workspace_counted_and_shed(solver);
}

TEST(exact, workspace_is_counted_and_shed) {
    core::exact_scheduler solver;
    expect_workspace_counted_and_shed(solver);
    // The regrown instance arena: one edge per candidate, one capacity per
    // uploader.
    const auto p = workload::make_isp_instance({.seed = 4}).problem;
    EXPECT_GE(solver.workspace_bytes(),
              p.num_candidates() * sizeof(opt::transportation_edge) +
                  p.num_uploaders() * sizeof(std::int64_t));
}

}  // namespace
}  // namespace p2pcd::baseline
