#include "core/exact.h"

#include <gtest/gtest.h>

#include "core/welfare.h"
#include "opt/duality.h"
#include "vod/emulator.h"
#include "workload/instance_gen.h"
#include "workload/scenario.h"

namespace p2pcd::core {
namespace {

TEST(exact, maps_transportation_solution_back_to_candidates) {
    scheduling_problem p;
    auto u0 = p.add_uploader(peer_id(0), 1);
    auto u1 = p.add_uploader(peer_id(1), 1);
    auto r0 = p.add_request(peer_id(2), chunk_id(0), 9.0);
    auto r1 = p.add_request(peer_id(3), chunk_id(1), 7.0);
    p.add_candidate(r0, u0, 0.0);  // 9
    p.add_candidate(r0, u1, 1.0);  // 8
    p.add_candidate(r1, u0, 0.0);  // 7
    p.add_candidate(r1, u1, 6.0);  // 1
    exact_scheduler solver;
    auto result = solver.run(p);
    // Optimum: r0 -> u1 (8) + r1 -> u0 (7) = 15.
    EXPECT_DOUBLE_EQ(result.welfare, 15.0);
    EXPECT_EQ(result.sched.choice[0], 1);
    EXPECT_EQ(result.sched.choice[1], 0);
    EXPECT_EQ(solver.name(), "exact");
}

TEST(exact, welfare_matches_stats_recomputation) {
    auto p = workload::make_uniform_instance({.num_requests = 30, .seed = 5});
    exact_scheduler solver;
    auto result = solver.run(p);
    auto stats = compute_stats(p, result.sched);
    EXPECT_NEAR(stats.welfare, result.welfare, 1e-9);
    EXPECT_TRUE(schedule_feasible(p, result.sched));
}

TEST(exact, duals_certify_on_problem_form) {
    auto p = workload::make_uniform_instance({.num_requests = 20, .seed = 11});
    exact_scheduler solver;
    auto result = solver.run(p);
    auto instance = p.to_transportation();
    EXPECT_TRUE(opt::dual_feasible(instance, result.prices, result.request_utility));
    double dual_obj = 0.0;
    for (std::size_t u = 0; u < instance.num_sinks(); ++u)
        dual_obj += static_cast<double>(instance.sink_capacity[u]) * result.prices[u];
    for (double eta : result.request_utility) dual_obj += eta;
    EXPECT_NEAR(dual_obj, result.welfare, 1e-9);
}

TEST(exact, empty_problem) {
    scheduling_problem p;
    exact_scheduler solver;
    auto result = solver.run(p);
    EXPECT_DOUBLE_EQ(result.welfare, 0.0);
    EXPECT_TRUE(result.sched.choice.empty());
}

// The emulator publishes the scheduler's cumulative simplex pivots as the
// solver.pivots counter.
TEST(exact, emulator_run_counts_simplex_pivots) {
    vod::emulator_options opts;
    opts.config = workload::scenario_config::economy_smoke();
    opts.scheduler = "exact";
    vod::emulator emu(opts);
    emu.run();
    EXPECT_GT(emu.counters().counter_named("solver.pivots"), 0u);
}

}  // namespace
}  // namespace p2pcd::core
