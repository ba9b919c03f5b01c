// Equivalence suite for the CSR/workspace refactor: every registered
// scheduler must produce the identical schedule on fixed-seed instances
// regardless of whether its workspaces are cold (fresh object) or warm
// (reused across solves), and the auction's prices/bid counts must be
// byte-identical across repeated solves. This is what lets the emulator keep
// one long-lived solver per run without changing a single figure.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baseline/registry.h"
#include "core/auction.h"
#include "core/scheduler_registry.h"
#include "core/welfare.h"
#include "workload/instance_gen.h"

namespace p2pcd {
namespace {

constexpr std::uint64_t kReseed = 7;

std::vector<core::scheduling_problem> fixed_instances() {
    std::vector<core::scheduling_problem> out;
    out.push_back(workload::make_uniform_instance(
        {.num_requests = 40, .num_uploaders = 10, .seed = 3}));
    out.push_back(workload::make_uniform_instance(
        {.num_requests = 60, .num_uploaders = 8, .capacity_min = 1,
         .capacity_max = 2, .seed = 11}));  // scarce supply
    out.push_back(workload::make_isp_instance({.num_isps = 4,
                                               .peers_per_isp = 10,
                                               .requests_per_peer = 4,
                                               .seed = 5})
                      .problem);
    return out;
}

TEST(scheduler_equivalence, warm_workspaces_match_fresh_solvers) {
    const auto& registry = baseline::builtin_schedulers();
    auto instances = fixed_instances();
    for (const auto& name : registry.names()) {
        // `warm` accumulates workspace state across instances and repeats;
        // `fresh` is rebuilt per solve. Schedules must never differ.
        auto warm = registry.make(name);
        for (const auto& problem : instances) {
            warm->reseed(kReseed);
            auto warm_first = warm->solve(problem);
            warm->reseed(kReseed);
            auto warm_second = warm->solve(problem);
            auto fresh = registry.make(name);
            fresh->reseed(kReseed);
            auto cold = fresh->solve(problem);

            EXPECT_TRUE(core::schedule_feasible(problem, warm_first)) << name;
            EXPECT_EQ(warm_first.choice, cold.choice)
                << name << ": warm workspaces changed the schedule";
            EXPECT_EQ(warm_first.choice, warm_second.choice)
                << name << ": repeated solves on one solver diverged";
        }
    }
}

TEST(scheduler_equivalence, auction_prices_and_bids_are_stable_across_solves) {
    core::auction_solver solver({.bidding = {core::bid_policy::epsilon, 1e-3}});
    for (const auto& problem : fixed_instances()) {
        auto first = solver.run(problem);
        auto second = solver.run(problem);
        EXPECT_EQ(first.sched.choice, second.sched.choice);
        EXPECT_EQ(first.prices, second.prices);
        EXPECT_EQ(first.request_utility, second.request_utility);
        EXPECT_EQ(first.bids_submitted, second.bids_submitted);
        EXPECT_EQ(first.evictions, second.evictions);
        EXPECT_EQ(first.abstentions, second.abstentions);
    }
}

TEST(scheduler_equivalence, reused_builder_arena_reproduces_the_problem) {
    // clear() + rebuild must yield the same problem (and thus schedules) as a
    // fresh builder — the emulator's round arena pattern.
    auto reference = workload::make_uniform_instance(
        {.num_requests = 25, .num_uploaders = 6, .seed = 21});

    core::scheduling_problem arena;
    for (int round = 0; round < 3; ++round) {
        arena.clear();
        for (std::size_t u = 0; u < reference.num_uploaders(); ++u)
            arena.add_uploader(reference.uploader(u).who, reference.uploader(u).capacity);
        for (std::size_t r = 0; r < reference.num_requests(); ++r) {
            const auto& req = reference.request(r);
            auto nr = arena.add_request(req.downstream, req.chunk, req.valuation);
            for (const auto& c : reference.candidates(r))
                arena.add_candidate(nr, c.uploader, c.cost);
        }
        ASSERT_EQ(arena.num_candidates(), reference.num_candidates());
        core::auction_solver solver;
        EXPECT_EQ(solver.solve(arena).choice, solver.solve(reference).choice);
    }
}

}  // namespace
}  // namespace p2pcd
