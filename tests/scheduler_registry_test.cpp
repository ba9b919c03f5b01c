// Round-trip tests for the scheduler and scenario registries: every built-in
// name resolves to a working instance, unknown names produce a clear error
// listing what exists, and a custom registration reaches the emulator with no
// emulator edits.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/registry.h"
#include "common/contracts.h"
#include "core/scheduler_registry.h"
#include "core/welfare.h"
#include "vod/emulator.h"
#include "workload/instance_gen.h"
#include "workload/scenario_registry.h"

namespace p2pcd {
namespace {

TEST(scheduler_registry, builtin_names_round_trip) {
    const auto& registry = baseline::builtin_schedulers();
    auto names = registry.names();
    EXPECT_EQ(names.size(), 5u);
    for (const char* expected :
         {"auction", "exact", "greedy-welfare", "random", "simple-locality"})
        EXPECT_TRUE(registry.contains(expected)) << expected;

    auto problem = workload::make_uniform_instance({.num_requests = 20, .seed = 2});
    for (const auto& name : names) {
        auto solver = registry.make(name);
        ASSERT_NE(solver, nullptr);
        EXPECT_EQ(solver->name(), name);
        EXPECT_TRUE(core::schedule_feasible(problem, solver->solve(problem))) << name;
    }
}

TEST(scheduler_registry, unknown_name_reports_known_names) {
    const auto& registry = baseline::builtin_schedulers();
    EXPECT_FALSE(registry.contains("simulated-annealing"));
    try {
        (void)registry.make("simulated-annealing");
        FAIL() << "expected contract_violation";
    } catch (const contract_violation& error) {
        std::string what = error.what();
        EXPECT_NE(what.find("no scheduler named 'simulated-annealing'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("auction"), std::string::npos) << what;
        EXPECT_NE(what.find("simple-locality"), std::string::npos) << what;
    }
}

TEST(scheduler_registry, rejects_duplicate_and_empty_registration) {
    core::scheduler_registry registry;
    core::register_core_schedulers(registry);
    EXPECT_THROW(core::register_core_schedulers(registry), contract_violation);
    EXPECT_THROW(registry.add("", [](const core::scheduler_params&) {
        return std::unique_ptr<core::scheduler>{};
    }),
                 contract_violation);
}

TEST(scheduler_registry, params_reach_the_factories) {
    const auto& registry = baseline::builtin_schedulers();
    core::scheduler_params params;
    params.auction.bidding.epsilon = 0.5;
    auto solver = registry.make("auction", params);
    auto* auction = dynamic_cast<core::auction_solver*>(solver.get());
    ASSERT_NE(auction, nullptr);
    EXPECT_DOUBLE_EQ(auction->options().bidding.epsilon, 0.5);
}

// A trivial custom algorithm: serve nothing. Registering it and naming it in
// emulator_options must be all it takes — the "no emulator edits" guarantee.
class do_nothing_scheduler final : public core::scheduler {
public:
    [[nodiscard]] core::schedule solve(const core::problem_view& problem) override {
        core::schedule sched;
        sched.choice.assign(problem.num_requests(), core::no_candidate);
        return sched;
    }
    [[nodiscard]] std::string_view name() const override { return "do-nothing"; }
};

TEST(scheduler_registry, custom_scheduler_runs_in_the_emulator) {
    auto registry = std::make_shared<core::scheduler_registry>(
        baseline::builtin_schedulers());  // copy, then extend
    registry->add("do-nothing", [](const core::scheduler_params&) {
        return std::make_unique<do_nothing_scheduler>();
    });

    vod::emulator_options opts;
    opts.config = workload::scenario_config::small_test();
    opts.config.horizon_seconds = 20.0;
    opts.scheduler = "do-nothing";
    opts.registry = registry;
    vod::emulator emu(opts);
    emu.run();
    for (const auto& slot : emu.slots()) EXPECT_EQ(slot.transfers, 0u);
    EXPECT_DOUBLE_EQ(emu.total_welfare(), 0.0);
}

TEST(scheduler_registry, emulator_rejects_unknown_scheduler_names) {
    vod::emulator_options opts;
    opts.config = workload::scenario_config::small_test();
    opts.scheduler = "definitely-not-registered";
    EXPECT_THROW(vod::emulator{opts}, contract_violation);
}

TEST(scenario_registry, builtin_names_round_trip) {
    const auto& registry = workload::builtin_scenarios();
    for (const char* expected : {"paper_dynamic", "paper_static_500", "paper_churn",
                                 "small_test", "metro_5k", "metro_20k",
                                 "flash_crowd_10k", "metro_economy",
                                 "economy_smoke", "coupled_smoke",
                                 "flash_economy"}) {
        EXPECT_TRUE(registry.contains(expected)) << expected;
        EXPECT_FALSE(registry.describe(expected).empty());
        auto cfg = registry.make(expected);  // make() validates
        EXPECT_GT(cfg.num_slots(), 0u);
    }
    EXPECT_EQ(registry.names().size(), 11u);
}

TEST(scenario_registry, large_scenarios_have_the_advertised_scale) {
    const auto& registry = workload::builtin_scenarios();
    auto metro = registry.make("metro_5k");
    EXPECT_EQ(metro.initial_peers, 5000u);
    EXPECT_EQ(metro.num_isps, 20u);
    EXPECT_DOUBLE_EQ(metro.arrival_rate, 0.0);

    auto metro20 = registry.make("metro_20k");
    EXPECT_EQ(metro20.initial_peers, 20000u);
    EXPECT_EQ(metro20.num_isps, 20u);
    EXPECT_DOUBLE_EQ(metro20.arrival_rate, 0.0);

    auto flash = registry.make("flash_crowd_10k");
    EXPECT_EQ(flash.initial_peers, 0u);
    // ~10k joins over the horizon.
    EXPECT_NEAR(flash.arrival_rate * flash.horizon_seconds, 10000.0, 1e-9);
    EXPECT_LE(flash.num_videos, 10u) << "flash crowds concentrate on a hot catalog";
}

TEST(scenario_registry, unknown_name_reports_known_names) {
    const auto& registry = workload::builtin_scenarios();
    try {
        (void)registry.make("mega_city_1");
        FAIL() << "expected contract_violation";
    } catch (const contract_violation& error) {
        std::string what = error.what();
        EXPECT_NE(what.find("no scenario named 'mega_city_1'"), std::string::npos);
        EXPECT_NE(what.find("metro_5k"), std::string::npos) << what;
    }
    EXPECT_THROW((void)registry.describe("mega_city_1"), contract_violation);
}

}  // namespace
}  // namespace p2pcd
