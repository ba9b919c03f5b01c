// Fleet composition: the parallel engine is *exactly* N independent
// emulators plus an index-ordered merge — no more, no less. Also covers the
// fleet expansion math (Zipf population split, seed derivation) and the
// fleet registry round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "engine/fleet.h"
#include "engine/shard.h"
#include "vod/emulator.h"
#include "workload/fleet_config.h"
#include "workload/scenario_registry.h"

namespace p2pcd {
namespace {

TEST(fleet_expansion, zipf_split_is_deterministic_and_ordered) {
    workload::fleet_config cfg;
    cfg.swarm_scenario = "small_test";
    cfg.num_swarms = 5;
    cfg.total_peers = 200;
    cfg.min_swarm_peers = 4;
    auto swarms = workload::expand_fleet(cfg, workload::builtin_scenarios());
    ASSERT_EQ(swarms.size(), 5u);

    double share_sum = 0.0;
    std::size_t peer_sum = 0;
    for (std::size_t i = 0; i < swarms.size(); ++i) {
        EXPECT_EQ(swarms[i].swarm_index, i);
        EXPECT_EQ(swarms[i].config.master_seed,
                  workload::swarm_seed(cfg.fleet_seed, i));
        share_sum += swarms[i].popularity;
        peer_sum += swarms[i].config.initial_peers;
        if (i > 0) {  // Zipf: popularity (and thus population) non-increasing
            EXPECT_LE(swarms[i].config.initial_peers,
                      swarms[i - 1].config.initial_peers);
        }
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    // Rounding and the min-peers floor move the total by at most a few peers.
    EXPECT_NEAR(static_cast<double>(peer_sum), 200.0, 5.0);
}

TEST(fleet_expansion, arrival_driven_scenarios_scale_the_rate) {
    workload::fleet_config cfg;
    cfg.swarm_scenario = "paper_dynamic";  // Poisson 1/s over 250 s => ~250 joins
    cfg.num_swarms = 2;
    cfg.total_peers = 1000;
    cfg.min_swarm_peers = 1;
    auto swarms = workload::expand_fleet(cfg, workload::builtin_scenarios());
    ASSERT_EQ(swarms.size(), 2u);
    double expected_joins = 0.0;
    for (const auto& s : swarms) {
        EXPECT_EQ(s.config.initial_peers, 0u);
        expected_joins += s.config.arrival_rate * s.config.horizon_seconds;
    }
    EXPECT_NEAR(expected_joins, 1000.0, 5.0);
}

TEST(fleet_expansion, zero_total_keeps_the_base_population) {
    workload::fleet_config cfg;
    cfg.swarm_scenario = "small_test";
    cfg.num_swarms = 3;
    cfg.total_peers = 0;
    auto swarms = workload::expand_fleet(cfg, workload::builtin_scenarios());
    for (const auto& s : swarms) EXPECT_EQ(s.config.initial_peers, 30u);
}

TEST(fleet_expansion, mixed_static_and_arrival_bases_keep_the_zipf_share) {
    workload::fleet_config cfg;
    cfg.swarm_scenario = "small_test";
    cfg.num_swarms = 3;
    cfg.total_peers = 600;
    cfg.min_swarm_peers = 1;
    // A base with BOTH static peers and arrivals: the scale factor must be
    // computed against the combined expected population.
    auto base = workload::builtin_scenarios().make("small_test");
    base.arrival_rate = 0.5;  // 30 expected joins over the 60 s horizon
    ASSERT_DOUBLE_EQ(base.expected_viewers(), 60.0);
    auto swarms = workload::expand_fleet(cfg, base);
    double expected_total = 0.0;
    for (const auto& s : swarms) expected_total += s.config.expected_viewers();
    EXPECT_NEAR(expected_total, 600.0, 6.0);  // rounding of initial_peers only
}

TEST(fleet_config, with_swarms_scales_the_viewer_target_proportionally) {
    const auto metro = workload::fleet_config::metro_100x5k();
    const auto two = metro.with_swarms(2);
    EXPECT_EQ(two.num_swarms, 2u);
    EXPECT_EQ(two.total_peers, 10'000u);  // 500k * 2 / 100
    EXPECT_EQ(two.swarm_scenario, metro.swarm_scenario);
    EXPECT_THROW((void)metro.with_swarms(0), contract_violation);

    workload::fleet_config unbounded;
    unbounded.total_peers = 0;  // "keep the base population" stays intact
    EXPECT_EQ(unbounded.with_swarms(7).total_peers, 0u);
    EXPECT_EQ(unbounded.with_swarms(7).num_swarms, 7u);
}

// Non-finite fleet and coupling values (+inf as well as NaN) are rejected,
// each by name.
TEST(fleet_config, validation_rejects_non_finite_values) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    const auto rejects = [](const workload::fleet_config& bad, const std::string& field) {
        try {
            bad.validate();
            ADD_FAILURE() << field << " was accepted";
        } catch (const contract_violation& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    };
    const workload::fleet_config coupled = workload::fleet_config::coupled_smoke_fleet();
    EXPECT_NO_THROW(coupled.validate());
    for (const double bad : {inf, nan}) {
        auto cfg = coupled;
        cfg.popularity_alpha = bad;
        rejects(cfg, "popularity_alpha");
        cfg = coupled;
        cfg.popularity_q = bad;
        rejects(cfg, "popularity_q");
        cfg = coupled;
        cfg.coupling.link_capacity_scale = bad;
        rejects(cfg, "link_capacity_scale");
        cfg = coupled;
        cfg.coupling.surcharge_gain = bad;
        rejects(cfg, "surcharge_gain");
        cfg = coupled;
        cfg.coupling.max_surcharge = bad;
        rejects(cfg, "max_surcharge");
        cfg = coupled;
        cfg.coupling.uplink_budget_multiple = bad;
        rejects(cfg, "uplink_budget_multiple");
        cfg = coupled;
        cfg.coupling.admission_gain = bad;
        rejects(cfg, "admission_gain");
        cfg = coupled;
        cfg.coupling.viewer_demand_chunks = bad;
        rejects(cfg, "viewer_demand_chunks");
    }
}

// The uplink broker floors each swarm's share of a seeder's shared budget
// (seed_upload_multiple × chunks_per_slot × uplink_budget_multiple) to an
// int32, so a budget past 2^31 must be rejected before any shard is built.
TEST(fleet_config, seed_budget_must_fit_int32) {
    auto cfg = workload::fleet_config::coupled_smoke_fleet();
    const auto base = workload::builtin_scenarios().make(cfg.swarm_scenario);
    const double per_multiple =
        base.seed_upload_multiple * static_cast<double>(base.chunks_per_slot());
    const double just_past = std::nextafter(2147483648.0 / per_multiple, 1e300);
    ASSERT_GE(per_multiple * just_past, 2147483648.0);
    for (const double multiple : {just_past, 1e300}) {
        cfg.coupling.uplink_budget_multiple = multiple;
        try {
            (void)workload::expand_fleet(cfg, base);
            ADD_FAILURE() << "uplink_budget_multiple " << multiple << " was accepted";
        } catch (const contract_violation& e) {
            EXPECT_NE(std::string(e.what()).find("uplink_budget_multiple"),
                      std::string::npos)
                << e.what();
        }
    }
    engine::fleet_options options;
    options.config = cfg;
    EXPECT_THROW(engine::fleet{std::move(options)}, contract_violation);
    // Just below the bound is accepted; without shared uplinks there is no
    // shared budget to bound.
    cfg.coupling.uplink_budget_multiple = 2147483647.0 / per_multiple;
    EXPECT_NO_THROW((void)workload::expand_fleet(cfg, base));
    cfg.coupling.uplink_budget_multiple = 1e300;
    cfg.coupling.share_seed_uplinks = false;
    EXPECT_NO_THROW((void)workload::expand_fleet(cfg, base));
}

TEST(fleet_registry, builtin_fleets_round_trip) {
    const auto& registry = workload::builtin_fleets();
    for (const char* expected :
         {"fleet_metro_100x5k", "fleet_metro_20x20k", "fleet_flash_crowd",
          "fleet_smoke", "fleet_economy", "fleet_economy_smoke"}) {
        EXPECT_TRUE(registry.contains(expected)) << expected;
        EXPECT_FALSE(registry.describe(expected).empty());
        const auto cfg = registry.make(expected);  // validate()d inside
        EXPECT_GT(cfg.num_swarms, 0u);
    }
    const auto metro = registry.make("fleet_metro_100x5k");
    EXPECT_EQ(metro.num_swarms, 100u);
    EXPECT_EQ(metro.total_peers, 500'000u);
    const auto dense = registry.make("fleet_metro_20x20k");
    EXPECT_EQ(dense.num_swarms, 20u);
    EXPECT_EQ(dense.total_peers, 400'000u);
    EXPECT_EQ(dense.swarm_scenario, "metro_20k");
}

TEST(fleet_registry, unknown_fleet_reports_known_names) {
    try {
        (void)workload::builtin_fleets().make("fleet_of_foot");
        FAIL() << "expected contract_violation";
    } catch (const contract_violation& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("no fleet named 'fleet_of_foot'"), std::string::npos);
        EXPECT_NE(what.find("fleet_metro_100x5k"), std::string::npos);
    }
}

// The core composition theorem of the subsystem: running a fleet equals
// running each swarm's emulator by itself (same spec, same seed) and summing
// the per-slot metrics in swarm-index order. Bit-identical, not "close".
TEST(fleet, equals_the_sum_of_independent_emulators) {
    workload::fleet_config cfg = workload::fleet_config::smoke();

    engine::fleet_options options;
    options.config = cfg;
    options.threads = 2;
    engine::fleet fleet(std::move(options));
    fleet.run();

    // The same swarms, one long-lived emulator each, run serially.
    auto swarms = workload::expand_fleet(cfg, workload::builtin_scenarios());
    std::vector<std::unique_ptr<vod::emulator>> solo;
    for (const auto& spec : swarms) {
        vod::emulator_options emu_options;
        emu_options.config = spec.config;
        emu_options.scheduler = cfg.scheduler;
        solo.push_back(std::make_unique<vod::emulator>(std::move(emu_options)));
        solo.back()->run();
    }

    ASSERT_EQ(fleet.slots().size(), solo.front()->slots().size());
    for (std::size_t k = 0; k < fleet.slots().size(); ++k) {
        double welfare = 0.0;
        std::size_t transfers = 0;
        std::size_t inter = 0;
        std::size_t due = 0;
        std::size_t missed = 0;
        std::size_t online = 0;
        for (const auto& emu : solo) {
            welfare += emu->slots()[k].social_welfare;
            transfers += emu->slots()[k].transfers;
            inter += emu->slots()[k].inter_isp_transfers;
            due += emu->slots()[k].chunks_due;
            missed += emu->slots()[k].chunks_missed;
            online += emu->slots()[k].online_peers;
        }
        EXPECT_EQ(fleet.slots()[k].social_welfare, welfare) << "slot " << k;
        EXPECT_EQ(fleet.slots()[k].transfers, transfers) << "slot " << k;
        EXPECT_EQ(fleet.slots()[k].inter_isp_transfers, inter) << "slot " << k;
        EXPECT_EQ(fleet.slots()[k].chunks_due, due) << "slot " << k;
        EXPECT_EQ(fleet.slots()[k].chunks_missed, missed) << "slot " << k;
        EXPECT_EQ(fleet.slots()[k].online_peers, online) << "slot " << k;
    }
}

TEST(fleet, run_is_single_shot) {
    engine::fleet_options options;
    options.config = workload::fleet_config::smoke();
    options.config.num_swarms = 1;
    engine::fleet fleet(std::move(options));
    fleet.run();
    EXPECT_GT(fleet.peak_rss_mb(), 0.0);
    EXPECT_THROW(fleet.run(), contract_violation);
}

TEST(fleet, solve_accounting_matches_swarms_slots_rounds) {
    engine::fleet_options options;
    options.config = workload::fleet_config::smoke();
    options.swarm_options.bid_rounds_per_slot = 3;
    engine::fleet fleet(std::move(options));
    // smoke: 3 swarms, small_test horizon 60 s / 10 s slots = 6 slots.
    EXPECT_EQ(fleet.num_swarms(), 3u);
    EXPECT_EQ(fleet.num_slots(), 6u);
    EXPECT_EQ(fleet.solves_per_run(), 3u * 6u * 3u);
}

TEST(shard, rejects_a_seed_not_derived_from_the_swarm_index) {
    auto swarms = workload::expand_fleet(workload::fleet_config::smoke(),
                                         workload::builtin_scenarios());
    auto spec = swarms[1];
    spec.config.master_seed = 12345;  // not swarm_seed(42, 1)
    const vod::emulator_options options;
    EXPECT_THROW(engine::shard(spec, 42, options), contract_violation);
}

TEST(shard, exposes_its_swarm_identity) {
    auto swarms = workload::expand_fleet(workload::fleet_config::smoke(),
                                         workload::builtin_scenarios());
    const vod::emulator_options options;
    engine::shard s(swarms[2], 42, options);
    EXPECT_EQ(s.swarm_index(), 2u);
    EXPECT_EQ(s.seed(), workload::swarm_seed(42, 2));
    EXPECT_GT(s.popularity(), 0.0);
    const auto& m = s.step();
    EXPECT_EQ(m.time, 0.0);
    EXPECT_EQ(s.emulator().slots().size(), 1u);
}

}  // namespace
}  // namespace p2pcd
