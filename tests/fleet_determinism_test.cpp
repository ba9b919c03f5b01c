// The engine's headline guarantee: merged fleet metrics are bit-identical
// for any thread count, because every shard's randomness derives from
// (fleet_seed, swarm_index) and the merge runs in swarm-index order.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "workload/fleet_config.h"

namespace p2pcd {
namespace {

std::unique_ptr<engine::fleet> run_smoke_fleet(std::size_t threads,
                                               std::uint64_t seed = 42) {
    engine::fleet_options options;
    options.config = workload::fleet_config::smoke();
    options.config.fleet_seed = seed;
    options.threads = threads;
    auto fleet = std::make_unique<engine::fleet>(std::move(options));
    fleet->run();
    return fleet;
}

// Exact, field-by-field equality — doubles compared with ==, no tolerance.
void expect_bit_identical(const engine::fleet& a, const engine::fleet& b) {
    ASSERT_EQ(a.slots().size(), b.slots().size());
    for (std::size_t k = 0; k < a.slots().size(); ++k) {
        const auto& sa = a.slots()[k];
        const auto& sb = b.slots()[k];
        EXPECT_EQ(sa.time, sb.time) << "slot " << k;
        EXPECT_EQ(sa.online_peers, sb.online_peers) << "slot " << k;
        EXPECT_EQ(sa.requests, sb.requests) << "slot " << k;
        EXPECT_EQ(sa.transfers, sb.transfers) << "slot " << k;
        EXPECT_EQ(sa.inter_isp_transfers, sb.inter_isp_transfers) << "slot " << k;
        EXPECT_EQ(sa.inter_isp_fraction, sb.inter_isp_fraction) << "slot " << k;
        EXPECT_EQ(sa.social_welfare, sb.social_welfare) << "slot " << k;
        EXPECT_EQ(sa.chunks_due, sb.chunks_due) << "slot " << k;
        EXPECT_EQ(sa.chunks_missed, sb.chunks_missed) << "slot " << k;
        EXPECT_EQ(sa.miss_rate, sb.miss_rate) << "slot " << k;
        EXPECT_EQ(sa.auction_bids, sb.auction_bids) << "slot " << k;
    }
    EXPECT_EQ(a.total_welfare(), b.total_welfare());
    EXPECT_EQ(a.overall_inter_isp_fraction(), b.overall_inter_isp_fraction());
    EXPECT_EQ(a.overall_miss_rate(), b.overall_miss_rate());
    ASSERT_EQ(a.welfare_series().size(), b.welfare_series().size());
    for (std::size_t k = 0; k < a.welfare_series().size(); ++k) {
        EXPECT_EQ(a.welfare_series().points()[k].value,
                  b.welfare_series().points()[k].value);
        EXPECT_EQ(a.miss_rate_series().points()[k].value,
                  b.miss_rate_series().points()[k].value);
        EXPECT_EQ(a.inter_isp_series().points()[k].value,
                  b.inter_isp_series().points()[k].value);
    }
}

TEST(fleet_determinism, merged_metrics_identical_for_1_4_and_hw_threads) {
    const auto reference = run_smoke_fleet(1);
    // The fleet does real scheduling work: an all-zero run would make the
    // determinism comparison vacuous.
    EXPECT_GT(reference->total_welfare(), 0.0);
    expect_bit_identical(*reference, *run_smoke_fleet(4));
    expect_bit_identical(*reference,
                         *run_smoke_fleet(engine::thread_pool::default_thread_count()));
}

TEST(fleet_determinism, more_threads_than_swarms_is_still_identical) {
    const auto reference = run_smoke_fleet(1);
    expect_bit_identical(*reference, *run_smoke_fleet(16));
}

TEST(fleet_determinism, repeated_runs_identical_at_fixed_thread_count) {
    expect_bit_identical(*run_smoke_fleet(2), *run_smoke_fleet(2));
}

std::unique_ptr<engine::fleet> run_economy_fleet(std::size_t threads) {
    engine::fleet_options options;
    options.config = workload::builtin_fleets().make("fleet_economy_smoke");
    // The cheapest-cost baseline reliably ships cross-ISP traffic at smoke
    // scale (the auction often goes fully local), keeping the per-pair
    // comparison non-vacuous.
    options.config.scheduler = "simple-locality";
    options.threads = threads;
    auto fleet = std::make_unique<engine::fleet>(std::move(options));
    fleet->run();
    return fleet;
}

// The same guarantee for the ISP-economy ledger merge path: the fleet-wide
// per-ISP-pair totals (and the billed transit cost) are bit-identical for
// any thread count, because per-swarm ledgers merge in swarm-index order.
TEST(fleet_determinism, merged_ledger_identical_for_1_4_and_16_threads) {
    const auto reference = run_economy_fleet(1);
    ASSERT_TRUE(reference->economy_enabled());
    const isp::traffic_ledger ref_ledger = reference->merged_ledger();
    const isp::billing_statement ref_bill = reference->merged_bill();
    // Real traffic crossed ISP boundaries, or the comparison is vacuous.
    EXPECT_GT(ref_ledger.cross_chunks(), 0u);

    for (std::size_t threads : {std::size_t{4}, std::size_t{16}}) {
        const auto fleet = run_economy_fleet(threads);
        // Every per-slot per-ISP-pair cell, not just totals.
        EXPECT_TRUE(fleet->merged_ledger() == ref_ledger) << threads << " threads";
        const isp::billing_statement bill = fleet->merged_bill();
        EXPECT_EQ(bill.total_cost, ref_bill.total_cost) << threads;
        expect_bit_identical(*reference, *fleet);
    }
}

std::unique_ptr<engine::fleet> run_coupled_fleet(std::size_t threads) {
    engine::fleet_options options;
    options.config = workload::builtin_fleets().make("fleet_coupled_smoke");
    options.threads = threads;
    auto fleet = std::make_unique<engine::fleet>(std::move(options));
    fleet->run();
    return fleet;
}

// The coupled fleet threads shared state — link pools, surcharges, uplink
// splits, admission queues — through every slot, all of it written from the
// serial inter-slot hook. The guarantee must survive: bit-identical merged
// metrics, ledgers, bills and admission counters for any thread count.
TEST(fleet_determinism, coupled_fleet_identical_for_1_2_4_and_16_threads) {
    const auto reference = run_coupled_fleet(1);
    ASSERT_TRUE(reference->coupling_enabled());
    EXPECT_GT(reference->total_welfare(), 0.0);
    obs::counter_registry ref_counters = reference->merged_counters();
    // Non-vacuity: the quartered pools actually deferred arrivals, so the
    // comparison covers the gated path, not just open gates.
    EXPECT_GT(ref_counters.counter_named("admission.deferred"), 0u);
    EXPECT_GT(ref_counters.counter_named("admission.admitted"), 0u);
    const isp::billing_statement ref_bill = reference->merged_bill();

    for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{16}}) {
        const auto fleet = run_coupled_fleet(threads);
        expect_bit_identical(*reference, *fleet);
        EXPECT_TRUE(fleet->merged_ledger() == reference->merged_ledger())
            << threads << " threads";
        EXPECT_EQ(fleet->merged_bill().total_cost, ref_bill.total_cost) << threads;
        obs::counter_registry counters = fleet->merged_counters();
        EXPECT_EQ(counters.counter_named("admission.admitted"),
                  ref_counters.counter_named("admission.admitted"))
            << threads;
        EXPECT_EQ(counters.counter_named("admission.deferred"),
                  ref_counters.counter_named("admission.deferred"))
            << threads;
        EXPECT_EQ(counters.counter_named("admission.abandoned"),
                  ref_counters.counter_named("admission.abandoned"))
            << threads;
        ASSERT_EQ(fleet->fleet_price_epochs().size(),
                  reference->fleet_price_epochs().size());
    }
}

// A coupling config that is fully parameterized but *disabled* must leave
// the fleet bit-identical to one that never saw a coupling struct at all —
// the "off == never configured" contract the bench also asserts.
TEST(fleet_determinism, disabled_coupling_is_bit_identical_to_unconfigured) {
    engine::fleet_options plain_options;
    plain_options.config = workload::builtin_fleets().make("fleet_economy_smoke");
    plain_options.threads = 2;
    engine::fleet plain(std::move(plain_options));
    plain.run();

    engine::fleet_options off_options;
    off_options.config = workload::builtin_fleets().make("fleet_economy_smoke");
    off_options.config.coupling = workload::fleet_config::coupled_smoke_fleet().coupling;
    off_options.config.coupling.enabled = false;
    off_options.threads = 2;
    engine::fleet off(std::move(off_options));
    off.run();

    EXPECT_FALSE(off.coupling_enabled());
    expect_bit_identical(plain, off);
    EXPECT_TRUE(plain.merged_ledger() == off.merged_ledger());
    EXPECT_EQ(plain.merged_bill().total_cost, off.merged_bill().total_cost);
}

TEST(fleet_determinism, fleet_seed_actually_matters) {
    const auto a = run_smoke_fleet(1, 42);
    const auto b = run_smoke_fleet(1, 43);
    EXPECT_NE(a->total_welfare(), b->total_welfare());
}

TEST(fleet_determinism, swarm_seeds_are_pairwise_distinct) {
    EXPECT_NE(workload::swarm_seed(42, 0), workload::swarm_seed(42, 1));
    EXPECT_NE(workload::swarm_seed(42, 0), workload::swarm_seed(43, 0));
    // The derived seed depends on the index, not on any execution state:
    // calling it twice gives the same stream.
    EXPECT_EQ(workload::swarm_seed(7, 3), workload::swarm_seed(7, 3));
}

}  // namespace
}  // namespace p2pcd
