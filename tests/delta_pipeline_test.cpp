// Randomized churn property suite for the delta slot pipeline, the
// emulator's only problem builder: the incremental build must reproduce the
// reference full rebuild bit for bit on every bidding round — under Poisson
// arrivals, early quitters, finish-departures, the playback end-clamp and
// epoch re-prices — and the pipeline must stay thread-count invariant.
//
// Every run here is shadow-checked: delta_shadow_check makes the emulator
// run the reference builder after every incremental build and throw on any
// bit-level difference (problem, request rows, uploader rows). The oracle
// must observe and never steer, so a shadow-checked run must also match an
// unchecked twin exactly (welfare compared as exact doubles).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "vod/emulator.h"

namespace p2pcd::vod {
namespace {

emulator_options churny_options(std::uint64_t seed,
                                const std::string& scheduler = "auction") {
    emulator_options opts;
    // economy_smoke: 128-chunk videos (viewers finish within ~2 slots, so
    // the population churns continuously and the prefetch window hits the
    // end clamp), plus 3-slot pricing epochs so link costs re-price between
    // slots. Arrivals and early quitters change every row's segment.
    opts.config = workload::scenario_config::economy_smoke();
    opts.config.arrival_rate = 1.5;
    opts.config.departure_probability = 0.5;
    opts.config.horizon_seconds = 650.0;  // 65 slots
    opts.config.master_seed = seed;
    opts.scheduler = scheduler;
    opts.delta_shadow_check = true;  // explicit: on even in release builds
    return opts;
}

std::uint64_t counter_value(emulator& emu, const std::string& name) {
    auto& reg = emu.counters();
    for (std::size_t i = 0; i < reg.entries().size(); ++i)
        if (reg.entries()[i].name == name) return reg.counter_at(i);
    ADD_FAILURE() << "no counter named " << name;
    return 0;
}

// Steps `checked` (shadow check on: step() compares every round with the
// reference rebuild and throws on divergence) in lockstep with an unchecked
// twin built from `opts`; their slot metrics must match exactly.
// `after_step` sees `checked` after each slot.
void step_against_unchecked_twin(
    emulator& checked, emulator_options opts, std::size_t slots,
    const std::function<void(const emulator&)>& after_step = {}) {
    opts.delta_shadow_check = false;
    emulator plain(std::move(opts));
    for (std::size_t k = 0; k < slots; ++k) {
        const slot_metrics& mc = checked.step();
        const slot_metrics& mp = plain.step();
        if (after_step) after_step(checked);
        ASSERT_EQ(mc.requests, mp.requests) << "slot " << k;
        ASSERT_EQ(mc.transfers, mp.transfers) << "slot " << k;
        ASSERT_EQ(mc.online_peers, mp.online_peers) << "slot " << k;
        ASSERT_EQ(mc.chunks_missed, mp.chunks_missed) << "slot " << k;
        ASSERT_EQ(mc.auction_bids, mp.auction_bids) << "slot " << k;
        // Identical problems and schedules sum welfare in the same order —
        // the doubles must match exactly, not approximately.
        ASSERT_EQ(mc.social_welfare, mp.social_welfare) << "slot " << k;
    }
}

class delta_pipeline : public ::testing::TestWithParam<int> {};

TEST_P(delta_pipeline, incremental_build_matches_full_rebuild_over_churn) {
    const auto seed = static_cast<std::uint64_t>(GetParam()) * 131 + 7;
    const emulator_options opts = churny_options(seed);
    emulator checked(opts);
    step_against_unchecked_twin(checked, opts, 65);
    // The run must actually have exercised both delta paths: round 0 of
    // every slot transposes each row, later rounds maintain it.
    EXPECT_GT(counter_value(checked, "delta.dirty_rows"), 0u);
    EXPECT_GT(counter_value(checked, "delta.reused_rows"), 0u);
}

TEST_P(delta_pipeline, jacobi_delta_matches_full_rebuild) {
    const auto seed = static_cast<std::uint64_t>(GetParam()) * 59 + 13;
    const emulator_options opts = churny_options(seed, "auction-par");
    emulator checked(opts);
    step_against_unchecked_twin(checked, opts, 20);
}

INSTANTIATE_TEST_SUITE_P(seeds, delta_pipeline, ::testing::Range(0, 4));

// Rows with more than 32 neighbors do not fit the masks and run the
// reference row builder inside the incremental build. A crowded two-video
// swarm with 40-neighbor lists puts such rows next to mask rows in the
// same rounds; the shadow check must hold for both kinds.
TEST(delta_pipeline_fallback, rows_over_32_neighbors_match_full_rebuild) {
    emulator_options opts = churny_options(2024);
    opts.config.num_videos = 2;
    opts.config.neighbor_count = 40;
    opts.config.arrival_rate = 4.0;
    opts.config.horizon_seconds = 200.0;  // 20 slots
    emulator checked(opts);
    // Both row kinds must occur: count the arena lengths each slot built.
    std::size_t wide = 0;
    std::size_t narrow = 0;
    step_against_unchecked_twin(checked, opts, 20, [&](const emulator& emu) {
        for (std::size_t row = 0; row < emu.peers().rows(); ++row) {
            const std::size_t n = emu.neighbor_rows(row).size();
            if (n > 32) ++wide;
            else if (n > 0) ++narrow;
        }
    });
    EXPECT_GT(wide, 0u) << "no row exceeded the 32-neighbor mask width";
    EXPECT_GT(narrow, 0u) << "no row fit the masks";
}

// The delta build is emulator-side and single-threaded; the Jacobi solver's
// determinism contract (never a function of num_threads) must hold on the
// shadow-checked pipeline as well.
TEST(delta_pipeline_threads, delta_path_is_thread_count_invariant) {
    auto run = [](std::size_t threads) {
        emulator_options opts = churny_options(977, "auction-par");
        opts.config.horizon_seconds = 120.0;  // 12 slots
        opts.parallel_auction.num_threads = threads;
        opts.parallel_auction.grain = 64;  // force real splits at test scale
        emulator emu(opts);
        std::vector<slot_metrics> out;
        for (int k = 0; k < 12; ++k) out.push_back(emu.step());
        return out;
    };
    const auto base = run(1);
    for (std::size_t threads : {2u, 4u, 16u}) {
        const auto other = run(threads);
        ASSERT_EQ(base.size(), other.size());
        for (std::size_t k = 0; k < base.size(); ++k) {
            ASSERT_EQ(base[k].transfers, other[k].transfers)
                << "threads " << threads << " slot " << k;
            ASSERT_EQ(base[k].social_welfare, other[k].social_welfare)
                << "threads " << threads << " slot " << k;
            ASSERT_EQ(base[k].auction_bids, other[k].auction_bids)
                << "threads " << threads << " slot " << k;
        }
    }
}

// Cross-slot solver warm starts change schedules (they are pinned by their
// own goldens) — but the delta-vs-reference bit-identity contract must hold
// for that solver configuration as well, and the collapsed ε ladder must
// actually engage.
TEST(delta_pipeline_warm, warm_start_slots_keeps_delta_identity) {
    emulator_options opts = churny_options(4242, "auction-par");
    opts.config.horizon_seconds = 200.0;  // 20 slots
    opts.warm_start = warm_start_mode::slots;
    emulator checked(opts);
    step_against_unchecked_twin(checked, opts, 20);
    EXPECT_GT(counter_value(checked, "delta.early_exit_slots"), 0u);
}

}  // namespace
}  // namespace p2pcd::vod
