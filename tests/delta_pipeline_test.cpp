// Randomized churn property suite for the delta slot pipeline, the
// emulator's only problem builder: the incremental build must reproduce the
// reference full rebuild bit for bit on every bidding round — under Poisson
// arrivals, early quitters, finish-departures, the playback end-clamp and
// epoch re-prices. Both emission modes are covered: the auction's rounds list
// profitable candidates only (w ≤ v), every other scheduler's and the
// message-level runtime's rounds list every eligible holder.
//
// Every run here is shadow-checked: delta_shadow_check makes the emulator
// run the reference builder after every incremental build and throw on any
// bit-level difference (problem, request rows, uploader rows). The oracle
// must observe and never steer, so a shadow-checked run must also match an
// unchecked twin exactly (welfare compared as exact doubles).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

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

INSTANTIATE_TEST_SUITE_P(seeds, delta_pipeline, ::testing::Range(0, 4));

// Full candidate lists: a scheduler other than the auction sees every
// eligible holder, so nothing is pruned, and the delta build must still
// match the reference rebuild over churn.
TEST(delta_pipeline_full_lists, greedy_welfare_matches_full_rebuild_over_churn) {
    const emulator_options opts = churny_options(3301, "greedy-welfare");
    emulator checked(opts);
    step_against_unchecked_twin(checked, opts, 30);
    EXPECT_GT(counter_value(checked, "build.candidates"), 0u);
    EXPECT_EQ(counter_value(checked, "build.pruned_candidates"), 0u);
    EXPECT_GT(counter_value(checked, "delta.reused_rows"), 0u);
}

// A distributed window puts both modes in one run: the synchronous auction's
// slots build profitable candidates only, the window's slots run on the
// message-level runtime with full lists. The shadow check must hold on every
// round of both kinds, and only the synchronous slots may prune.
TEST(delta_pipeline_full_lists, distributed_window_mixes_both_modes) {
    emulator_options opts = churny_options(5507);
    opts.config.horizon_seconds = 200.0;  // 20 slots
    opts.distributed_from = 60.0;         // slots 6..11 on the runtime
    opts.distributed_to = 120.0;
    opts.latency_per_cost = 0.02;
    emulator checked(opts);
    std::uint64_t pruned_before = 0;
    std::size_t slot = 0;
    std::size_t pruning_slots = 0;
    step_against_unchecked_twin(checked, opts, 20, [&](const emulator&) {
        const std::uint64_t pruned = counter_value(checked, "build.pruned_candidates");
        const double start = 10.0 * static_cast<double>(slot);
        if (start >= 60.0 && start < 120.0)
            EXPECT_EQ(pruned, pruned_before) << "runtime slot " << slot << " pruned";
        else
            pruning_slots += pruned > pruned_before;
        pruned_before = pruned;
        ++slot;
    });
    EXPECT_GT(pruning_slots, 0u) << "no synchronous slot pruned a candidate";
}

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
    // Under the auction both row kinds filter to profitable candidates.
    EXPECT_GT(counter_value(checked, "build.pruned_candidates"), 0u);
}

// The pruned-slab counters: economy_smoke's auction rounds leave out the
// holders whose link cost exceeds the chunk's value, simple-locality's keep
// them all. With one bidding round per slot, slot 0's problem has the same
// uploaders under every scheduler, so the auction's emitted plus pruned
// candidates must equal the full list simple-locality was given.
TEST(delta_pipeline_counters, pruned_candidates_complete_the_full_lists) {
    auto one_slot = [](const std::string& scheduler) {
        emulator_options opts;
        opts.config = workload::scenario_config::economy_smoke();
        opts.scheduler = scheduler;
        opts.bid_rounds_per_slot = 1;
        opts.delta_shadow_check = true;
        auto emu = std::make_unique<emulator>(std::move(opts));
        (void)emu->step();
        return emu;
    };
    const auto auction = one_slot("auction");
    const auto locality = one_slot("simple-locality");
    const std::uint64_t emitted = counter_value(*auction, "build.candidates");
    const std::uint64_t pruned = counter_value(*auction, "build.pruned_candidates");
    EXPECT_GT(pruned, 0u);
    EXPECT_EQ(counter_value(*locality, "build.pruned_candidates"), 0u);
    EXPECT_EQ(emitted + pruned, counter_value(*locality, "build.candidates"));
    // Every request row is kept, emptied or not.
    EXPECT_EQ(auction->slots()[0].requests, locality->slots()[0].requests);
}

}  // namespace
}  // namespace p2pcd::vod
