#include "vod/emulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "common/contracts.h"

namespace p2pcd::vod {
namespace {

emulator_options small_options(const std::string& scheduler = "auction") {
    emulator_options opts;
    opts.config = workload::scenario_config::small_test();
    opts.scheduler = scheduler;
    return opts;
}

// Zero bidding rounds and a negative or non-finite latency factor are
// rejected at construction, each by name.
TEST(emulator, rejects_zero_rounds_and_bad_latency) {
    const auto rejects = [](emulator_options bad, const std::string& field) {
        try {
            emulator emu(std::move(bad));
            ADD_FAILURE() << field << " was accepted";
        } catch (const contract_violation& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    };
    auto opts = small_options();
    opts.bid_rounds_per_slot = 0;
    rejects(opts, "bid_rounds_per_slot");
    for (const double bad : {-1.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
        opts = small_options();
        opts.latency_per_cost = bad;
        rejects(opts, "latency_per_cost");
    }
    opts = small_options();
    opts.bid_rounds_per_slot = 1;
    opts.latency_per_cost = 0.0;
    EXPECT_NO_THROW(emulator{std::move(opts)});
}

TEST(emulator, seeds_are_provisioned_per_isp_and_video) {
    auto opts = small_options();
    opts.config.initial_peers = 0;
    emulator emu(opts);
    // 5 videos × 3 ISPs × 1 seed; no viewers yet.
    EXPECT_EQ(emu.topology().num_peers(), 15u);
    EXPECT_EQ(emu.online_viewers(), 0u);
}

// Each bidding round gets ⌈remaining / rounds left⌉ of an uploader's slot
// budget. A seed capacity of INT32_MAX (which validate() accepts) must not
// overflow that rounding: capacity far beyond demand never binds, so it
// schedules exactly like INT32_MAX − 4, the largest capacity whose 5-round
// rounding term fits 32 bits.
TEST(emulator, round_share_of_a_near_int32_max_capacity_does_not_overflow) {
    constexpr std::int32_t top = std::numeric_limits<std::int32_t>::max();
    auto run = [](std::int32_t seed_capacity) {
        auto opts = small_options();
        const auto per_slot = static_cast<double>(opts.config.chunks_per_slot());
        double multiple = static_cast<double>(seed_capacity) / per_slot;
        while (static_cast<std::int64_t>(multiple * per_slot) < seed_capacity)
            multiple = std::nextafter(multiple, std::numeric_limits<double>::infinity());
        opts.config.seed_upload_multiple = multiple;
        auto emu = std::make_unique<emulator>(opts);
        EXPECT_EQ(emu->peers().upload_capacity(0), seed_capacity);
        for (int k = 0; k < 4; ++k) (void)emu->step();
        return emu;
    };
    const auto at_max = run(top);
    const auto below = run(top - 4);
    ASSERT_EQ(at_max->slots().size(), below->slots().size());
    for (std::size_t k = 0; k < at_max->slots().size(); ++k) {
        EXPECT_EQ(at_max->slots()[k].transfers, below->slots()[k].transfers)
            << "slot " << k;
        EXPECT_EQ(at_max->slots()[k].social_welfare, below->slots()[k].social_welfare)
            << "slot " << k;
    }
    const peer_table& a = at_max->peers();
    const peer_table& b = below->peers();
    ASSERT_EQ(a.rows(), b.rows());
    std::uint64_t seed_uploads = 0;
    for (std::size_t row = 0; row < a.rows(); ++row) {
        EXPECT_EQ(a.lifetime(row).chunks_uploaded, b.lifetime(row).chunks_uploaded)
            << "row " << row;
        if (a.is_seed(row)) seed_uploads += a.lifetime(row).chunks_uploaded;
    }
    EXPECT_GT(seed_uploads, 0u);
}

TEST(emulator, static_run_produces_slot_metrics) {
    emulator emu(small_options());
    emu.run();
    const auto& slots = emu.slots();
    ASSERT_EQ(slots.size(), 6u);  // 60 s horizon / 10 s slots
    for (std::size_t k = 0; k < slots.size(); ++k) {
        EXPECT_DOUBLE_EQ(slots[k].time, 10.0 * static_cast<double>(k));
        EXPECT_GE(slots[k].inter_isp_fraction, 0.0);
        EXPECT_LE(slots[k].inter_isp_fraction, 1.0);
        EXPECT_GE(slots[k].miss_rate, 0.0);
        EXPECT_LE(slots[k].miss_rate, 1.0);
    }
    EXPECT_GT(emu.total_welfare(), 0.0) << "auction welfare must be positive";
}

TEST(emulator, run_is_single_shot) {
    emulator emu(small_options());
    emu.run();
    EXPECT_THROW(emu.run(), contract_violation);
}

TEST(emulator, run_refuses_after_manual_steps) {
    // run() emulates the whole horizon from t=0; after manual step()s that
    // contract can no longer hold, so it must fail loudly instead of
    // silently emulating a shifted horizon.
    emulator emu(small_options());
    (void)emu.step();
    EXPECT_THROW(emu.run(), contract_violation);
}

TEST(emulator, random_scheduler_is_deterministic_and_round_seeded) {
    // The random baseline derives its per-round seed from (slot, round) via
    // sim::rng_factory: same master seed → identical runs, different master
    // seeds → different visiting orders (a regression test for the old
    // float-derived seeding, which collided across rounds).
    auto opts = small_options("random");
    emulator a(opts);
    emulator b(opts);
    a.run();
    b.run();
    ASSERT_EQ(a.slots().size(), b.slots().size());
    for (std::size_t k = 0; k < a.slots().size(); ++k) {
        EXPECT_EQ(a.slots()[k].transfers, b.slots()[k].transfers);
        EXPECT_DOUBLE_EQ(a.slots()[k].social_welfare, b.slots()[k].social_welfare);
    }

    auto other = opts;
    other.config.master_seed = opts.config.master_seed + 1;
    emulator c(other);
    c.run();
    bool any_difference = false;
    for (std::size_t k = 0; k < a.slots().size() && !any_difference; ++k)
        any_difference = a.slots()[k].transfers != c.slots()[k].transfers;
    EXPECT_TRUE(any_difference) << "different master seeds must change the run";
}

TEST(emulator, deterministic_for_fixed_seed) {
    emulator a(small_options());
    emulator b(small_options());
    a.run();
    b.run();
    ASSERT_EQ(a.slots().size(), b.slots().size());
    for (std::size_t k = 0; k < a.slots().size(); ++k) {
        EXPECT_DOUBLE_EQ(a.slots()[k].social_welfare, b.slots()[k].social_welfare);
        EXPECT_EQ(a.slots()[k].transfers, b.slots()[k].transfers);
        EXPECT_EQ(a.slots()[k].chunks_missed, b.slots()[k].chunks_missed);
    }
}

TEST(emulator, arrivals_grow_the_population) {
    auto opts = small_options();
    opts.config.initial_peers = 0;
    opts.config.arrival_rate = 1.0;
    emulator emu(opts);
    emu.run();
    EXPECT_GT(emu.online_viewers(), 20u) << "~1 peer/s over 60 s, minus finishers";
    const auto& slots = emu.slots();
    EXPECT_GT(slots.back().online_peers, slots.front().online_peers);
}

TEST(emulator, churn_departures_shrink_the_population) {
    auto opts = small_options();
    opts.config.arrival_rate = 1.0;
    opts.config.initial_peers = 0;
    opts.config.departure_probability = 0.0;
    emulator stay(opts);
    stay.run();

    opts.config.departure_probability = 0.9;
    opts.config.master_seed = opts.config.master_seed;  // same workload seed
    emulator quit(opts);
    quit.run();
    EXPECT_LT(quit.online_viewers(), stay.online_viewers());
}

TEST(emulator, viewers_finish_and_depart) {
    auto opts = small_options();
    // 1 MB video = 128 chunks = 12.8 s; a 60 s horizon outlives every viewer.
    opts.config.initial_peers = 10;
    opts.config.arrival_rate = 0.0;
    emulator emu(opts);
    emu.run();
    EXPECT_EQ(emu.online_viewers(), 0u) << "all initial viewers watched to the end";
}

TEST(emulator, locality_baseline_runs_and_underperforms_auction) {
    emulator auction_emu(small_options("auction"));
    emulator locality_emu(small_options("simple-locality"));
    auction_emu.run();
    locality_emu.run();
    EXPECT_GT(auction_emu.total_welfare(), locality_emu.total_welfare())
        << "the paper's headline comparison must hold end-to-end";
}

TEST(emulator, exact_bounds_auction_welfare) {
    // One bidding round per slot so slot 0 is a single assignment problem
    // (with multiple rounds the slot is a *sequence* of problems and the
    // per-slot bound does not apply); same seed → identical slot-0 problem.
    auto auction_opts = small_options("auction");
    auction_opts.bid_rounds_per_slot = 1;
    auto exact_opts = small_options("exact");
    exact_opts.bid_rounds_per_slot = 1;
    emulator auction_emu(auction_opts);
    emulator exact_emu(exact_opts);
    auction_emu.run();
    exact_emu.run();
    EXPECT_LE(auction_emu.slots()[0].social_welfare,
              exact_emu.slots()[0].social_welfare + 0.5);
}

TEST(emulator, miss_accounting_is_consistent) {
    emulator emu(small_options());
    emu.run();
    std::uint64_t due = 0;
    std::uint64_t missed = 0;
    for (const auto& s : emu.slots()) {
        EXPECT_LE(s.chunks_missed, s.chunks_due);
        due += s.chunks_due;
        missed += s.chunks_missed;
    }
    EXPECT_GT(due, 0u);
    EXPECT_NEAR(emu.overall_miss_rate(),
                static_cast<double>(missed) / static_cast<double>(due), 1e-12);
}

TEST(emulator, distributed_slots_record_price_series) {
    auto opts = small_options();
    opts.distributed_from = 10.0;
    opts.distributed_to = 30.0;
    opts.latency_per_cost = 0.02;
    emulator emu(opts);
    emu.run();
    const auto& series = emu.price_series();
    ASSERT_FALSE(series.empty()) << "distributed slots must probe the price";
    for (const auto& point : series.points()) {
        EXPECT_GE(point.time, 10.0);
        EXPECT_LE(point.time, 30.0);
    }
    EXPECT_GT(emu.total_welfare(), 0.0);
}

// The distributed window is decided once per slot, by the slot's start: an
// edge inside a slot never splits that slot between the runtime and the
// synchronous solver. On small_test (10 s slots of five 2 s rounds) a
// 15–35 s window selects exactly the slots starting at 20 s and 30 s, so it
// must run exactly like the slot-aligned 20–40 s window, and the price
// series must restart at 0 at both slot starts and stay inside those slots.
// Videos outlast the horizon and upload capacity is scarce, so viewers
// keep bidding through the window and prices move.
TEST(emulator, distributed_window_edge_inside_a_slot_keeps_the_slot_whole) {
    auto run = [](double from, double to) {
        auto opts = small_options();
        opts.config.video_size_mb = 6.0;  // 768 chunks ≈ 77 s of video
        opts.config.seed_upload_multiple = 1.0;
        opts.config.peer_upload_min_multiple = 0.5;
        opts.config.peer_upload_max_multiple = 1.0;
        opts.distributed_from = from;
        opts.distributed_to = to;
        opts.latency_per_cost = 0.02;
        auto emu = std::make_unique<emulator>(opts);
        emu->run();
        return emu;
    };
    const auto mid = run(15.0, 35.0);
    const auto aligned = run(20.0, 40.0);
    ASSERT_EQ(mid->slots().size(), aligned->slots().size());
    for (std::size_t k = 0; k < mid->slots().size(); ++k) {
        const slot_metrics& a = mid->slots()[k];
        const slot_metrics& b = aligned->slots()[k];
        EXPECT_EQ(a.requests, b.requests) << "slot " << k;
        EXPECT_EQ(a.transfers, b.transfers) << "slot " << k;
        EXPECT_EQ(a.auction_bids, b.auction_bids) << "slot " << k;
        EXPECT_EQ(a.social_welfare, b.social_welfare) << "slot " << k;
    }

    const auto& points = mid->price_series().points();
    const auto& aligned_points = aligned->price_series().points();
    ASSERT_EQ(points.size(), aligned_points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].time, aligned_points[i].time) << "point " << i;
        EXPECT_EQ(points[i].value, aligned_points[i].value) << "point " << i;
    }
    for (double start : {20.0, 30.0}) {
        const auto restart = std::find_if(
            points.begin(), points.end(),
            [&](const metrics::sample_point& p) { return p.time >= start; });
        ASSERT_NE(restart, points.end()) << "no point from " << start << " s";
        EXPECT_EQ(restart->time, start) << "slot " << start << " s has no restart";
        EXPECT_EQ(restart->value, 0.0) << "slot " << start << " s has no restart";
    }
    EXPECT_GT(points.size(), 2u) << "no price moved in the window";
    for (const auto& point : points) {
        EXPECT_GE(point.time, 20.0) << "a round outside the distributed slots";
        EXPECT_LT(point.time, 40.0) << "a round outside the distributed slots";
    }
}

TEST(emulator, step_advances_one_slot) {
    emulator emu(small_options());
    const auto& m0 = emu.step();
    EXPECT_DOUBLE_EQ(m0.time, 0.0);
    EXPECT_DOUBLE_EQ(emu.now(), 10.0);
    const auto& m1 = emu.step();
    EXPECT_DOUBLE_EQ(m1.time, 10.0);
    EXPECT_EQ(emu.slots().size(), 2u);
}

}  // namespace
}  // namespace p2pcd::vod
