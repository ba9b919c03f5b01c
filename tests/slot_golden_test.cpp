// Equivalence suite for the slot-pipeline refactor (dense peer table +
// incremental tracker + CSR neighbor arena): the refactor must be
// *behavior-preserving*, so neighbor lists, schedules (observed through
// transfers/welfare/buffers) and per-slot metrics are pinned bit-identical
// to hashes captured from the pre-refactor emulator (AoS peer_state,
// per-peer stable_sort tracker) on the same scenarios.
//
// The constants were captured with GCC/x86-64 (glibc libm). They pin exact
// IEEE doubles, so a different compiler/libm may legitimately fold FP
// differently; on such toolchains the comparisons are skipped unless
// P2PCD_GOLDEN_STRICT=1. Set P2PCD_GOLDEN_DUMP=1 to print this build's
// hashes (e.g. to re-capture after an intentional behavior change).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include "obs/jsonl_sink.h"
#include "pipeline_golden.h"
#include "vod/emulator.h"
#include "workload/scenario_registry.h"

namespace p2pcd::vod {
namespace {

struct run_hashes {
    std::uint64_t neighbors = golden_seed;
    std::uint64_t metrics = golden_seed;
    std::uint64_t final_state = golden_seed;
};

// Knobs a golden run may vary from the default emulator configuration.
struct scenario_run_options {
    std::string scheduler = "auction";
    std::size_t solver_threads = 1;  // auction-par only
    warm_start_mode warm_start = warm_start_mode::off;
    std::size_t max_slots = 0;  // 0 = the scenario's full horizon
    bool telemetry = false;  // full pipeline: counters + spans + JSONL sink
};

run_hashes run_scenario(const std::string& name,
                        const scenario_run_options& ro = {}) {
    emulator_options opts;
    opts.config = workload::builtin_scenarios().make(name);
    opts.scheduler = ro.scheduler;
    opts.parallel_auction.num_threads = ro.solver_threads;
    opts.warm_start = ro.warm_start;
    std::ostringstream telemetry_out;
    std::optional<obs::jsonl_sink> sink;
    if (ro.telemetry) {
        sink.emplace(telemetry_out);
        opts.telemetry.sink = &*sink;
        opts.telemetry.record_spans = true;
    }
    std::size_t total = opts.config.num_slots();
    if (ro.max_slots != 0) total = std::min(total, ro.max_slots);
    emulator emu(std::move(opts));

    run_hashes h;
    for (std::size_t k = 0; k < total; ++k) {
        const auto& m = emu.step();
        std::uint64_t h_slot_nbr = golden_seed;
        golden_mix_neighbors(h_slot_nbr, emu);
        std::uint64_t h_slot_met = golden_seed;
        golden_mix_metrics(h_slot_met, m);
        golden_mix(h.neighbors, h_slot_nbr);
        golden_mix(h.metrics, h_slot_met);
    }
    // Final per-peer state: lifetime counters for every row; buffer
    // occupancy only for live rows (departed buffers are reclaimed).
    const peer_table& peers = emu.peers();
    for (std::size_t row = 0; row < peers.rows(); ++row) {
        golden_mix(h.final_state, static_cast<std::uint64_t>(row));
        const auto& life = peers.lifetime(row);
        golden_mix(h.final_state, life.chunks_due);
        golden_mix(h.final_state, life.chunks_missed);
        golden_mix(h.final_state, life.chunks_downloaded);
        golden_mix(h.final_state, life.chunks_uploaded);
        if (!peers.departed(row))
            golden_mix(h.final_state,
                       static_cast<std::uint64_t>(peers.buffer(row).count()));
    }
    return h;
}

void check_against(const std::string& name, const char* tag,
                   const golden_run_hashes* golden, const run_hashes& h) {
    ASSERT_NE(golden, nullptr) << name << " has no captured golden";
    if (std::getenv("P2PCD_GOLDEN_DUMP") != nullptr)
        std::printf("GOLDEN%s %s neighbors %016llxull metrics %016llxull final %016llxull\n",
                    tag, name.c_str(), static_cast<unsigned long long>(h.neighbors),
                    static_cast<unsigned long long>(h.metrics),
                    static_cast<unsigned long long>(h.final_state));
    if (!golden_toolchain && std::getenv("P2PCD_GOLDEN_STRICT") == nullptr)
        GTEST_SKIP() << "golden constants were captured with GCC/x86-64; "
                        "set P2PCD_GOLDEN_STRICT=1 to compare anyway";
    EXPECT_EQ(h.neighbors, golden->neighbors) << name << ": neighbor lists diverged";
    EXPECT_EQ(h.metrics, golden->metrics) << name << ": per-slot metrics diverged";
    EXPECT_EQ(h.final_state, golden->final_state)
        << name << ": final peer state diverged";
}

void check_scenario(const std::string& name) {
    check_against(name, "", golden_for(name), run_scenario(name));
}

void check_parallel_scenario(const std::string& name) {
    check_against(name, "-PAR", golden_parallel_for(name),
                  run_scenario(name, {.scheduler = "auction-par"}));
}

// The solver-level determinism contract observed end-to-end: a full emulator
// run under auction-par hashes identically at every thread count, so prices
// and schedules never depend on the partitioning. Self-comparing, hence
// enforced on every toolchain (no golden constants involved).
void check_thread_invariance(const std::string& name, warm_start_mode warm_start,
                             std::size_t max_slots = 0) {
    const run_hashes ref = run_scenario(
        name, {.scheduler = "auction-par", .solver_threads = 1,
               .warm_start = warm_start, .max_slots = max_slots});
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{16}}) {
        const run_hashes h = run_scenario(
            name, {.scheduler = "auction-par", .solver_threads = threads,
                   .warm_start = warm_start, .max_slots = max_slots});
        EXPECT_EQ(h.neighbors, ref.neighbors) << name << " @" << threads;
        EXPECT_EQ(h.metrics, ref.metrics)
            << name << " @" << threads << ": schedules depend on thread count";
        EXPECT_EQ(h.final_state, ref.final_state) << name << " @" << threads;
    }
}

// Constants: vod::golden_runs (tests/pipeline_golden.h), captured from
// the pre-refactor emulator. Every run here goes through the incremental
// (delta) problem build, the emulator's only builder, so these goldens also
// pin its bit-identity with the pre-refactor full rebuild.
TEST(slot_golden, economy_smoke_matches_pre_refactor_emulator) {
    check_scenario("economy_smoke");
}

TEST(slot_golden, metro_5k_matches_pre_refactor_emulator) {
    check_scenario("metro_5k");
}

TEST(slot_golden, flash_crowd_10k_matches_pre_refactor_emulator) {
    check_scenario("flash_crowd_10k");
}

// The Jacobi auction's own fixed point, pinned per scenario (constants:
// vod::golden_parallel_runs). A drift here means the parallel bid/merge
// pipeline changed behavior, not just speed.
TEST(slot_golden, economy_smoke_parallel_auction_pinned) {
    check_parallel_scenario("economy_smoke");
}

TEST(slot_golden, metro_5k_parallel_auction_pinned) {
    check_parallel_scenario("metro_5k");
}

TEST(slot_golden, flash_crowd_10k_parallel_auction_pinned) {
    check_parallel_scenario("flash_crowd_10k");
}

TEST(slot_golden, parallel_auction_thread_invariant_economy_smoke) {
    check_thread_invariance("economy_smoke", warm_start_mode::off);
}

// Warm-started prices carry across rounds, so any cross-thread price
// divergence would cascade into every later slot's schedule — this variant
// pins final prices, not just schedules.
TEST(slot_golden, parallel_auction_thread_invariant_economy_smoke_warm) {
    check_thread_invariance("economy_smoke", warm_start_mode::rounds);
}

// Every metro slot runs at full 5 000-peer scale, so a 4-slot prefix at each
// thread count already drives the bid/merge path through real contention;
// the full-horizon fixed point is pinned by the golden above at 1 thread.
TEST(slot_golden, parallel_auction_thread_invariant_metro_5k) {
    check_thread_invariance("metro_5k", warm_start_mode::off, 4);
}

// The crowd builds over the horizon; 150 slots (~6 000 peers by the cut)
// keeps four full-scale runs affordable on the CI box.
TEST(slot_golden, parallel_auction_thread_invariant_flash_crowd_10k) {
    check_thread_invariance("flash_crowd_10k", warm_start_mode::off, 150);
}

// Telemetry may observe, never steer: the goldens must hold with the full
// observability pipeline enabled (counters + span recorder + JSONL sink),
// and the hashes must be bit-identical to a telemetry-off run. The
// cross-mode comparison is self-contained, so it is enforced on every
// toolchain; the golden comparison follows the usual toolchain gate.
TEST(slot_golden, telemetry_on_and_off_schedules_identical) {
    const run_hashes off = run_scenario("economy_smoke");
    const run_hashes on = run_scenario("economy_smoke", {.telemetry = true});
    EXPECT_EQ(on.neighbors, off.neighbors) << "telemetry changed neighbor lists";
    EXPECT_EQ(on.metrics, off.metrics) << "telemetry changed schedules";
    EXPECT_EQ(on.final_state, off.final_state) << "telemetry changed peer state";
}

// Cross-slot warm starts intentionally change schedules (final prices seed
// the next slot, and under ε-scaling a converged re-run collapses the
// ladder to the target ε), so they are pinned by their own constants
// (vod::golden_warm_slots_economy{,_par}) rather than the cold-start goldens.
TEST(slot_golden, economy_smoke_warm_slots_pinned) {
    check_against("economy_smoke", "-WARMSLOTS", &golden_warm_slots_economy,
                  run_scenario("economy_smoke",
                               {.warm_start = warm_start_mode::slots}));
}

TEST(slot_golden, economy_smoke_warm_slots_parallel_pinned) {
    check_against("economy_smoke", "-WARMSLOTS-PAR",
                  &golden_warm_slots_economy_par,
                  run_scenario("economy_smoke",
                               {.scheduler = "auction-par",
                                .warm_start = warm_start_mode::slots}));
}

TEST(slot_golden, economy_smoke_with_telemetry_matches_pre_refactor_emulator) {
    check_against("economy_smoke", "-TELEMETRY", golden_for("economy_smoke"),
                  run_scenario("economy_smoke", {.telemetry = true}));
}

// The locality baseline schedules by cost order and urgency alone, never by
// price, so its run is pinned separately (constant:
// vod::golden_locality_economy).
TEST(slot_golden, economy_smoke_simple_locality_pinned) {
    check_against("economy_smoke", "-LOCALITY", &golden_locality_economy,
                  run_scenario("economy_smoke", {.scheduler = "simple-locality"}));
}

// CI smoke pin for the exact scheduler (the transportation simplex): 3 slots
// of economy_smoke, metrics only (the scheduler is exact, so this doubles as
// a cheap guard that the pivoting rewrite still lands on the optimal
// schedule).
TEST(slot_golden, transportation_simplex_three_slot_smoke) {
    emulator_options opts;
    opts.config = workload::builtin_scenarios().make("economy_smoke");
    opts.scheduler = "exact";
    emulator emu(std::move(opts));
    std::uint64_t h = golden_seed;
    for (int k = 0; k < 3; ++k) golden_mix_metrics(h, emu.step());
    if (std::getenv("P2PCD_GOLDEN_DUMP") != nullptr)
        std::printf("GOLDEN-SIMPLEX economy_smoke_3slot metrics %016llxull\n",
                    static_cast<unsigned long long>(h));
    if (!golden_toolchain && std::getenv("P2PCD_GOLDEN_STRICT") == nullptr)
        GTEST_SKIP() << "golden constants were captured with GCC/x86-64; "
                        "set P2PCD_GOLDEN_STRICT=1 to compare anyway";
    EXPECT_EQ(h, golden_simplex_smoke_metrics)
        << "exact (transportation simplex) smoke metrics diverged";
}

}  // namespace
}  // namespace p2pcd::vod
