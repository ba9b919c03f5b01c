// Hash spec and constants of the slot-pipeline equivalence goldens, shared
// by the test suite (tests/slot_golden_test.cpp) and bench/slot_pipeline
// (which adds this directory to its include path). Test-only: nothing in
// the library reads them.
//
// The slot-pipeline refactor (dense peer table + incremental tracker + CSR
// neighbor arena) is required to be *behavior-preserving*: neighbor lists,
// schedules and per-slot metrics bit-identical to the pre-refactor emulator.
// These helpers define the exact serialization both sides hash — the golden
// constants checked against them were captured from the pre-refactor
// emulator using this same spec.
//
// The fold is FNV-1a-style over whole 64-bit words (not bytes):
//     h = (h ^ word) * 0x100000001b3, seeded with 0xcbf29ce484222325.
// Doubles enter via bit_cast, so "equal" means bit-identical IEEE values.
#ifndef P2PCD_TESTS_PIPELINE_GOLDEN_H
#define P2PCD_TESTS_PIPELINE_GOLDEN_H

#include <bit>
#include <cstdint>
#include <string_view>

#include "vod/emulator.h"

namespace p2pcd::vod {

inline constexpr std::uint64_t golden_seed = 0xcbf29ce484222325ull;
// Separates variable-length neighbor lists in the fold.
inline constexpr std::uint64_t golden_sentinel = 0xffffffffffffffffull;

inline void golden_mix(std::uint64_t& h, std::uint64_t word) {
    h = (h ^ word) * 0x100000001b3ull;
}

inline void golden_mix(std::uint64_t& h, double value) {
    golden_mix(h, std::bit_cast<std::uint64_t>(value));
}

// Every field of one slot's metrics, in declaration order.
inline void golden_mix_metrics(std::uint64_t& h, const slot_metrics& m) {
    golden_mix(h, m.time);
    golden_mix(h, static_cast<std::uint64_t>(m.online_peers));
    golden_mix(h, static_cast<std::uint64_t>(m.requests));
    golden_mix(h, static_cast<std::uint64_t>(m.transfers));
    golden_mix(h, static_cast<std::uint64_t>(m.inter_isp_transfers));
    golden_mix(h, m.inter_isp_fraction);
    golden_mix(h, m.social_welfare);
    golden_mix(h, static_cast<std::uint64_t>(m.chunks_due));
    golden_mix(h, static_cast<std::uint64_t>(m.chunks_missed));
    golden_mix(h, m.miss_rate);
    golden_mix(h, static_cast<std::uint64_t>(m.auction_bids));
}

// One slot's neighbor lists: every live viewer in table-row order, each as
// its row followed by its neighbors' peer ids, closed by the sentinel.
inline void golden_mix_neighbors(std::uint64_t& h, const emulator& emu) {
    const peer_table& peers = emu.peers();
    for (std::size_t row = 0; row < peers.rows(); ++row) {
        if (peers.is_seed(row) || peers.departed(row)) continue;
        golden_mix(h, static_cast<std::uint64_t>(row));
        for (std::uint32_t nb : emu.neighbor_rows(row))
            golden_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                              peers.id(nb).value())));
        golden_mix(h, golden_sentinel);
    }
}

// The pre-refactor golden hashes, captured 2026-07-31 from the pre-refactor
// emulator (PR 4 head, commit e4073a5) with default emulator options
// (auction scheduler, 5 bidding rounds) on GCC 12 / x86-64.
struct golden_run_hashes {
    std::string_view scenario;
    std::uint64_t neighbors = 0;
    std::uint64_t metrics = 0;
    std::uint64_t final_state = 0;
};

inline constexpr golden_run_hashes golden_runs[] = {
    {"economy_smoke", 0xba4895265c419f4bull, 0x1fab6197dc28b1cfull,
     0x3a01007e31adc9c2ull},
    {"metro_5k", 0x0f9d775a1fbf7a07ull, 0xf616642b36910d2dull,
     0x930e62cc5a7c4186ull},
    {"flash_crowd_10k", 0xfdcc0b162daeb7bfull, 0x2291fa50bb6553a0ull,
     0x0ac5809b40118d9eull},
};

inline constexpr const golden_run_hashes* golden_for(std::string_view scenario) {
    for (const auto& g : golden_runs)
        if (g.scenario == scenario) return &g;
    return nullptr;
}

// The paper's Sec. V baseline ("simple-locality", default 3 knock rounds)
// over economy_smoke's full horizon. Captured 2026-10-18 on GCC 12 / x86-64
// from the stable-sort implementation that the linear-time successor scan
// replaced, so it pins that rewrite's bit-identity end to end.
inline constexpr golden_run_hashes golden_locality_economy = {
    "economy_smoke", 0xba4895265c419f4bull, 0xfcea30e075e2885full,
    0x3915d140032db74full};

// Metrics hash of the first 3 slots of economy_smoke under the exact
// scheduler (the transportation simplex) — the CI smoke pin for the exact
// solver (see the simplex golden step in .github/workflows/ci.yml). Captured
// 2026-08-08 on GCC 12 / x86-64 under the simplex's former registry name,
// "transportation-simplex".
inline constexpr std::uint64_t golden_simplex_smoke_metrics = 0xbab1d6206a36448aull;

// The constants pin exact IEEE doubles, so they are only enforced on the
// toolchain family they were captured with (a different compiler/libm may
// legitimately fold FP differently).
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
inline constexpr bool golden_toolchain = true;
#else
inline constexpr bool golden_toolchain = false;
#endif

}  // namespace p2pcd::vod

#endif  // P2PCD_TESTS_PIPELINE_GOLDEN_H
