// The memory_footprint() protocol and the reclamation paths it audits:
// peer_table capacity accounting under churn (the id-dense row map used to
// grow forever), compact()'s trim-to-fit contract, the emulator's
// per-subsystem breakdown, and the fleet aggregation that counts the shared
// read-only assets exactly once.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/contracts.h"
#include "engine/fleet.h"
#include "metrics/process_stats.h"
#include "net/cost_model.h"
#include "sim/rng.h"
#include "vod/buffer_map.h"
#include "vod/emulator.h"
#include "vod/peer_table.h"
#include "vod/shared_assets.h"
#include "workload/fleet_config.h"
#include "workload/scenario.h"

namespace p2pcd {
namespace {

vod::peer_table::peer_spawn spawn_of(int id) {
    vod::peer_table::peer_spawn s;
    s.id = peer_id(id);
    s.isp = isp_id(0);
    s.video = video_id(0);
    s.upload_capacity = 4;
    return s;
}

// Ten generations of peers with fresh (never-reused) ids: the id-dense row
// map grows with the highest id ever seen, so without compact() the table
// retains ~10x the map a single generation needs. compact() must return
// that — and any column slack — to the allocator without disturbing rows.
TEST(peer_table_memory, churned_id_map_is_reclaimable) {
    vod::peer_table table;
    int next_id = 0;
    std::size_t after_first_cycle = 0;
    for (int cycle = 0; cycle < 10; ++cycle) {
        std::vector<std::size_t> rows;
        rows.reserve(1000);
        for (int i = 0; i < 1000; ++i)
            rows.push_back(table.add(spawn_of(next_id++), vod::buffer_map(256)));
        for (const std::size_t r : rows) {
            table.mark_departed(r);
            table.release(r);
        }
        if (cycle == 0) after_first_cycle = table.memory_bytes();
    }
    EXPECT_EQ(table.num_peers(), 0u);
    EXPECT_EQ(table.rows(), 1000u);  // freed rows were recycled, not appended

    const std::size_t before = table.memory_bytes();
    // The regression this pins: ten id generations kept ~10x the row map.
    EXPECT_GT(before, after_first_cycle);
    table.compact();
    const std::size_t after = table.memory_bytes();
    EXPECT_LT(after, before);
    EXPECT_LE(after, after_first_cycle);
    EXPECT_LE(table.capacity_rows(), 1000u);

    // The table still works: a new add reuses a freed row and resolves.
    const std::size_t row = table.add(spawn_of(next_id), vod::buffer_map(256));
    EXPECT_LT(row, 1000u);
    EXPECT_EQ(table.row_of(peer_id(next_id)), row);
    EXPECT_EQ(table.id(row), peer_id(next_id));
}

TEST(peer_table_memory, compact_preserves_live_rows) {
    vod::peer_table table;
    std::vector<std::size_t> rows;
    for (int i = 0; i < 100; ++i)
        rows.push_back(table.add(spawn_of(i), vod::buffer_map(128)));
    for (int i = 0; i < 100; i += 2) {
        table.mark_departed(rows[i]);
        table.release(rows[i]);
    }
    table.compact();
    for (int i = 1; i < 100; i += 2) {
        EXPECT_EQ(table.row_of(peer_id(i)), rows[i]);
        EXPECT_EQ(table.id(rows[i]), peer_id(i));
        EXPECT_EQ(table.upload_capacity(rows[i]), 4);
    }
    for (int i = 0; i < 100; i += 2)
        EXPECT_EQ(table.row_of(peer_id(i)), vod::peer_table::npos);
    EXPECT_EQ(table.num_peers(), 50u);
}

TEST(peer_table_memory, buffer_heap_tracks_dense_fallbacks) {
    vod::peer_table table;
    const std::size_t r0 = table.add(spawn_of(0), vod::buffer_map(1024));
    EXPECT_EQ(table.buffer_heap_bytes(), 0u);  // compact form owns no heap
    table.buffer(r0).set(1000);                // far hole → dense fallback
    EXPECT_GT(table.buffer_heap_bytes(), 0u);
    EXPECT_EQ(table.buffer_heap_bytes(), table.buffer(r0).heap_bytes());
}

// The per-shard link cache is the largest standing allocation in the fleet
// audit; its default bound (cost_params::cache_capacity = 2^19 entries,
// open addressing kept at ≤ 50% load) caps the slot array at 2^20 slots.
// Flood the cache with more distinct links than its capacity: it must flush
// rather than grow past the cap, and cache_bytes() pins the ceiling.
TEST(cost_model_memory, link_cache_bytes_stay_bounded) {
    net::isp_topology topo(5);
    constexpr int peers = 1100;  // ~605k distinct symmetric links > 2^19
    for (int i = 0; i < peers; ++i) topo.add_peer(peer_id(i), isp_id(i % 5));
    sim::rng_stream rng(17);
    net::cost_model model(topo, net::cost_params{}, rng);
    for (int u = 0; u < peers; ++u)
        for (int d = u + 1; d < peers; ++d) (void)model.cost(peer_id(u), peer_id(d));
    const net::cost_cache_stats stats = model.cache_stats();
    EXPECT_GE(stats.flushes, 1u) << "flood must overflow the default bound";
    EXPECT_LE(stats.size, stats.capacity);
    EXPECT_LE(model.cache_bytes(),
              (std::size_t{1} << 20) * (sizeof(std::uint64_t) + sizeof(double)));
}

TEST(emulator_memory, footprint_components_sum_to_total) {
    vod::emulator_options opts;
    opts.config = workload::scenario_config::small_test();
    vod::emulator emu(opts);
    for (int k = 0; k < 3; ++k) emu.step();

    const vod::memory_breakdown fp = emu.memory_footprint();
    EXPECT_GT(fp.peer_table, 0u);
    EXPECT_GT(fp.tracker, 0u);
    EXPECT_GT(fp.shared, 0u);
    EXPECT_EQ(fp.total(), fp.peer_table + fp.buffers + fp.tracker +
                              fp.neighbor_arena + fp.problem_arena + fp.solver +
                              fp.cost_cache + fp.ledger + fp.scratch + fp.shared);
}

// The slot-scoped footprint contract: the problem arena (with its shadow
// and the delta build's masks, snapshots and deadline-value memo, all
// counted under problem_arena) and the solver slabs exist only while a slot
// is in flight. After every step() they are back at their size before the
// first slot — the empty arenas' CSR sentinels, no slot state — with the
// shadow check on or off, under the auction, the locality baseline and the
// exact scheduler.
TEST(emulator_memory, slot_state_is_shed_after_every_step) {
    for (const bool shadow_check : {false, true}) {
        for (const char* scheduler : {"auction", "simple-locality", "exact"}) {
            vod::emulator_options opts;
            opts.config = workload::scenario_config::economy_smoke();
            opts.scheduler = scheduler;
            opts.delta_shadow_check = shadow_check;
            const std::size_t slots = opts.config.num_slots();
            vod::emulator emu(opts);
            const vod::memory_breakdown idle = emu.memory_footprint();
            EXPECT_LE(idle.problem_arena, 2 * sizeof(std::uint32_t));
            EXPECT_EQ(idle.solver, 0u);
            std::size_t requests = 0;
            for (std::size_t k = 0; k < slots; ++k) {
                requests += emu.step().requests;
                const vod::memory_breakdown fp = emu.memory_footprint();
                EXPECT_EQ(fp.problem_arena, idle.problem_arena)
                    << scheduler << " shadow " << shadow_check << " slot " << k;
                EXPECT_EQ(fp.solver, 0u)
                    << scheduler << " shadow " << shadow_check << " slot " << k;
            }
            EXPECT_GT(requests, 0u) << scheduler << ": the run built no problem";
        }
    }
}

// The same contract on fleet shards, which share the fleet's pool threads:
// only the shards in flight hold slot state, so between steps none does.
TEST(fleet_memory, shards_hold_no_slot_state_between_steps) {
    engine::fleet_options opts;
    opts.config = workload::fleet_config::smoke();
    opts.threads = 2;
    engine::fleet f(opts);
    const vod::memory_breakdown idle = f.memory_footprint();
    for (std::size_t k = 0; k < f.num_slots(); ++k) {
        f.step();
        for (std::size_t w = 0; w < f.num_swarms(); ++w)
            EXPECT_EQ(f.shard_at(w).emulator().memory_footprint().solver, 0u)
                << "swarm " << w << " slot " << k;
        EXPECT_EQ(f.memory_footprint().problem_arena, idle.problem_arena)
            << "slot " << k;
    }
}

TEST(fleet_memory, shared_assets_are_counted_once) {
    engine::fleet_options opts;
    opts.config = workload::fleet_config::smoke();
    opts.threads = 2;
    engine::fleet f(opts);
    ASSERT_EQ(f.num_swarms(), 3u);

    // Every shard points at the same shared_assets instance the fleet built.
    const vod::memory_breakdown shard0 = f.shard_at(0).emulator().memory_footprint();
    const vod::memory_breakdown total = f.memory_footprint();
    EXPECT_GT(shard0.shared, 0u);
    EXPECT_EQ(total.shared, shard0.shared);
    EXPECT_GE(total.peer_table, shard0.peer_table);
}

// Fleet shards shed their link-cost caches every slot (shed_cost_cache is
// forced on for shards): after a run the fleet's cost-cache line is zero
// bytes, where a standalone emulator of the same scenario keeps its cache
// warm. This is the per-swarm memory line the fleet_scaling memory table
// tracks — without shedding it scales with swarm count, not thread count.
TEST(fleet_memory, fleet_shards_shed_cost_caches) {
    vod::emulator_options standalone_opts;
    standalone_opts.config = workload::scenario_config::small_test();
    vod::emulator standalone(standalone_opts);
    for (int k = 0; k < 3; ++k) standalone.step();
    EXPECT_GT(standalone.memory_footprint().cost_cache, 0u)
        << "standalone keeps the cache — the comparison would be vacuous";

    engine::fleet_options opts;
    opts.config = workload::fleet_config::smoke();
    engine::fleet f(opts);
    f.run();
    EXPECT_EQ(f.memory_footprint().cost_cache, 0u);
}

// A coupled fleet prices against ONE peering graph: every shard's cost model
// and billing view point at the fleet's instance instead of building a
// per-swarm copy (the peering-derived link-class table rides along in the
// shared assets).
TEST(fleet_memory, coupled_shards_share_the_fleet_peering_graph) {
    engine::fleet_options opts;
    opts.config = workload::builtin_fleets().make("fleet_coupled_smoke");
    engine::fleet f(opts);
    ASSERT_TRUE(f.coupling_enabled());
    for (std::size_t w = 0; w < f.num_swarms(); ++w)
        EXPECT_EQ(&f.shard_at(w).emulator().peering(), &f.fleet_peering()) << w;

    // An uncoupled economy fleet keeps per-swarm graphs: the instances are
    // distinct (per-swarm pricing epochs mutate them independently).
    engine::fleet_options plain_opts;
    plain_opts.config = workload::builtin_fleets().make("fleet_economy_smoke");
    engine::fleet plain(plain_opts);
    ASSERT_GE(plain.num_swarms(), 2u);
    EXPECT_NE(&plain.shard_at(0).emulator().peering(),
              &plain.shard_at(1).emulator().peering());
}

TEST(fleet_memory, rss_phases_are_sampled) {
    engine::fleet_options opts;
    opts.config = workload::fleet_config::smoke();
    engine::fleet f(opts);
    const double post_construct = f.rss_phases().post_construct_mb;
    EXPECT_DOUBLE_EQ(f.rss_phases().mid_run_mb, 0.0);
    EXPECT_DOUBLE_EQ(f.rss_phases().end_mb, 0.0);
    f.run();
    if (metrics::current_rss_mb() > 0.0) {  // sampling supported here
        EXPECT_GT(post_construct, 0.0);
        EXPECT_GT(f.rss_phases().mid_run_mb, 0.0);
        EXPECT_GT(f.rss_phases().end_mb, 0.0);
        EXPECT_LE(f.rss_phases().end_mb, f.peak_rss_mb() + 1.0);
    }
}

// Handing two emulators the same shared assets is observationally identical
// to each building its own (same catalog dimensions, same valuation knobs,
// same popularity law) — the welfare trajectory must be bit-identical.
TEST(emulator_memory, shared_assets_do_not_change_results) {
    vod::emulator_options own;
    own.config = workload::scenario_config::small_test();
    vod::emulator a(own);
    a.run();

    vod::emulator_options shared = own;
    shared.assets = vod::shared_assets::make(shared.config);
    vod::emulator b(shared);
    b.run();

    ASSERT_EQ(a.slots().size(), b.slots().size());
    for (std::size_t k = 0; k < a.slots().size(); ++k) {
        EXPECT_EQ(a.slots()[k].social_welfare, b.slots()[k].social_welfare);
        EXPECT_EQ(a.slots()[k].transfers, b.slots()[k].transfers);
        EXPECT_EQ(a.slots()[k].chunks_missed, b.slots()[k].chunks_missed);
    }
}

// Mismatched assets must be rejected loudly, not silently skew the run.
TEST(emulator_memory, incompatible_assets_are_rejected) {
    vod::emulator_options opts;
    opts.config = workload::scenario_config::small_test();
    workload::scenario_config other = opts.config;
    other.num_videos = opts.config.num_videos + 1;
    opts.assets = vod::shared_assets::make(other);
    EXPECT_THROW(vod::emulator{opts}, contract_violation);
}

}  // namespace
}  // namespace p2pcd
