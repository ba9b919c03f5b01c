// The P2P VoD system emulator — the C++ discrete-time substitute for the
// paper's Java cluster emulator. The paper's scheduling is slotted (peers bid
// per time slot, Sec. IV-C), so stepping slot by slot reproduces its figures;
// only Fig. 2's price trace needs message timing, and vod::auction_runtime
// supplies that on a simulated network.
//
// One emulator owns the catalog, ISP topology, cost model, tracker, seeds and
// viewers, and advances slot by slot:
//   1. process arrivals (peers joining during slot k bid from slot k+1,
//      exactly the paper's "delay handling of new bids" rule) and departures;
//   2. advance playback over the elapsed slot, counting missed deadlines;
//   3. refresh neighbors, build the slot's scheduling_problem from buffer
//      maps and the interest windows R_t(d) — incrementally: round 0
//      transposes each viewer's neighbor buffers into per-chunk masks, later
//      rounds OR in only the chunks just delivered; the CSR arena is reused
//      across the slot's rounds and shed with the masks at slot end;
//   4. schedule with the configured algorithm, resolved by name through a
//      core::scheduler_registry (auction / baselines / exact / custom;
//      plus the message-level distributed auction for the Fig. 2 window),
//      apply the transfers, record per-slot metrics.
//
// Slot pipeline storage. Peers live in a dense SoA `peer_table`; the table
// row is the internal currency of every per-slot loop (peer_id survives only
// at API edges: cost draws, solver-facing problem structs, the probe/price
// series). Live viewer rows are kept in `active_viewers_` (ascending, so
// iteration order matches the id-ordered table), which means departed peers
// cost nothing after their departure slot. Neighbor lists live in one flat
// CSR arena refreshed per slot — offsets + row array + a parallel array of
// prefetched link costs, so the problem builder's candidate loop is pure
// array arithmetic (the pre-refactor loop paid two id-hash lookups plus a
// cost-cache probe per candidate per round).
//
// The scheduler instance is long-lived: created once from the registry and
// reused every bidding round, so solver workspaces stay warm. Seeded
// schedulers are re-keyed each round via scheduler::reseed() with a seed
// derived from (slot index, round index) through sim::rng_factory.
//
// Transfer semantics: chunks scheduled in slot k land in the downstream
// buffer at the end of slot k ("actual chunk transfers happen as soon as the
// auction converges ... and can be finished into the next time slot").
#ifndef P2PCD_VOD_EMULATOR_H
#define P2PCD_VOD_EMULATOR_H

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseline/simple_locality.h"
#include "capacity/admission.h"
#include "core/auction.h"
#include "core/problem.h"
#include "core/scheduler_registry.h"
#include "isp/billing.h"
#include "isp/peering_graph.h"
#include "isp/price_controller.h"
#include "isp/traffic_ledger.h"
#include "metrics/time_series.h"
#include "net/cost_model.h"
#include "obs/counters.h"
#include "obs/span_recorder.h"
#include "obs/telemetry.h"
#include "net/isp_topology.h"
#include "sim/distributions.h"
#include "sim/rng.h"
#include "vod/catalog.h"
#include "vod/peer_table.h"
#include "vod/shared_assets.h"
#include "vod/tracker.h"
#include "vod/valuation.h"
#include "workload/scenario.h"

namespace p2pcd::core {
class exact_scheduler;  // core/exact.h
}  // namespace p2pcd::core

namespace p2pcd::obs {
class json_line;  // obs/jsonl_sink.h
}  // namespace p2pcd::obs

namespace p2pcd::vod {

struct emulator_options {
    workload::scenario_config config;

    // Immutable per-scenario assets (catalog, valuation curve, popularity
    // CDF). When null the emulator builds its own from `config`; a fleet
    // builds one instance per base scenario and shares it read-only across
    // all shards. Must have been built from a config with the same catalog
    // and valuation parameters as `config` (enforced at construction).
    std::shared_ptr<const shared_assets> assets;

    // Scheduling algorithm, resolved by name at construction through
    // `registry` (default: every built-in — "auction", "exact",
    // "simple-locality", "greedy-welfare", "random").
    std::string scheduler = "auction";
    // Override to plug in custom algorithms without touching the emulator:
    // copy baseline::builtin_schedulers(), add() yours, share it here.
    std::shared_ptr<const core::scheduler_registry> registry;

    core::auction_options auction{.bidding = {core::bid_policy::epsilon, 0.05}};
    baseline::locality_options locality;

    // "During one time slot, a peer keeps bidding in order to acquire the
    // bandwidth to receive the 100 chunks it wants next" (Sec. V-A): each
    // slot is split into this many bidding rounds. A chunk unserved in an
    // early round is re-bid later at a higher deadline valuation, and B(u)
    // is shared across the slot's rounds. 1 disables intra-slot re-bidding;
    // 0 is rejected at construction.
    std::size_t bid_rounds_per_slot = 5;

    // Message-level distributed auction (Fig. 2): every bidding round of a
    // slot whose *start* lies in [distributed_from, distributed_to) runs on
    // the simulated network, λ restarting at 0 with the slot (the figure's
    // per-slot price evolution), recording the probe peer's λ. Only for
    // `scheduler` "auction"; set by bench/fig2_price_convergence.
    double distributed_from = -1.0;
    double distributed_to = -1.0;
    // One-way latency = latency_per_cost × w_{u→d} seconds (finite, ≥ 0).
    double latency_per_cost = 0.05;

    // Telemetry (src/obs/). Default-off: no sink, no spans — the slot loop
    // reads no clock and builds no JSONL. Counters stay on unconditionally
    // (semantic, deterministic, a handful of integer adds per slot).
    obs::telemetry_options telemetry;

    // --- fleet-coupling hooks (engine::fleet + src/capacity/) ---
    // Fleet-shared peering graph: when set (requires config.economy.enabled)
    // the emulator attaches this graph to its cost model instead of building
    // a private one, and runs no per-swarm price controller — the fleet
    // re-prices globally from the merged cross-swarm ledger. The caller owns
    // the graph, keeps it alive for the emulator's lifetime, and mutates its
    // prices only between slots (the fleet's serial hook).
    const isp::peering_graph* shared_peering = nullptr;

    // Backpressure admission gating of new-viewer arrivals (IRON-style; see
    // src/capacity/admission.h). Disabled: the arrival path is bit-identical
    // to pre-coupling behavior, and no "admission" rng stream is drawn from.
    capacity::admission_params admission;

    // Return the cost model's link-draw cache to the allocator at every slot
    // end (draws are pure functions of the link key, so costs never change —
    // only cache hit/miss counters do). Set by the fleet: with shards stepped
    // slot-lockstep only ~threads caches are warm at once, so the fleet's
    // standing footprint drops by the biggest per-shard allocation.
    bool shed_cost_cache = false;

    // Debug cross-check of the incremental problem build: after every build,
    // rebuild the round's problem from scratch into a shadow arena and
    // require bit-level equality (problem, request rows, uploader rows).
    // Default-on in debug builds; the churn property suite and
    // bench/slot_pipeline's identity pass turn it on explicitly.
#ifdef NDEBUG
    bool delta_shadow_check = false;
#else
    bool delta_shadow_check = true;
#endif
};

// Wall-clock seconds per slot phase, accumulated across every step() of one
// emulator. The solve phase is the scheduler (dispatch); everything else is
// the emulator's own per-slot data path — the subject of bench/slot_pipeline.
// Since PR 8 this is a compat view assembled from the obs::span_recorder's
// per-phase totals: it is all zeros unless telemetry.record_spans is set
// (a telemetry-off slot loop performs zero timestamp syscalls).
struct slot_phase_totals {
    double arrivals = 0.0;          // Poisson spawns (tracker/topology inserts)
    double departures = 0.0;        // finished/quitting peers unregistered
    double playback = 0.0;          // position advance + deadline accounting
    double neighbor_refresh = 0.0;  // tracker bootstrap + link-cost prefetch
    double build = 0.0;             // scheduling_problem construction
    double solve = 0.0;             // scheduler dispatch (incl. distributed)
    double apply = 0.0;             // transfer application + metering
    double shed = 0.0;              // slot-end arena/solver release + reserve

    [[nodiscard]] double total() const noexcept {
        return arrivals + departures + playback + neighbor_refresh + build +
               solve + apply + shed;
    }
    [[nodiscard]] double non_solve() const noexcept { return total() - solve; }
};

struct slot_metrics {
    double time = 0.0;  // slot start
    std::size_t online_peers = 0;
    std::size_t requests = 0;
    std::size_t transfers = 0;
    std::size_t inter_isp_transfers = 0;
    double inter_isp_fraction = 0.0;  // of this slot's transfers
    double social_welfare = 0.0;      // Σ (v − w) realized this slot
    std::size_t chunks_due = 0;
    std::size_t chunks_missed = 0;
    double miss_rate = 0.0;  // of this slot's due chunks
    std::uint64_t auction_bids = 0;
};

// Adds `slot`'s counts into `into` and recomputes both rates from the sums;
// `into.time` stays. The fleet merges its shards' slots with it, in
// swarm-index order.
slot_metrics& operator+=(slot_metrics& into, const slot_metrics& slot);

// Aggregates over a run's slots, accumulated in slot order.
[[nodiscard]] double total_welfare(std::span<const slot_metrics> slots);
[[nodiscard]] double overall_inter_isp_fraction(std::span<const slot_metrics> slots);
[[nodiscard]] double overall_miss_rate(std::span<const slot_metrics> slots);

// Opens a "slot" or "fleet_slot" JSONL record with the fields the two share:
// schema version, kind, slot index, the slot metrics, then every entry of
// `counters` in registration order. Callers append their sub-objects.
[[nodiscard]] obs::json_line slot_record(std::string_view kind, std::size_t slot,
                                         const slot_metrics& m,
                                         const obs::counter_registry& counters);

// Per-subsystem bytes held by one emulator (capacities, including shed-able
// arenas at their current state). `shared` counts the read-only assets once
// even though every shard holds a pointer to them — fleet aggregation adds
// it a single time.
struct memory_breakdown {
    std::size_t peer_table = 0;      // SoA columns + id map + free list
    std::size_t buffers = 0;         // dense-fallback buffer_map heap
    std::size_t tracker = 0;         // video pools + per-row records
    std::size_t neighbor_arena = 0;  // CSR offsets + rows + prefetched costs
    std::size_t problem_arena = 0;   // slot_problem builder + row maps + delta state
    std::size_t solver = 0;          // scheduler persistent workspaces
    std::size_t cost_cache = 0;      // link-draw cache + batch scratch
    std::size_t ledger = 0;          // ISP traffic ledger (economy only)
    std::size_t scratch = 0;         // per-slot scratch vectors
    std::size_t shared = 0;          // shared_assets (count once per fleet)

    [[nodiscard]] std::size_t total() const noexcept {
        return peer_table + buffers + tracker + neighbor_arena + problem_arena +
               solver + cost_cache + ledger + scratch + shared;
    }
    memory_breakdown& operator+=(const memory_breakdown& o) noexcept {
        peer_table += o.peer_table;
        buffers += o.buffers;
        tracker += o.tracker;
        neighbor_arena += o.neighbor_arena;
        problem_arena += o.problem_arena;
        solver += o.solver;
        cost_cache += o.cost_cache;
        ledger += o.ledger;
        scratch += o.scratch;
        shared += o.shared;
        return *this;
    }
};

class emulator {
public:
    explicit emulator(emulator_options options);

    // Runs the full horizon. Can only be called once per emulator (enforced;
    // a second call — or a call after manual step()s — throws
    // contract_violation).
    void run();

    // Advances exactly one slot (exposed for tests); returns its metrics.
    const slot_metrics& step();

    [[nodiscard]] const std::vector<slot_metrics>& slots() const noexcept {
        return slots_;
    }
    // Per-phase wall-clock totals over every slot stepped so far — a compat
    // shim over the span recorder's totals. All zeros when spans are off.
    [[nodiscard]] slot_phase_totals phase_totals() const noexcept;
    // Semantic counters/gauges (registration-ordered; see register_metrics()
    // in emulator.cpp for the full list). Non-const: lazily-sampled sources
    // (cache stats, tracker stats, pivots) are refreshed first.
    [[nodiscard]] obs::counter_registry& counters();
    // Wall-clock phase spans (enabled by telemetry.record_spans).
    [[nodiscard]] const obs::span_recorder& spans() const noexcept {
        return spans_;
    }
    // The peer table (read-only): rows, flags, buffers, lifetime counters.
    [[nodiscard]] const peer_table& peers() const noexcept { return peers_; }
    // Current neighbor rows of a table row (this slot's tracker bootstrap;
    // empty for seeds, departed peers, and before the first step()).
    [[nodiscard]] std::span<const std::uint32_t> neighbor_rows(
        std::size_t row) const {
        if (row + 1 >= neighbor_offsets_.size()) return {};
        return std::span<const std::uint32_t>(neighbor_rows_)
            .subspan(neighbor_offsets_[row],
                     neighbor_offsets_[row + 1] - neighbor_offsets_[row]);
    }
    // λ(t) of the representative peer during distributed slots — Fig. 2's
    // series. The representative is the uploader whose price rose highest in
    // the window (the paper plots "a representative peer", i.e. a contended
    // one); the series restarts at 0 at each distributed slot start, exactly
    // like the figure. Built lazily after the run.
    [[nodiscard]] const metrics::time_series& price_series() const;
    // The representative peer picked for the price series (valid after
    // price_series() on a run with distributed slots; otherwise the probe
    // default: a seed of the most popular video in ISP 0).
    [[nodiscard]] peer_id probe_peer() const;

    [[nodiscard]] const net::isp_topology& topology() const noexcept { return topology_; }
    [[nodiscard]] const video_catalog& catalog() const noexcept {
        return assets_->catalog;
    }
    // Per-subsystem bytes currently held by this emulator.
    [[nodiscard]] memory_breakdown memory_footprint() const;

    // --- ISP economy (config.economy.enabled; see src/isp/) ---
    // When enabled the emulator owns a peering graph (attached to the cost
    // model), meters every realized transfer into a per-slot per-ISP-pair
    // ledger, and closes a pricing epoch every `slots_per_epoch` slots.
    [[nodiscard]] bool economy_enabled() const noexcept { return ledger_.has_value(); }
    [[nodiscard]] const isp::traffic_ledger& ledger() const;   // requires economy
    [[nodiscard]] const isp::peering_graph& peering() const;   // requires economy
    // Pricing-epoch history (empty when the controller is disabled).
    [[nodiscard]] const std::vector<isp::epoch_summary>& price_epochs() const;
    // Bills the run's ledger against the *current* (post-update) prices.
    [[nodiscard]] isp::billing_statement bill() const;  // requires economy
    [[nodiscard]] std::size_t online_viewers() const;
    [[nodiscard]] double now() const noexcept { return now_; }

    // --- fleet coupling (engine::fleet + src/capacity/) ---
    // Replaces the per-ISP admission budgets governing the next slots'
    // arrivals (requires options.admission.enabled; one entry per ISP,
    // capacity::admission_unlimited lifts the gate for that ISP). The fleet
    // pushes fresh budgets from its serial coupling step between slots.
    void set_admission_budgets(std::span<const std::uint32_t> per_isp);
    // Viewers currently parked in the admission retry queue, per ISP / total.
    [[nodiscard]] std::size_t admission_queue_len(isp_id isp) const;
    [[nodiscard]] std::size_t admission_queue_total() const noexcept {
        return deferred_.size();
    }
    // Lifetime chunks uploaded by seed ordinal `ordinal` of ISP `isp`,
    // summed over that seed identity's rows across all videos — the uplink
    // broker's per-epoch demand signal.
    [[nodiscard]] std::uint64_t seed_uploads(std::size_t isp,
                                             std::size_t ordinal) const;
    // Sets the per-slot upload capacity of that same seed identity (applied
    // to its row in every video) — the broker's allocation for this swarm.
    void set_seed_capacity(std::size_t isp, std::size_t ordinal,
                           std::int32_t chunks_per_slot);
    // Attaches the fleet's per-ISP-pair congestion surcharge table to this
    // shard's cost model (row-major num_isps²; nullptr detaches). The fleet
    // owns the table and rewrites it only between slots.
    void attach_link_surcharge(const double* table) {
        costs_->attach_surcharge(table);
    }

    // Aggregate outcome over the whole run.
    [[nodiscard]] double total_welfare() const { return vod::total_welfare(slots_); }
    [[nodiscard]] double overall_inter_isp_fraction() const {
        return vod::overall_inter_isp_fraction(slots_);
    }
    [[nodiscard]] double overall_miss_rate() const {
        return vod::overall_miss_rate(slots_);
    }

private:
    struct slot_problem {
        core::scheduling_problem problem;
        // Table row -> uploader ordinal; u32 (UINT32_MAX = not uploading)
        // since uploader counts are u32 in the problem itself.
        std::vector<std::uint32_t> uploader_of_peer;
        std::vector<std::uint32_t> uploader_row;  // uploader -> table row
        std::vector<std::uint32_t> request_row;   // request -> downstream row

        [[nodiscard]] std::size_t memory_bytes() const noexcept {
            return problem.memory_bytes() +
                   uploader_of_peer.capacity() * sizeof(std::uint32_t) +
                   uploader_row.capacity() * sizeof(std::uint32_t) +
                   request_row.capacity() * sizeof(std::uint32_t);
        }
        void shed() noexcept {
            problem.shed();
            std::vector<std::uint32_t>().swap(uploader_of_peer);
            std::vector<std::uint32_t>().swap(uploader_row);
            std::vector<std::uint32_t>().swap(request_row);
        }
    };

    void register_metrics();
    // Publishes the lazily-sampled counter sources (cost-model cache stats,
    // tracker repair stats, simplex pivots) into the registry.
    void sample_counters();
    void emit_header();
    void emit_slot_record(const slot_metrics& m);
    void emit_epoch_record(const isp::epoch_summary& e);

    void add_seeds();
    void add_initial_peers();
    std::size_t spawn_viewer(double join_time, bool pre_warmed,
                             std::int32_t forced_isp = -1);
    void process_arrivals(double until);
    // Consumes one unit of admission budget for `isp` if any remains (true),
    // or reports the gate closed (false). Ungated when budgets are unset.
    bool try_admit(std::uint32_t isp);
    void process_departures();
    void advance_playback(double from, double to, slot_metrics& metrics);
    void refresh_neighbors();
    // Fills neighbor_costs_ for this slot's arena (one batched cost-model
    // probe per link). Timed under the build phase: it replaces the
    // per-candidate cost lookups the pre-refactor build performed.
    void prefetch_link_costs();
    // (Re)builds the round's problem into the reused arena `round_problem_`
    // with the incremental (delta) builder; `round_capacity[row]` is what
    // table row `row` may upload this round. `first_round` opens the slot's
    // delta state. `profitable_only` lists only holders with w ≤ v (a
    // request may stay an empty row). See ARCHITECTURE.md "Delta pipeline".
    void build_problem(double now, bool first_round,
                       const std::vector<std::int32_t>& round_capacity,
                       bool profitable_only);
    // Registers this round's uploaders (seeds first, then live viewers in
    // row order) into `sp` — shared prologue of both builders.
    void register_uploaders(slot_problem& sp,
                            const std::vector<std::int32_t>& round_capacity);
    // The reference builder: gathers every eligible neighbor's window words
    // and probes them per missing chunk. Only the delta_shadow_check oracle
    // runs it whole — the delta build must reproduce its output bit for bit.
    void build_problem_full(double now,
                            const std::vector<std::int32_t>& round_capacity,
                            bool profitable_only, slot_problem& sp);
    // One viewer row of the reference build (gather + per-chunk probe); also
    // the delta build's path for rows its masks cannot represent. Returns
    // how many eligible holders `profitable_only` left out.
    std::size_t append_viewer_row(slot_problem& sp, std::uint32_t row, double now,
                                  bool profitable_only);
    // The incremental builder behind build_problem().
    void build_problem_delta(double now, bool first_round,
                             const std::vector<std::int32_t>& round_capacity,
                             bool profitable_only);
    // Memoized assets_->valuation.value(ttl) (bit-exact; direct-mapped on the
    // ttl's bit pattern) — the delta build's request loop is hot enough that
    // the valuation's log() shows up.
    double deadline_value(double ttl);
    // `slot_prices` carries each uploader's λ across the bidding rounds of
    // one distributed slot — prices reset at slot boundaries, Sec. IV-C.
    // Dense by table row. `round` is the round ordinal within the slot, used
    // to derive the per-round scheduler seed; `distributed` is step()'s
    // per-slot decision to run the round on the message-level runtime.
    core::schedule dispatch(double round_start, double duration, std::size_t round,
                            bool distributed, slot_metrics& metrics,
                            std::vector<double>& slot_prices);
    void apply_schedule(const core::schedule& sched, slot_metrics& metrics,
                        std::vector<std::int32_t>& remaining_capacity);
    // Slot-end memory discipline: returns the problem arena (and its shadow),
    // its row maps, the delta state and the solver workspaces to the
    // allocator, remembering the arena's high-water sizes so the next slot's
    // build can reserve() once instead of regrowing. With shards stepped
    // slot-lockstep this keeps only ~threads() slabs resident at a time
    // instead of one per swarm forever.
    void shed_slot_memory();

    emulator_options options_;
    std::shared_ptr<const shared_assets> assets_;
    net::isp_topology topology_;
    sim::rng_factory rng_factory_;
    sim::rng_stream arrival_rng_;
    sim::rng_stream peer_rng_;
    std::optional<net::cost_model> costs_;
    // ISP economy state (engaged only when config.economy.enabled). The
    // peering graph lives here so the cost model's pointer stays valid; the
    // emulator is never moved after construction (same rule that keeps
    // cost_model's topology pointer safe).
    std::optional<isp::peering_graph> peering_;
    // The graph actually consulted by bill()/peering(): the fleet-shared one
    // when options.shared_peering is set, else &*peering_. Null iff the
    // economy is off.
    const isp::peering_graph* peering_view_ = nullptr;
    std::optional<isp::traffic_ledger> ledger_;
    std::optional<isp::price_controller> price_controller_;
    tracker tracker_;

    // --- admission gating state (options_.admission.enabled) ---
    // A viewer deferred at the gate keeps its arrival ISP (assigned from the
    // arrival sequence exactly as ungated ids would be) and retries at
    // `retry_slot` with seed-derived jitter; after max_retries it abandons.
    struct deferred_viewer {
        std::uint32_t isp = 0;
        std::uint32_t retries = 0;
        std::size_t retry_slot = 0;  // earliest slot index allowed to retry
    };
    std::deque<deferred_viewer> deferred_;
    std::vector<std::uint32_t> admission_budget_;  // per ISP; empty = ungated
    std::optional<sim::rng_stream> admission_rng_;
    std::int32_t id_base_ = 0;       // next_peer_id_ right after construction
    std::uint64_t arrival_seq_ = 0;  // Poisson arrivals drawn so far

    // Long-lived scheduler from the registry; `auction_` is the non-null
    // downcast when "auction" is selected (the richer run() API: bid
    // diagnostics, and the hand-off of slots to the distributed runtime).
    // `exact_` is the downcast for "exact", whose simplex pivots feed the
    // solver.pivots counter.
    std::unique_ptr<core::scheduler> scheduler_;
    core::auction_solver* auction_ = nullptr;
    core::exact_scheduler* exact_ = nullptr;

    peer_table peers_;          // rows stable and id-ordered; departed flagged
    std::size_t num_seeds_ = 0;  // rows [0, num_seeds_) are the seeds
    // Live viewer rows, ascending — every per-slot scan walks this instead
    // of branching over the full table, so departures stop costing anything.
    std::vector<std::uint32_t> active_viewers_;
    std::int32_t next_peer_id_ = 0;

    // Per-slot neighbor arena (CSR): row r's neighbors of this slot are
    // neighbor_rows_[neighbor_offsets_[r] .. neighbor_offsets_[r+1]), with
    // the u→d link cost of each prefetched into the parallel
    // neighbor_costs_ (one cost-model probe per link per slot; link costs
    // are constant within a slot — peering prices move only at epoch close).
    // Offsets are u32: the arena holds < 2^32 links (enforced in refresh).
    std::vector<std::uint32_t> neighbor_offsets_;
    std::vector<std::uint32_t> neighbor_rows_;
    std::vector<double> neighbor_costs_;

    double now_ = 0.0;
    double next_arrival_ = 0.0;
    std::optional<sim::poisson_process> arrivals_;
    std::vector<slot_metrics> slots_;
    bool has_run_ = false;

    // --- telemetry (src/obs/) ---
    obs::counter_registry counters_;
    obs::span_recorder spans_;
    bool header_emitted_ = false;
    double last_wall_total_ = 0.0;  // spans total at the previous slot record
    obs::counter_id c_arrivals_, c_departures_, c_solver_rounds_, c_solver_bids_,
        c_solver_phases_, c_solver_pivots_, c_tracker_repairs_,
        c_tracker_inversions_, c_cache_hits_, c_cache_misses_, c_cache_flushes_,
        c_shed_events_, c_admitted_, c_deferred_, c_abandoned_;
    obs::gauge_id g_bytes_sibling_, g_bytes_peer_, g_bytes_transit_,
        g_admission_queue_;
    // Delta-pipeline counters (schema v2 additions — registered last so the
    // v1 record prefix is byte-stable).
    obs::counter_id c_delta_dirty_, c_delta_reused_;
    // Candidates emitted, and eligible holders left out because w > v.
    obs::counter_id c_build_candidates_, c_build_pruned_;
    // Row-major num_isps × num_isps relationship class of each directed ISP
    // pair (values of isp::relationship), precomputed so apply_schedule's
    // per-transfer gauge add is one byte load. Normally borrowed from the
    // shared_assets table (one copy per fleet, not per shard);
    // own_link_class_ is the backing store only when the assets instance
    // predates the table. Null when the economy is off.
    const std::uint8_t* link_class_ = nullptr;
    std::vector<std::uint8_t> own_link_class_;

    // Round-problem arena, reused (cleared, not reallocated) across the
    // rounds of one slot, then shed at slot end; the high-water sizes below
    // pre-size the next slot's build.
    slot_problem round_problem_;
    std::size_t hw_uploaders_ = 0;
    std::size_t hw_requests_ = 0;
    std::size_t hw_candidates_ = 0;
    // Per-slot scratch, reused across slots (allocation-free once warm).
    std::vector<double> slot_prices_;
    std::vector<std::int32_t> remaining_scratch_;
    std::vector<std::int32_t> round_capacity_scratch_;
    std::vector<peer_id> batch_ids_;  // cost_batch input per viewer
    // Reference-row scratch (append_viewer_row): per viewer, the window
    // words of each eligible neighbor's buffer gathered side by side, so the
    // candidate loop tests bits in L1 instead of probing every neighbor's
    // bitmap per chunk.
    std::vector<std::uint64_t> cand_words_;
    std::vector<std::uint32_t> cand_uploader_;
    std::vector<double> cand_cost_;

    // --- delta build state: opened by each slot's first round, shed with the
    // problem arena at its end, so none of it outlives the slot ---
    // Per-viewer chunk×neighbor availability masks, indexed by active-viewer
    // ordinal (stable for the whole slot: arrivals and departures precede
    // the rounds). For viewer row r, the segment is r's slice of the
    // neighbor arena, of length seg_len ≤ 32; mask word c holds bit j iff
    // segment neighbor j's buffer has chunk (word_lo<<6)+c. Seeds occupy the
    // segment's leading run and their (full, immutable) buffers are the
    // constant seed_mask instead of mask bits. Round 0 transposes every live
    // row; buffer bits are monotone for live peers, so later rounds OR in
    // each neighbor's snapshot-diffed new words, and playback advance
    // re-bases the window by memmove and transposes only the frontier words.
    // Per-round eligibility (capacity left) and, for the auctions'
    // rounds, profitability (w ≤ v) are applied at emission time.
    enum class delta_mode : std::uint8_t { fresh, masked, fallback };
    struct delta_row_state {
        delta_mode mode = delta_mode::fresh;
        std::uint32_t seg_len = 0;
        std::uint32_t seed_count = 0;  // leading seed rows → seed_mask
        std::uint32_t word_lo = 0;     // first buffer word the masks cover
        std::uint32_t cover = 0;       // covered words (≤ mask_words_)
    };
    static constexpr std::size_t delta_seg_cap = 32;  // mask bits per chunk
    std::size_t mask_words_ = 0;  // buffer words one mask window spans
    std::vector<delta_row_state> delta_rows_;     // by active-viewer ordinal
    std::vector<std::uint32_t> delta_masks_;      // ordinal × (mask_words_·64)
    std::vector<std::uint64_t> delta_snap_;       // ordinal × seg × mask_words_
    std::vector<std::uint64_t> val_keys_;  // deadline_value memo (ttl bits)
    std::vector<double> val_vals_;
    slot_problem shadow_problem_;  // delta_shadow_check rebuild target
    std::vector<std::uint32_t> delta_up_scratch_; // uploader per segment pos
    std::vector<std::uint64_t> word_scratch_;     // one neighbor's cur words

    // Raw λ-change log from distributed slots plus the slot starts, from
    // which the representative peer's series is assembled on demand.
    struct logged_price_event {
        peer_id uploader;
        double time = 0.0;
        double price = 0.0;
    };
    std::vector<logged_price_event> price_events_;
    std::vector<double> distributed_slot_starts_;
    mutable metrics::time_series price_series_{"lambda_u"};
    mutable bool price_series_built_ = false;
    mutable peer_id probe_peer_;
    peer_id default_probe_;
};

}  // namespace p2pcd::vod

#endif  // P2PCD_VOD_EMULATOR_H
