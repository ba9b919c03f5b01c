// The multi-swarm fleet engine: N independent swarms advanced slot-by-slot
// in parallel on a fixed thread pool, with per-slot metrics merged into
// fleet-level aggregates.
//
// Execution model per slot k:
//   1. `parallel_for_each` over the shards — each shard advances its own
//      emulator exactly one slot (barrier; no shard ever observes another
//      mid-slot);
//   2. the caller thread merges the shards' slot metrics *in swarm-index
//      order* into one `fleet_slot_metrics` and appends to the fleet-level
//      time series (social welfare, inter-ISP traffic, miss rate, viewers).
//
// Determinism: every shard's randomness derives from (fleet_seed,
// swarm_index) — see workload/fleet_config.h — and the merge order is the
// swarm index, so the merged metrics are bit-identical for any `threads`
// value (asserted by tests/fleet_determinism_test.cpp).
#ifndef P2PCD_ENGINE_FLEET_H
#define P2PCD_ENGINE_FLEET_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "capacity/admission.h"
#include "capacity/link_budget.h"
#include "capacity/uplink_broker.h"
#include "engine/shard.h"
#include "engine/thread_pool.h"
#include "isp/billing.h"
#include "isp/peering_graph.h"
#include "isp/price_controller.h"
#include "isp/traffic_ledger.h"
#include "metrics/time_series.h"
#include "obs/counters.h"
#include "obs/telemetry.h"
#include "vod/emulator.h"
#include "workload/fleet_config.h"

namespace p2pcd::engine {

struct fleet_options {
    workload::fleet_config config;

    // Base scenario for every swarm. Unset: resolved from
    // `config.swarm_scenario` through workload::builtin_scenarios(). Set it
    // to emulate a down-scaled or customized base (the benches' CI mode).
    std::optional<workload::scenario_config> base_scenario;

    // Thread-pool size (>= 1). The pool advances shards; merging stays on
    // the calling thread.
    std::size_t threads = 1;

    // Per-swarm emulator knobs. `swarm_options.config` and
    // `swarm_options.scheduler` are overwritten per shard from the expanded
    // specs / `config.scheduler`; everything else (bid rounds, auction ε,
    // custom scheduler registry) applies to every swarm.
    vod::emulator_options swarm_options;

    // Fleet-level telemetry. The fleet emits the merged "fleet_slot" stream
    // itself: shards never see the sink (their copy of these options has it
    // cleared), but record_spans/span_capacity are forwarded so per-shard
    // phase traces still work. Semantic fields of the merged stream are
    // accumulated in swarm-index order — bit-identical for any `threads`.
    obs::telemetry_options telemetry;
};

// Process RSS sampled at the fleet's lifecycle phases (MiB; 0 until the
// phase has been reached). `post_construct` isolates the standing state —
// peers, buffers, trackers — from what the run loop adds on top, and
// `mid_run` vs `end` exposes drift across the horizon.
struct fleet_rss_phases {
    double post_construct_mb = 0.0;
    double mid_run_mb = 0.0;  // sampled after slot ⌈num_slots/2⌉
    double end_mb = 0.0;      // sampled at the end of run()
};

// One slot's metrics summed over every swarm (vod::slot_metrics' += in index
// order, so the floating-point sums are reproducible; the rates are of the
// fleet-wide counts).
using fleet_slot_metrics = vod::slot_metrics;

// What a slot hook sees: the slot just merged. Hooks run serially on the
// calling thread, after the parallel shard phase and the swarm-index-ordered
// merge — the one place fleet-global state (capacity coupling, telemetry,
// pricing) may read every shard and write state the next slot's parallel
// phase reads (the pool barrier orders the two).
struct slot_hook_context {
    std::size_t slot = 0;  // index of the slot just stepped
    const fleet_slot_metrics& merged;
    double step_seconds = 0.0;  // wall clock around the step; 0 unless timed
    bool timed = false;         // a telemetry sink is attached
};

class fleet {
public:
    explicit fleet(fleet_options options);

    // Advances every shard exactly one slot (in parallel) and returns the
    // merged metrics.
    const fleet_slot_metrics& step();

    // Registers a serial inter-slot hook (run in registration order at the
    // end of every step()). The capacity-coupling step and the telemetry
    // emitter register through this; tests and benches can append their own.
    void add_slot_hook(std::function<void(const slot_hook_context&)> hook) {
        hooks_.push_back(std::move(hook));
    }

    // Runs the full horizon. Single-shot, like vod::emulator::run.
    void run();

    [[nodiscard]] std::size_t num_swarms() const noexcept { return shards_.size(); }
    [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }
    [[nodiscard]] std::size_t num_slots() const noexcept { return num_slots_; }
    [[nodiscard]] double slot_seconds() const noexcept { return slot_seconds_; }
    // Scheduler dispatches per full run: swarms × slots × bidding rounds.
    [[nodiscard]] std::uint64_t solves_per_run() const noexcept;
    // Fleet-wide expected viewer population (static peers + expected
    // arrivals per swarm, summed).
    [[nodiscard]] double total_expected_viewers() const noexcept;

    [[nodiscard]] const std::vector<fleet_slot_metrics>& slots() const noexcept {
        return slots_;
    }
    [[nodiscard]] const shard& shard_at(std::size_t swarm_index) const {
        return *shards_.at(swarm_index);
    }

    // Fleet-level per-slot series (recorded by step()).
    [[nodiscard]] const metrics::time_series& welfare_series() const noexcept {
        return welfare_series_;
    }
    [[nodiscard]] const metrics::time_series& inter_isp_series() const noexcept {
        return inter_isp_series_;
    }
    [[nodiscard]] const metrics::time_series& miss_rate_series() const noexcept {
        return miss_rate_series_;
    }
    [[nodiscard]] const metrics::time_series& viewers_series() const noexcept {
        return viewers_series_;
    }

    // Aggregates over all stepped slots.
    [[nodiscard]] double total_welfare() const { return vod::total_welfare(slots_); }
    [[nodiscard]] double overall_inter_isp_fraction() const {
        return vod::overall_inter_isp_fraction(slots_);
    }
    [[nodiscard]] double overall_miss_rate() const {
        return vod::overall_miss_rate(slots_);
    }

    // Peak process RSS in MiB sampled at the end of run() (0 before).
    [[nodiscard]] double peak_rss_mb() const noexcept { return peak_rss_mb_; }
    // Current-RSS samples at construction end / mid-run / run end.
    [[nodiscard]] const fleet_rss_phases& rss_phases() const noexcept {
        return rss_phases_;
    }
    // Per-subsystem bytes summed over every shard, with the read-only
    // shared_assets counted exactly once (every shard points at the same
    // instance the fleet built).
    [[nodiscard]] vod::memory_breakdown memory_footprint() const;

    // The shards' counter registries merged in swarm-index order (integer
    // sums; gauges summed in a fixed order) — bit-identical for any thread
    // count. Samples each shard's lazy counter sources first.
    [[nodiscard]] obs::counter_registry merged_counters();

    // --- ISP economy (when the base scenario enables it; see src/isp/) ---
    [[nodiscard]] bool economy_enabled() const;
    // Fleet-wide per-ISP-pair ledger: the shards' ledgers merged in
    // swarm-index order, so totals are bit-identical for any thread count.
    [[nodiscard]] isp::traffic_ledger merged_ledger() const;
    // Σ of the per-swarm billing statements (each billed against its own
    // swarm's final prices — the shared fleet prices when coupled),
    // accumulated in swarm-index order.
    [[nodiscard]] isp::billing_statement merged_bill() const;

    // --- cross-swarm coupling (config.coupling.enabled; src/capacity/) ---
    [[nodiscard]] bool coupling_enabled() const noexcept {
        return link_budget_.has_value();
    }
    // Last closed slot's link saturation summary (requires coupling).
    [[nodiscard]] const capacity::link_stats& link_stats() const;
    // The fleet-shared peering graph every coupled shard prices against.
    [[nodiscard]] const isp::peering_graph& fleet_peering() const;
    // Fleet-global pricing epochs closed over the merged cross-swarm ledger
    // (empty when uncoupled or the epoch loop is off).
    [[nodiscard]] const std::vector<isp::epoch_summary>& fleet_price_epochs() const;

private:
    void emit_header();
    void emit_slot_record(const fleet_slot_metrics& m, double step_seconds);
    void emit_fleet_epoch_record(const isp::epoch_summary& e);
    // The serial capacity-coupling step: merged-ledger accumulation, link
    // pools + surcharges, admission budgets, epoch-global re-pricing and
    // uplink re-splits. Registered as the first slot hook when coupled.
    void coupling_step(const slot_hook_context& ctx);
    void apply_seed_allocations();

    fleet_options options_;
    workload::scenario_config base_;  // the resolved base scenario
    thread_pool pool_;
    // Coupled-fleet state. Declared before shards_ so the peering graph the
    // shards' cost models point at outlives them.
    std::optional<isp::peering_graph> fleet_peering_;
    std::optional<isp::traffic_ledger> fleet_ledger_;
    std::optional<isp::price_controller> fleet_price_controller_;
    std::optional<capacity::link_budget> link_budget_;
    std::optional<capacity::admission_controller> admission_;
    std::optional<capacity::uplink_broker> broker_;
    std::vector<double> swarm_weights_;  // Zipf popularity, swarm-index order
    // coupling_step scratch (serial hook only).
    std::vector<double> headroom_scratch_;
    std::vector<std::uint8_t> gated_scratch_;
    std::vector<std::uint32_t> queue_scratch_;
    std::vector<std::unique_ptr<shard>> shards_;
    std::vector<std::function<void(const slot_hook_context&)>> hooks_;
    std::size_t num_slots_ = 0;
    double slot_seconds_ = 0.0;

    std::vector<fleet_slot_metrics> slots_;
    std::vector<vod::slot_metrics> last_slot_;  // per-shard scratch, one entry each
    metrics::time_series welfare_series_{"fleet_welfare"};
    metrics::time_series inter_isp_series_{"fleet_inter_isp_fraction"};
    metrics::time_series miss_rate_series_{"fleet_miss_rate"};
    metrics::time_series viewers_series_{"fleet_viewers"};
    bool has_run_ = false;
    double peak_rss_mb_ = 0.0;
    fleet_rss_phases rss_phases_;
    bool header_emitted_ = false;
};

}  // namespace p2pcd::engine

#endif  // P2PCD_ENGINE_FLEET_H
