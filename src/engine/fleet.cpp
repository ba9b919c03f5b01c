#include "engine/fleet.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/contracts.h"
#include "metrics/process_stats.h"
#include "obs/jsonl_sink.h"
#include "workload/peering_gen.h"
#include "workload/scenario_registry.h"

namespace p2pcd::engine {

fleet::fleet(fleet_options options)
    : options_(std::move(options)), pool_(options_.threads) {
    options_.config.validate();

    base_ = options_.base_scenario
                ? *options_.base_scenario
                : workload::builtin_scenarios().make(options_.config.swarm_scenario);
    const workload::scenario_config& base = base_;
    auto specs = workload::expand_fleet(options_.config, base);

    // Every swarm shares the base scenario's slot grid, so one fleet-level
    // slot loop advances them all in lock-step.
    num_slots_ = base.num_slots();
    slot_seconds_ = base.slot_seconds;
    for (const auto& spec : specs) {
        expects(spec.config.num_slots() == num_slots_ &&
                    spec.config.slot_seconds == slot_seconds_,
                "all swarms of a fleet must share the slot grid");
    }

    options_.swarm_options.scheduler = options_.config.scheduler;

    // The fleet emits the merged telemetry stream itself; shards must not
    // write to the sink (and must not know it exists), but span recording is
    // forwarded so per-shard phase traces remain available.
    options_.swarm_options.telemetry = options_.telemetry;
    options_.swarm_options.telemetry.sink = nullptr;

    // Catalog, valuation curve and popularity CDF are pure functions of the
    // base scenario — build them once and share the instance read-only
    // across every shard instead of paying for one copy per swarm.
    if (!options_.swarm_options.assets)
        options_.swarm_options.assets = vod::shared_assets::make(base);

    // Fleet shards always shed their cost-model link caches at slot end:
    // with shards stepped slot-lockstep only ~threads caches are ever warm
    // at once, so the fleet's standing footprint drops by what used to be
    // its single biggest per-shard allocation. Draws are pure functions of
    // the link key, so semantic results are unchanged.
    options_.swarm_options.shed_cost_cache = true;

    // Cross-swarm coupling state, built before the shards so each shard can
    // attach the shared peering graph and its surcharge table slice.
    const capacity::coupling_config& coupling = options_.config.coupling;
    if (coupling.enabled) {
        expects(base.economy.enabled,
                "cross-swarm coupling requires an economy-enabled base scenario");
        fleet_peering_.emplace(
            workload::make_peering_graph(base.economy, base.num_isps));
        fleet_ledger_.emplace(base.num_isps);
        if (base.economy.slots_per_epoch > 0)
            fleet_price_controller_.emplace(*fleet_peering_, base.economy.policy);
        link_budget_.emplace(*fleet_peering_, specs.size(), coupling);
        if (coupling.admission_control)
            admission_.emplace(specs.size(), base.num_isps, coupling);
        if (coupling.share_seed_uplinks)
            broker_.emplace(specs.size(), base.num_isps,
                            base.seeds_per_isp_per_video,
                            base.seed_upload_multiple *
                                static_cast<double>(base.chunks_per_slot()) *
                                coupling.uplink_budget_multiple,
                            coupling);
        swarm_weights_.reserve(specs.size());
        for (const auto& spec : specs) swarm_weights_.push_back(spec.popularity);

        options_.swarm_options.shared_peering = &*fleet_peering_;
        options_.swarm_options.admission.enabled = coupling.admission_control;
        options_.swarm_options.admission.retry_slots =
            coupling.admission_retry_slots;
        options_.swarm_options.admission.max_retries =
            coupling.admission_max_retries;
    }

    // Shard construction (spawning up to hundreds of thousands of peers) is
    // itself embarrassingly parallel: each shard only touches its own world.
    shards_.resize(specs.size());
    const std::uint64_t fleet_seed = options_.config.fleet_seed;
    pool_.parallel_for_each(specs.size(), [&](std::size_t i) {
        shards_[i] = std::make_unique<shard>(std::move(specs[i]), fleet_seed,
                                             options_.swarm_options);
    });
    last_slot_.resize(shards_.size());

    if (coupling.enabled) {
        for (std::size_t i = 0; i < shards_.size(); ++i)
            shards_[i]->emulator().attach_link_surcharge(
                link_budget_->surcharge_table(i));
        if (broker_) {
            // Initial split before any demand exists: the remainder divides
            // by swarm weight, so head swarms start with the larger share of
            // each shared seeder uplink.
            broker_->close_epoch(swarm_weights_);
            apply_seed_allocations();
        }
        add_slot_hook([this](const slot_hook_context& ctx) { coupling_step(ctx); });
    }
    // Telemetry emission is itself a slot hook, registered after the
    // coupling step so emitted records see the slot's post-coupling state.
    add_slot_hook([this](const slot_hook_context& ctx) {
        if (!ctx.timed) return;
        if (!header_emitted_) emit_header();
        const std::size_t every =
            std::max<std::size_t>(1, options_.telemetry.every_slots);
        if (ctx.slot % every == 0) emit_slot_record(ctx.merged, ctx.step_seconds);
    });

    rss_phases_.post_construct_mb = metrics::current_rss_mb();
}

const fleet_slot_metrics& fleet::step() {
    // Wall-clock around the whole step, only when a telemetry sink will
    // consume it — a sink-less fleet reads no clock here (matching the
    // emulator's zero-syscall telemetry-off contract).
    const bool timed = options_.telemetry.sink != nullptr;
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};

    // Parallel phase: each shard advances one slot, writing only its own
    // scratch entry. Barrier before any merging.
    pool_.parallel_for_each(shards_.size(),
                            [&](std::size_t i) { last_slot_[i] = shards_[i]->step(); });

    // Serial merge in swarm-index order — the floating-point sums (and
    // therefore every downstream aggregate) are independent of the thread
    // count and of which worker ran which shard.
    fleet_slot_metrics merged;
    merged.time = last_slot_.empty() ? 0.0 : last_slot_.front().time;
    for (const auto& slot : last_slot_) merged += slot;

    welfare_series_.record(merged.time, merged.social_welfare);
    inter_isp_series_.record(merged.time, merged.inter_isp_fraction);
    miss_rate_series_.record(merged.time, merged.miss_rate);
    viewers_series_.record(merged.time, static_cast<double>(merged.online_peers));
    slots_.push_back(merged);
    if (num_slots_ > 0 && slots_.size() == (num_slots_ + 1) / 2)
        rss_phases_.mid_run_mb = metrics::current_rss_mb();

    // Serial inter-slot hooks (coupling step, telemetry, user hooks), in
    // registration order. The wall clock is read before any hook runs so
    // hook cost never pollutes the reported step time.
    slot_hook_context ctx{slots_.size() - 1, slots_.back(), 0.0, timed};
    if (timed)
        ctx.step_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
    for (const auto& hook : hooks_) hook(ctx);
    return slots_.back();
}

void fleet::coupling_step(const slot_hook_context& ctx) {
    const std::size_t k = ctx.slot;
    const std::size_t n = base_.num_isps;

    // 1. Merged cross-swarm ledger, extended one slot at a time (swarm-index
    //    order) so the fleet-global pricing epoch closes over live volume.
    fleet_ledger_->begin_slot(ctx.merged.time);
    for (const auto& s : shards_) fleet_ledger_->add_slot(s->emulator().ledger(), k);

    // 2. Link pools: charge every swarm's slot traffic, close the slot, and
    //    re-derive the surcharge tables the shards' cost models point at.
    link_budget_->begin_slot();
    for (std::size_t w = 0; w < shards_.size(); ++w) {
        const isp::traffic_ledger& led = shards_[w]->emulator().ledger();
        for (std::size_t m = 0; m < n; ++m)
            for (std::size_t d = 0; d < n; ++d) {
                if (m == d) continue;
                const std::uint64_t chunks = led.slot_chunks(
                    k, isp_id(static_cast<std::int32_t>(m)),
                    isp_id(static_cast<std::int32_t>(d)));
                if (chunks > 0) link_budget_->charge(w, m, d, chunks);
            }
    }
    link_budget_->close_slot(swarm_weights_);

    // 3. Admission budgets for the next slot from inbound link headroom.
    if (admission_) {
        headroom_scratch_.assign(n, 0.0);
        gated_scratch_.assign(n, 0);
        for (std::size_t m = 0; m < n; ++m) {
            gated_scratch_[m] = link_budget_->any_managed_inbound(m) ? 1 : 0;
            headroom_scratch_[m] = link_budget_->inbound_headroom(m);
        }
        queue_scratch_.assign(shards_.size() * n, 0);
        for (std::size_t w = 0; w < shards_.size(); ++w)
            for (std::size_t m = 0; m < n; ++m)
                queue_scratch_[w * n + m] =
                    static_cast<std::uint32_t>(shards_[w]->emulator().admission_queue_len(
                        isp_id(static_cast<std::int32_t>(m))));
        admission_->compute_budgets(headroom_scratch_, gated_scratch_,
                                    queue_scratch_, swarm_weights_);
        for (std::size_t w = 0; w < shards_.size(); ++w)
            shards_[w]->emulator().set_admission_budgets(admission_->budgets(w));
    }

    // 4. Fleet-global epoch close: ISPs re-price off the merged ledger (the
    //    prices every shard reads next slot), and the uplink broker re-splits
    //    each shared seeder budget by realized demand.
    const std::size_t spe = base_.economy.slots_per_epoch;
    if (spe > 0 && (k + 1) % spe == 0) {
        if (fleet_price_controller_) {
            fleet_price_controller_->end_epoch(*fleet_ledger_);
            if (ctx.timed) {
                if (!header_emitted_) emit_header();
                emit_fleet_epoch_record(fleet_price_controller_->history().back());
            }
        }
        if (broker_) {
            for (std::size_t w = 0; w < shards_.size(); ++w)
                for (std::size_t m = 0; m < n; ++m)
                    for (std::size_t s = 0; s < base_.seeds_per_isp_per_video; ++s)
                        broker_->record_uploads(
                            w, m, s, shards_[w]->emulator().seed_uploads(m, s));
            broker_->close_epoch(swarm_weights_);
            apply_seed_allocations();
        }
    }
}

void fleet::apply_seed_allocations() {
    for (std::size_t w = 0; w < shards_.size(); ++w)
        for (std::size_t m = 0; m < base_.num_isps; ++m)
            for (std::size_t s = 0; s < base_.seeds_per_isp_per_video; ++s)
                shards_[w]->emulator().set_seed_capacity(
                    m, s, broker_->allocation(w, m, s));
}

const capacity::link_stats& fleet::link_stats() const {
    expects(link_budget_.has_value(), "link_stats() requires coupling");
    return link_budget_->stats();
}

const isp::peering_graph& fleet::fleet_peering() const {
    expects(fleet_peering_.has_value(), "fleet_peering() requires coupling");
    return *fleet_peering_;
}

const std::vector<isp::epoch_summary>& fleet::fleet_price_epochs() const {
    static const std::vector<isp::epoch_summary> none;
    return fleet_price_controller_ ? fleet_price_controller_->history() : none;
}

obs::counter_registry fleet::merged_counters() {
    expects(!shards_.empty(), "merged_counters() requires at least one swarm");
    // Swarm-index order: integer counters sum exactly; gauge sums see the
    // same addend order regardless of which worker stepped which shard.
    obs::counter_registry merged = shards_.front()->emulator().counters();
    for (std::size_t i = 1; i < shards_.size(); ++i)
        merged.merge(shards_[i]->emulator().counters());
    return merged;
}

void fleet::emit_header() {
    header_emitted_ = true;
    obs::counter_registry merged = merged_counters();
    std::string metric_names;
    for (const auto& e : merged.entries()) {
        if (!metric_names.empty()) metric_names += ',';
        metric_names += e.name;
    }
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("kind", "header")
        .field("scheduler", options_.config.scheduler)
        .field("fleet_seed", options_.config.fleet_seed)
        .field("num_swarms", shards_.size())
        .field("num_slots", num_slots_)
        .field("slot_seconds", slot_seconds_)
        .field("economy", economy_enabled())
        .field("metrics", metric_names);
    // Environment facts — everything here may differ between two runs of
    // the same (config, seed) and is stripped by obs::semantic_view().
    line.begin_object("env")
        .field("threads", pool_.size())
        .field("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .field("spans", options_.telemetry.record_spans)
        .field("every_slots", options_.telemetry.every_slots)
        .end_object();
    options_.telemetry.sink->write_line(line.finish());
}

void fleet::emit_slot_record(const fleet_slot_metrics& m, double step_seconds) {
    obs::counter_registry merged = merged_counters();
    obs::json_line line = vod::slot_record("fleet_slot", slots_.size() - 1, m, merged);
    if (coupling_enabled()) {
        // Schema v2 semantic sub-objects, present only on coupled fleets —
        // an uncoupled v2 stream differs from a v1 stream only in "v".
        line.begin_object("admission")
            .field("admitted", merged.counter_named("admission.admitted"))
            .field("deferred", merged.counter_named("admission.deferred"))
            .field("abandoned", merged.counter_named("admission.abandoned"))
            .field("queued", merged.gauge_named("admission.queued"))
            .end_object();
        const capacity::link_stats& ls = link_budget_->stats();
        line.begin_object("link_saturation")
            .field("managed_pairs", static_cast<std::uint64_t>(ls.managed_pairs))
            .field("saturated_pairs",
                   static_cast<std::uint64_t>(ls.saturated_pairs))
            .field("max_utilization", ls.max_utilization)
            .field("mean_utilization", ls.mean_utilization)
            .end_object();
    }
    line.begin_object("wall").field("step_s", step_seconds).end_object();
    options_.telemetry.sink->write_line(line.finish());
}

void fleet::emit_fleet_epoch_record(const isp::epoch_summary& e) {
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("kind", "fleet_epoch")
        .field("epoch", e.epoch)
        .field("first_slot", e.first_slot)
        .field("num_slots", e.num_slots)
        .field("cross_chunks", e.cross_chunks)
        .field("raised", e.raised)
        .field("lowered", e.lowered)
        .field("mean_inter_price", e.mean_inter_price);
    options_.telemetry.sink->write_line(line.finish());
}

void fleet::run() {
    expects(!has_run_ && slots_.empty(),
            "fleet::run may only be called once (and not after manual steps)");
    has_run_ = true;
    for (std::size_t k = 0; k < num_slots_; ++k) step();
    peak_rss_mb_ = metrics::peak_rss_mb();
    rss_phases_.end_mb = metrics::current_rss_mb();
}

vod::memory_breakdown fleet::memory_footprint() const {
    vod::memory_breakdown total;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        vod::memory_breakdown b = shards_[i]->emulator().memory_footprint();
        if (i > 0) b.shared = 0;  // same shared_assets instance everywhere
        total += b;
    }
    return total;
}

std::uint64_t fleet::solves_per_run() const noexcept {
    return static_cast<std::uint64_t>(shards_.size()) * num_slots_ *
           options_.swarm_options.bid_rounds_per_slot;
}

double fleet::total_expected_viewers() const noexcept {
    double total = 0.0;
    for (const auto& s : shards_) total += s->config().expected_viewers();
    return total;
}

bool fleet::economy_enabled() const {
    for (const auto& s : shards_)
        if (!s->emulator().economy_enabled()) return false;
    return !shards_.empty();
}

isp::traffic_ledger fleet::merged_ledger() const {
    expects(economy_enabled(),
            "merged_ledger() requires every swarm to run the ISP economy");
    isp::traffic_ledger merged = shards_.front()->emulator().ledger();
    for (std::size_t i = 1; i < shards_.size(); ++i)
        merged.merge(shards_[i]->emulator().ledger());
    return merged;
}

isp::billing_statement fleet::merged_bill() const {
    expects(economy_enabled(),
            "merged_bill() requires every swarm to run the ISP economy");
    isp::billing_statement merged = shards_.front()->emulator().bill();
    for (std::size_t i = 1; i < shards_.size(); ++i)
        isp::accumulate(merged, shards_[i]->emulator().bill());
    return merged;
}

}  // namespace p2pcd::engine
