#include "vod/emulator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "baseline/registry.h"
#include "common/contracts.h"
#include "core/exact.h"
#include "core/welfare.h"
#include "obs/jsonl_sink.h"
#include "vod/auction_runtime.h"
#include "workload/peering_gen.h"

namespace p2pcd::vod {

namespace {

double share(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

// ⌈remaining / rounds_left⌉, the round's even share of what is left of an
// uploader's slot budget. The rounding term is added in 64 bits: a capacity
// within rounds_left − 1 of INT32_MAX would overflow it in 32. The share
// never exceeds `remaining`, so it fits back.
std::int32_t round_share(std::int32_t remaining, std::int32_t rounds_left) {
    return static_cast<std::int32_t>(
        (std::int64_t{remaining} + rounds_left - 1) / rounds_left);
}

}  // namespace

slot_metrics& operator+=(slot_metrics& into, const slot_metrics& slot) {
    into.online_peers += slot.online_peers;
    into.requests += slot.requests;
    into.transfers += slot.transfers;
    into.inter_isp_transfers += slot.inter_isp_transfers;
    into.social_welfare += slot.social_welfare;
    into.chunks_due += slot.chunks_due;
    into.chunks_missed += slot.chunks_missed;
    into.auction_bids += slot.auction_bids;
    into.inter_isp_fraction = share(into.inter_isp_transfers, into.transfers);
    into.miss_rate = share(into.chunks_missed, into.chunks_due);
    return into;
}

double total_welfare(std::span<const slot_metrics> slots) {
    double total = 0.0;
    for (const auto& s : slots) total += s.social_welfare;
    return total;
}

double overall_inter_isp_fraction(std::span<const slot_metrics> slots) {
    std::uint64_t inter = 0;
    std::uint64_t total = 0;
    for (const auto& s : slots) {
        inter += s.inter_isp_transfers;
        total += s.transfers;
    }
    return share(inter, total);
}

double overall_miss_rate(std::span<const slot_metrics> slots) {
    std::uint64_t missed = 0;
    std::uint64_t due = 0;
    for (const auto& s : slots) {
        missed += s.chunks_missed;
        due += s.chunks_due;
    }
    return share(missed, due);
}

obs::json_line slot_record(std::string_view kind, std::size_t slot,
                           const slot_metrics& m, const obs::counter_registry& counters) {
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("kind", kind)
        .field("slot", slot)
        .field("time", m.time)
        .field("online_peers", m.online_peers)
        .field("requests", m.requests)
        .field("transfers", m.transfers)
        .field("inter_isp_transfers", m.inter_isp_transfers)
        .field("inter_isp_fraction", m.inter_isp_fraction)
        .field("social_welfare", m.social_welfare)
        .field("chunks_due", m.chunks_due)
        .field("chunks_missed", m.chunks_missed)
        .field("miss_rate", m.miss_rate)
        .field("auction_bids", m.auction_bids);
    for (std::size_t i = 0; i < counters.entries().size(); ++i) {
        const auto& e = counters.entries()[i];
        if (e.kind == obs::metric_kind::counter)
            line.field(e.name, counters.counter_at(i));
        else
            line.field(e.name, counters.gauge_at(i));
    }
    return line;
}

emulator::emulator(emulator_options options)
    : options_(std::move(options)),
      assets_(options_.assets ? options_.assets
                              : shared_assets::make(options_.config)),
      topology_(options_.config.num_isps),
      rng_factory_(options_.config.master_seed),
      arrival_rng_(rng_factory_.stream("arrivals")),
      peer_rng_(rng_factory_.stream("peers")) {
    options_.config.validate();
    expects(options_.bid_rounds_per_slot >= 1, "bid_rounds_per_slot must be at least 1");
    expects(std::isfinite(options_.latency_per_cost) && options_.latency_per_cost >= 0.0,
            "latency_per_cost must be non-negative and finite");
    // Externally-provided assets must match what this config would build —
    // sharing may never change behavior.
    expects(assets_->catalog.num_videos() == options_.config.num_videos &&
                assets_->catalog.chunks_per_video() ==
                    options_.config.chunks_per_video() &&
                assets_->catalog.chunks_per_second() ==
                    options_.config.chunks_per_second() &&
                assets_->video_popularity.size() == options_.config.num_videos,
            "shared assets built from an incompatible scenario");

    // Resolve the scheduling algorithm by name, once; the instance lives as
    // long as the emulator so its workspaces stay warm across rounds.
    const core::scheduler_registry& registry =
        options_.registry ? *options_.registry : baseline::builtin_schedulers();
    core::scheduler_params params;
    params.auction = options_.auction;
    // Nothing in the slot loop reads request utilities: skip the auction's
    // dual-recovery sweep outright.
    params.auction.compute_request_utilities = false;
    params.locality_max_rounds = options_.locality.max_rounds;
    params.seed = options_.config.master_seed;
    scheduler_ = registry.make(options_.scheduler, params);
    auction_ = dynamic_cast<core::auction_solver*>(scheduler_.get());
    exact_ = dynamic_cast<core::exact_scheduler*>(scheduler_.get());

    // Mask window span: the widest word range a prefetch window can touch
    // (begin mod 64 + prefetch chunks, rounded out), clamped to the video.
    mask_words_ = std::min((options_.config.prefetch_chunks >> 6) + 2,
                           (options_.config.chunks_per_video() + 63) >> 6);
    delta_up_scratch_.resize(delta_seg_cap);
    word_scratch_.resize(mask_words_);

    register_metrics();
    spans_ = obs::span_recorder(options_.telemetry.record_spans,
                                options_.telemetry.span_capacity);

    auto cost_rng = rng_factory_.stream("costs");
    costs_.emplace(topology_, options_.config.costs, cost_rng);

    const isp::economy_config& economy = options_.config.economy;
    expects(options_.shared_peering == nullptr || economy.enabled,
            "shared_peering requires config.economy.enabled");
    if (economy.enabled) {
        if (options_.shared_peering != nullptr) {
            // Fleet-shared graph: no private copy and no per-swarm price
            // controller — the fleet closes pricing epochs globally off the
            // merged cross-swarm ledger and mutates prices between slots.
            peering_view_ = options_.shared_peering;
        } else {
            peering_.emplace(
                workload::make_peering_graph(economy, options_.config.num_isps));
            if (economy.slots_per_epoch > 0)
                price_controller_.emplace(*peering_, economy.policy);
            peering_view_ = &*peering_;
        }
        ledger_.emplace(options_.config.num_isps);
        costs_->attach_peering(peering_view_);
        // Relationship class per directed ISP pair, flattened so the
        // per-transfer ledger-byte gauges cost one byte load to classify.
        // shared_assets carries the table for every economy config; only a
        // hand-built assets instance without it falls back to deriving one.
        const std::size_t n = options_.config.num_isps;
        if (assets_->link_class.size() == n * n) {
            link_class_ = assets_->link_class.data();
        } else {
            own_link_class_.resize(n * n);
            for (std::size_t m = 0; m < n; ++m)
                for (std::size_t k = 0; k < n; ++k)
                    own_link_class_[m * n + k] = static_cast<std::uint8_t>(
                        peering_view_
                            ->link(isp_id(static_cast<std::int32_t>(m)),
                                   isp_id(static_cast<std::int32_t>(k)))
                            .rel);
            link_class_ = own_link_class_.data();
        }
    }

    add_seeds();
    add_initial_peers();
    if (options_.config.arrival_rate > 0.0) {
        arrivals_.emplace(options_.config.arrival_rate);
        next_arrival_ = arrivals_->next_arrival(arrival_rng_);
    }
    if (options_.admission.enabled) {
        expects(options_.admission.retry_slots > 0,
                "admission retry_slots must be positive");
        // A dedicated stream: gating never perturbs the "arrivals"/"peers"
        // draws, so admission-on with open gates spawns the same viewers.
        admission_rng_.emplace(rng_factory_.stream("admission"));
        id_base_ = next_peer_id_;
    }
}

// The emulator's metric set, in the registration order that is the one
// schema order every consumer (JSONL records, fleet merge, bench artifact)
// sees. Counters are cumulative over the run; gauges are byte volumes.
void emulator::register_metrics() {
    c_arrivals_ = counters_.add_counter("peers.arrivals");
    c_departures_ = counters_.add_counter("peers.departures");
    c_solver_rounds_ = counters_.add_counter("solver.rounds");
    c_solver_bids_ = counters_.add_counter("solver.bids");
    c_solver_phases_ = counters_.add_counter("solver.phases");
    c_solver_pivots_ = counters_.add_counter("solver.pivots");
    c_tracker_repairs_ = counters_.add_counter("tracker.repairs");
    c_tracker_inversions_ = counters_.add_counter("tracker.inversions");
    c_cache_hits_ = counters_.add_counter("cost.cache_hits");
    c_cache_misses_ = counters_.add_counter("cost.cache_misses");
    c_cache_flushes_ = counters_.add_counter("cost.cache_flushes");
    c_shed_events_ = counters_.add_counter("shed.events");
    // Admission metrics are registered unconditionally (zero when gating is
    // off) so every shard of a fleet shares one counter layout and the merge
    // stays layout-gated.
    c_admitted_ = counters_.add_counter("admission.admitted");
    c_deferred_ = counters_.add_counter("admission.deferred");
    c_abandoned_ = counters_.add_counter("admission.abandoned");
    g_bytes_sibling_ = counters_.add_gauge("ledger.bytes_sibling");
    g_bytes_peer_ = counters_.add_gauge("ledger.bytes_peer");
    g_bytes_transit_ = counters_.add_gauge("ledger.bytes_transit");
    g_admission_queue_ = counters_.add_gauge("admission.queued");
    // Delta-build counters: rows (re)transposed or run on the reference
    // path, and rows maintained incrementally. New names append after every
    // v1 metric so the slot-record prefix is stable.
    c_delta_dirty_ = counters_.add_counter("delta.dirty_rows");
    c_delta_reused_ = counters_.add_counter("delta.reused_rows");
    // Candidates emitted, and eligible holders left out because w > v.
    c_build_candidates_ = counters_.add_counter("build.candidates");
    c_build_pruned_ = counters_.add_counter("build.pruned_candidates");
}

void emulator::sample_counters() {
    const net::cost_cache_stats cs = costs_->cache_stats();
    counters_.set(c_cache_hits_, cs.hits);
    counters_.set(c_cache_misses_, cs.misses);
    counters_.set(c_cache_flushes_, cs.flushes);
    const tracker_stats& ts = tracker_.stats();
    counters_.set(c_tracker_repairs_, ts.repairs);
    counters_.set(c_tracker_inversions_, ts.inversions);
    if (exact_ != nullptr) counters_.set(c_solver_pivots_, exact_->total_pivots());
    counters_.set(g_admission_queue_, static_cast<double>(deferred_.size()));
}

obs::counter_registry& emulator::counters() {
    sample_counters();
    return counters_;
}

slot_phase_totals emulator::phase_totals() const noexcept {
    slot_phase_totals t;
    t.arrivals = spans_.total_seconds(obs::phase::arrivals);
    t.departures = spans_.total_seconds(obs::phase::departures);
    t.playback = spans_.total_seconds(obs::phase::playback);
    t.neighbor_refresh = spans_.total_seconds(obs::phase::neighbor_refresh);
    t.build = spans_.total_seconds(obs::phase::build);
    t.solve = spans_.total_seconds(obs::phase::solve);
    t.apply = spans_.total_seconds(obs::phase::apply);
    t.shed = spans_.total_seconds(obs::phase::shed);
    return t;
}

void emulator::emit_header() {
    header_emitted_ = true;
    // Counter schema as one comma-joined list (the registry's registration
    // order — the same order "slot" records serialize values in).
    std::string metric_names;
    for (const auto& e : counters_.entries()) {
        if (!metric_names.empty()) metric_names += ',';
        metric_names += e.name;
    }
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("kind", "header")
        .field("scheduler", options_.scheduler)
        .field("master_seed", options_.config.master_seed)
        .field("num_isps", options_.config.num_isps)
        .field("num_videos", options_.config.num_videos)
        .field("initial_peers", options_.config.initial_peers)
        .field("arrival_rate", options_.config.arrival_rate)
        .field("slot_seconds", options_.config.slot_seconds)
        .field("num_slots", options_.config.num_slots())
        .field("economy", economy_enabled())
        .field("metrics", metric_names);
    line.begin_object("env")
        .field("spans", spans_.enabled())
        .field("every_slots", options_.telemetry.every_slots)
        .end_object();
    options_.telemetry.sink->write_line(line.finish());
}

void emulator::emit_slot_record(const slot_metrics& m) {
    sample_counters();
    obs::json_line line = slot_record("slot", slots_.size() - 1, m, counters_);
    if (spans_.enabled()) {
        // Wall-clock delta since the previous record — segregated so the
        // semantic projection of two runs still compares byte-for-byte.
        const double total = phase_totals().total();
        line.begin_object("wall")
            .field("slot_s", total - last_wall_total_)
            .end_object();
        last_wall_total_ = total;
    }
    options_.telemetry.sink->write_line(line.finish());
}

void emulator::emit_epoch_record(const isp::epoch_summary& e) {
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("kind", "epoch")
        .field("epoch", e.epoch)
        .field("first_slot", e.first_slot)
        .field("num_slots", e.num_slots)
        .field("cross_chunks", e.cross_chunks)
        .field("raised", e.raised)
        .field("lowered", e.lowered)
        .field("mean_inter_price", e.mean_inter_price);
    options_.telemetry.sink->write_line(line.finish());
}

void emulator::add_seeds() {
    const auto& cfg = options_.config;
    const auto seed_capacity = static_cast<std::int32_t>(
        cfg.seed_upload_multiple * static_cast<double>(cfg.chunks_per_slot()));
    for (std::size_t v = 0; v < cfg.num_videos; ++v) {
        for (std::size_t m = 0; m < cfg.num_isps; ++m) {
            for (std::size_t s = 0; s < cfg.seeds_per_isp_per_video; ++s) {
                peer_table::peer_spawn seed;
                seed.id = peer_id(next_peer_id_++);
                seed.isp = isp_id(static_cast<std::int32_t>(m));
                seed.video = video_id(static_cast<std::int32_t>(v));
                seed.seed = true;
                seed.upload_capacity = seed_capacity;
                buffer_map buffer(cfg.chunks_per_video());
                buffer.fill_all();
                topology_.add_peer(seed.id, seed.isp);
                if (v == 0 && m == 0 && s == 0) default_probe_ = seed.id;
                const std::size_t row = peers_.add(seed, std::move(buffer));
                tracker_.register_peer(row, seed.video, /*seed=*/true);
            }
        }
    }
    num_seeds_ = peers_.rows();
}

std::size_t emulator::spawn_viewer(double join_time, bool pre_warmed,
                                   std::int32_t forced_isp) {
    const auto& cfg = options_.config;
    peer_table::peer_spawn viewer;
    viewer.id = peer_id(next_peer_id_++);
    // "distributed in the 5 ISPs evenly". The admission path forces the ISP
    // assigned at Poisson-arrival time (a deferred viewer keeps its ISP even
    // though its row — and id — is minted only when it finally passes the
    // gate).
    viewer.isp = forced_isp >= 0
                     ? isp_id(forced_isp)
                     : isp_id(static_cast<std::int32_t>(
                           static_cast<std::size_t>(viewer.id.value()) %
                           cfg.num_isps));
    viewer.video = video_id(static_cast<std::int32_t>(
        assets_->video_popularity.sample(peer_rng_) - 1));
    double multiple = peer_rng_.uniform_real(cfg.peer_upload_min_multiple,
                                             cfg.peer_upload_max_multiple);
    viewer.upload_capacity = static_cast<std::int32_t>(
        multiple * static_cast<double>(cfg.chunks_per_slot()));
    viewer.join_time = join_time;
    buffer_map buffer(cfg.chunks_per_video());

    if (pre_warmed) {
        // Steady-state viewer: already mid-video with its watched prefix (and
        // nothing else) in the buffer.
        auto max_position = static_cast<std::int64_t>(
            cfg.initial_position_max_fraction *
            static_cast<double>(cfg.chunks_per_video() - 1));
        auto position = static_cast<std::size_t>(
            peer_rng_.uniform_int(0, std::max<std::int64_t>(1, max_position)));
        viewer.playback_position = static_cast<double>(position);
        viewer.playback_start = join_time;
        buffer.fill_prefix(position);
    } else {
        viewer.playback_position = 0.0;
        // One slot of startup prefetch before playback begins.
        viewer.playback_start = join_time + cfg.slot_seconds;
    }

    double remaining_seconds =
        (static_cast<double>(cfg.chunks_per_video()) - viewer.playback_position) /
        cfg.chunks_per_second();
    if (cfg.departure_probability > 0.0 &&
        peer_rng_.bernoulli(cfg.departure_probability)) {
        // Early quitter: leaves at a uniformly random point of its session.
        viewer.planned_departure =
            viewer.playback_start + peer_rng_.uniform_real(0.0, remaining_seconds);
    }

    topology_.add_peer(viewer.id, viewer.isp);
    const std::size_t row = peers_.add(viewer, std::move(buffer));
    tracker_.register_peer(row, viewer.video, /*seed=*/false,
                           viewer.playback_position);
    // Rows are minted in id order, so appending keeps the list ascending.
    active_viewers_.push_back(static_cast<std::uint32_t>(row));
    counters_.inc(c_arrivals_);
    return row;
}

void emulator::add_initial_peers() {
    for (std::size_t i = 0; i < options_.config.initial_peers; ++i)
        spawn_viewer(0.0, /*pre_warmed=*/true);
}

void emulator::process_arrivals(double until) {
    if (!options_.admission.enabled) {
        // Ungated: the pre-coupling arrival path, verbatim (no admission
        // draws, no sequence bookkeeping) — bit-identical behavior.
        if (!arrivals_) return;
        while (next_arrival_ <= until) {
            spawn_viewer(next_arrival_, /*pre_warmed=*/false);
            next_arrival_ = arrivals_->next_arrival(arrival_rng_);
        }
        return;
    }

    const std::size_t slot = slots_.size();
    // Deferred viewers retry first (FIFO): they hold the earliest claim on
    // whatever budget the fleet granted for this slot.
    for (std::size_t i = 0; i < deferred_.size();) {
        deferred_viewer& d = deferred_[i];
        if (d.retry_slot > slot) {
            ++i;
            continue;
        }
        if (try_admit(d.isp)) {
            spawn_viewer(until, /*pre_warmed=*/false,
                         static_cast<std::int32_t>(d.isp));
            counters_.inc(c_admitted_);
            deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (++d.retries >= options_.admission.max_retries) {
            counters_.inc(c_abandoned_);
            deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            d.retry_slot = slot + options_.admission.retry_slots +
                           static_cast<std::size_t>(admission_rng_->uniform_int(0, 1));
            ++i;
        }
    }

    if (!arrivals_) return;
    while (next_arrival_ <= until) {
        const double t = next_arrival_;
        // The ISP a gated arrival lands in is a function of its position in
        // the arrival sequence — exactly the id the ungated path would have
        // minted for it — so open gates reproduce the ungated round-robin.
        const auto isp = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(id_base_) + arrival_seq_) %
            options_.config.num_isps);
        ++arrival_seq_;
        if (try_admit(isp)) {
            spawn_viewer(t, /*pre_warmed=*/false, static_cast<std::int32_t>(isp));
            counters_.inc(c_admitted_);
        } else {
            counters_.inc(c_deferred_);
            deferred_.push_back(
                {isp, 0,
                 slot + options_.admission.retry_slots +
                     static_cast<std::size_t>(admission_rng_->uniform_int(0, 1))});
        }
        next_arrival_ = arrivals_->next_arrival(arrival_rng_);
    }
}

bool emulator::try_admit(std::uint32_t isp) {
    if (admission_budget_.empty()) return true;  // no budgets pushed yet
    std::uint32_t& budget = admission_budget_[isp];
    if (budget == capacity::admission_unlimited) return true;
    if (budget == 0) return false;
    --budget;
    return true;
}

void emulator::set_admission_budgets(std::span<const std::uint32_t> per_isp) {
    expects(options_.admission.enabled,
            "admission budgets require options.admission.enabled");
    expects(per_isp.size() == options_.config.num_isps,
            "admission budgets need one entry per ISP");
    admission_budget_.assign(per_isp.begin(), per_isp.end());
}

std::size_t emulator::admission_queue_len(isp_id isp) const {
    std::size_t n = 0;
    for (const deferred_viewer& d : deferred_)
        if (d.isp == static_cast<std::uint32_t>(isp.value())) ++n;
    return n;
}

std::uint64_t emulator::seed_uploads(std::size_t isp, std::size_t ordinal) const {
    const auto& cfg = options_.config;
    expects(isp < cfg.num_isps && ordinal < cfg.seeds_per_isp_per_video,
            "seed identity out of range");
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < cfg.num_videos; ++v) {
        const std::size_t row =
            (v * cfg.num_isps + isp) * cfg.seeds_per_isp_per_video + ordinal;
        total += peers_.lifetime(row).chunks_uploaded;
    }
    return total;
}

void emulator::set_seed_capacity(std::size_t isp, std::size_t ordinal,
                                 std::int32_t chunks_per_slot) {
    const auto& cfg = options_.config;
    expects(isp < cfg.num_isps && ordinal < cfg.seeds_per_isp_per_video,
            "seed identity out of range");
    expects(chunks_per_slot > 0, "seed capacity must stay positive");
    for (std::size_t v = 0; v < cfg.num_videos; ++v) {
        const std::size_t row =
            (v * cfg.num_isps + isp) * cfg.seeds_per_isp_per_video + ordinal;
        peers_.set_upload_capacity(row, chunks_per_slot);
    }
}

void emulator::process_departures() {
    bool any = false;
    for (std::uint32_t row : active_viewers_) {
        bool finished = peers_.finished(row, assets_->catalog.chunks_per_video());
        bool quits = peers_.planned_departure(row) >= 0.0 &&
                     peers_.planned_departure(row) <= now_;
        if (!finished && !quits) continue;
        peers_.mark_departed(row);
        topology_.remove_peer(peers_.id(row));
        tracker_.unregister_peer(row);
        // Nothing reads a departed peer's buffer again (requests, candidates
        // and playback all draw from the active list) — reclaim it.
        peers_.buffer(row).release();
        counters_.inc(c_departures_);
        any = true;
    }
    if (any)
        std::erase_if(active_viewers_,
                      [&](std::uint32_t row) { return peers_.departed(row); });
}

void emulator::refresh_neighbors() {
    const std::size_t rows = peers_.rows();
    neighbor_offsets_.assign(rows + 1, 0);
    neighbor_rows_.clear();
    for (std::uint32_t row : active_viewers_) {
        tracker_.bootstrap(row, options_.config.neighbor_count, neighbor_rows_);
        expects(neighbor_rows_.size() <= 0xffffffffu, "neighbor arena exceeds u32");
        neighbor_offsets_[row + 1] = static_cast<std::uint32_t>(neighbor_rows_.size());
    }
    // Rows that did not bootstrap (seeds, departed) get empty ranges.
    for (std::size_t r = 1; r <= rows; ++r)
        neighbor_offsets_[r] = std::max(neighbor_offsets_[r], neighbor_offsets_[r - 1]);
}

void emulator::prefetch_link_costs() {
    // One probe per (viewer, neighbor) link per slot. The builder re-reads
    // each link cost up to prefetch_chunks × rounds times per slot; costs
    // are constant within the slot (peering prices move only at epoch
    // close), so one batched probe per link turns all of those into array
    // reads.
    neighbor_costs_.resize(neighbor_rows_.size());
    for (std::uint32_t row : active_viewers_) {
        const peer_id me = peers_.id(row);
        const std::size_t begin = neighbor_offsets_[row];
        const std::size_t end = neighbor_offsets_[row + 1];
        batch_ids_.resize(end - begin);
        for (std::size_t k = begin; k < end; ++k)
            batch_ids_[k - begin] = peers_.id(neighbor_rows_[k]);
        costs_->cost_batch(batch_ids_, me,
                           std::span<double>(neighbor_costs_).subspan(begin, end - begin));
    }
}

void emulator::build_problem(double now, bool first_round,
                             const std::vector<std::int32_t>& round_capacity,
                             bool profitable_only) {
    build_problem_delta(now, first_round, round_capacity, profitable_only);
    if (options_.delta_shadow_check) {
        build_problem_full(now, round_capacity, profitable_only, shadow_problem_);
        expects(round_problem_.problem.identical_to(shadow_problem_.problem) &&
                    round_problem_.request_row == shadow_problem_.request_row &&
                    round_problem_.uploader_row == shadow_problem_.uploader_row,
                "delta build diverged from the full rebuild");
    }
    const slot_problem& sp = round_problem_;
    counters_.inc(c_build_candidates_, sp.problem.num_candidates());
    hw_uploaders_ = std::max(hw_uploaders_, sp.problem.num_uploaders());
    hw_requests_ = std::max(hw_requests_, sp.problem.num_requests());
    hw_candidates_ = std::max(hw_candidates_, sp.problem.num_candidates());
}

void emulator::register_uploaders(slot_problem& sp,
                                  const std::vector<std::int32_t>& round_capacity) {
    sp.problem.clear();  // arena reuse: capacity from previous rounds persists
    // The arena was shed at the previous slot's end; one reserve at the
    // remembered high water replaces the geometric regrowth (first slot: all
    // zeros, plain growth).
    sp.problem.reserve(hw_uploaders_, hw_requests_, hw_candidates_);
    sp.uploader_of_peer.assign(peers_.rows(), UINT32_MAX);
    sp.uploader_row.clear();
    sp.request_row.clear();
    // Seeds occupy the first rows and never depart; live viewers follow in
    // ascending row order — together exactly the pre-refactor full-table
    // scan minus the departed.
    for (std::size_t row = 0; row < num_seeds_; ++row) {
        if (round_capacity[row] <= 0) continue;
        sp.uploader_of_peer[row] = static_cast<std::uint32_t>(
            sp.problem.add_uploader(peers_.id(row), round_capacity[row]));
        sp.uploader_row.push_back(static_cast<std::uint32_t>(row));
    }
    for (std::uint32_t row : active_viewers_) {
        if (round_capacity[row] <= 0) continue;
        sp.uploader_of_peer[row] = static_cast<std::uint32_t>(
            sp.problem.add_uploader(peers_.id(row), round_capacity[row]));
        sp.uploader_row.push_back(row);
    }
}

std::size_t emulator::append_viewer_row(slot_problem& sp, std::uint32_t row,
                                        double now, bool profitable_only) {
    const auto& cfg = options_.config;
    const std::size_t n_chunks = cfg.chunks_per_video();
    const double position = peers_.playback_position(row);
    const double playback_start = peers_.playback_start(row);
    const video_id video = peers_.video(row);
    const buffer_map& buffer = peers_.buffer(row);
    auto window_begin = static_cast<std::size_t>(std::ceil(position));
    std::size_t window_end = std::min(window_begin + cfg.prefetch_chunks, n_chunks);
    std::size_t idx = buffer.first_missing_in(window_begin, window_end);
    if (idx >= window_end) return 0;  // window fully buffered

    // Gather each eligible neighbor's window words next to its uploader
    // ordinal and prefetched cost: the per-chunk candidate test below
    // becomes a bit probe into this L1-resident scratch instead of a
    // random read into every neighbor's bitmap. Skipping departed or
    // capacity-less neighbors here preserves the candidate order (the
    // filter is chunk-independent).
    const std::size_t word_lo = window_begin >> 6;
    const std::size_t n_words = ((window_end + 63) >> 6) - word_lo;
    cand_words_.clear();
    cand_uploader_.clear();
    cand_cost_.clear();
    const std::size_t nbr_begin = neighbor_offsets_[row];
    const std::size_t nbr_end = neighbor_offsets_[row + 1];
    for (std::size_t k = nbr_begin; k < nbr_end; ++k) {
        const std::uint32_t n_row = neighbor_rows_[k];
        if (peers_.departed(n_row)) continue;
        const std::uint32_t uploader = sp.uploader_of_peer[n_row];
        if (uploader == UINT32_MAX) continue;
        const std::size_t at = cand_words_.size();
        cand_words_.resize(at + n_words);
        peers_.buffer(n_row).copy_words(word_lo, n_words,
                                        cand_words_.data() + at);
        cand_uploader_.push_back(uploader);
        cand_cost_.push_back(neighbor_costs_[k]);
    }
    if (cand_uploader_.empty()) return 0;

    std::size_t pruned = 0;
    for (; idx < window_end; idx = buffer.first_missing_in(idx + 1, window_end)) {
        // Deadline: the moment playback reaches this chunk.
        double deadline =
            now < playback_start
                ? playback_start +
                      static_cast<double>(idx) / cfg.chunks_per_second()
                : now + (static_cast<double>(idx) - position) /
                            cfg.chunks_per_second();
        double ttl = std::max(0.0, deadline - now);
        const std::size_t word = (idx >> 6) - word_lo;
        const std::size_t shift = idx & 63;
        // Any eligible holder opens the request, profitable or not.
        bool opened = false;
        double v = 0.0;
        for (std::size_t j = 0; j < cand_uploader_.size(); ++j) {
            if (((cand_words_[j * n_words + word] >> shift) & 1u) == 0) continue;
            if (!opened) {
                opened = true;
                v = assets_->valuation.value(ttl);
                sp.problem.add_request(peers_.id(row),
                                       assets_->catalog.chunk_of(video, idx), v);
                sp.request_row.push_back(row);
            }
            if (!profitable_only || cand_cost_[j] <= v)
                sp.problem.append_candidate(cand_uploader_[j], cand_cost_[j]);
            else
                ++pruned;
        }
    }
    return pruned;
}

void emulator::build_problem_full(double now,
                                  const std::vector<std::int32_t>& round_capacity,
                                  bool profitable_only, slot_problem& sp) {
    register_uploaders(sp, round_capacity);
    for (std::uint32_t row : active_viewers_) {
        if (peers_.join_time(row) > now) continue;
        (void)append_viewer_row(sp, row, now, profitable_only);
    }
}

namespace {
// Scatters the set bits of one buffer word into 64 consecutive chunk masks:
// buffer bit c (= chunk base+c present at neighbor j) becomes bit j of
// mask64[c].
inline void scatter_word(std::uint32_t* mask64, std::uint64_t word,
                         std::uint32_t bit) noexcept {
    while (word != 0) {
        mask64[std::countr_zero(word)] |= bit;
        word &= word - 1;
    }
}
}  // namespace

double emulator::deadline_value(double ttl) {
    const auto bits = std::bit_cast<std::uint64_t>(ttl);
    // Direct-mapped on the ttl's exact bit pattern: a hit returns the very
    // double value() computed for those bits, so caching is unobservable.
    const std::size_t cell = (bits * 0x9e3779b97f4a7c15ull) >> 51;  // 13 bits
    if (val_keys_[cell] == bits) return val_vals_[cell];
    const double v = assets_->valuation.value(ttl);
    val_keys_[cell] = bits;
    val_vals_[cell] = v;
    return v;
}

void emulator::build_problem_delta(double now, bool first_round,
                                   const std::vector<std::int32_t>& round_capacity,
                                   bool profitable_only) {
    slot_problem& sp = round_problem_;
    register_uploaders(sp, round_capacity);

    const auto& cfg = options_.config;
    const std::size_t n_chunks = cfg.chunks_per_video();
    const std::size_t buf_words = (n_chunks + 63) >> 6;
    const std::size_t n_active = active_viewers_.size();
    if (first_round) {
        // Open the slot's delta state (the previous slot's was shed with the
        // arena): every row starts fresh, so round 0 transposes each one.
        delta_rows_.assign(n_active, {});
        delta_masks_.resize(n_active * mask_words_ * 64);
        delta_snap_.resize(n_active * delta_seg_cap * mask_words_);
        // ttl ≥ 0, so an all-ones key (negative NaN) can never collide.
        val_keys_.assign(std::size_t{1} << 13, ~std::uint64_t{0});
        val_vals_.resize(std::size_t{1} << 13);
    }
    std::uint64_t dirty = 0;
    std::uint64_t reused = 0;
    std::uint64_t pruned = 0;
    // A row's eligible link costs, ascending, and prof_mask[k] = the segment
    // bits of the k cheapest: the holders a request at value v may list are
    // then prof_mask[#costs ≤ v].
    std::array<double, delta_seg_cap> prof_cost{};
    std::array<std::uint32_t, delta_seg_cap + 1> prof_mask{};

    for (std::size_t i = 0; i < n_active; ++i) {
        const std::uint32_t row = active_viewers_[i];
        if (peers_.join_time(row) > now) continue;
        const double position = peers_.playback_position(row);
        const double playback_start = peers_.playback_start(row);
        const video_id video = peers_.video(row);
        const buffer_map& buffer = peers_.buffer(row);
        auto window_begin = static_cast<std::size_t>(std::ceil(position));
        std::size_t window_end = std::min(window_begin + cfg.prefetch_chunks, n_chunks);
        std::size_t idx = buffer.first_missing_in(window_begin, window_end);
        if (idx >= window_end) continue;  // window fully buffered

        // Within a slot the neighbor arena is immutable, so the row's slice
        // of it is the mask segment.
        delta_row_state& ds = delta_rows_[i];
        const std::uint32_t nbr_begin = neighbor_offsets_[row];
        const std::uint32_t* seg = neighbor_rows_.data() + nbr_begin;
        if (ds.mode == delta_mode::fresh) {
            // The masks represent segments of ≤ 32 neighbors; wider rows
            // run the reference path. (Segments hold live rows only: the
            // tracker drops departures before the refresh.)
            const std::size_t len = neighbor_offsets_[row + 1] - nbr_begin;
            if (len <= delta_seg_cap) {
                ds.seg_len = static_cast<std::uint32_t>(len);
                std::uint32_t sc = 0;
                while (sc < len && seg[sc] < num_seeds_) ++sc;
                ds.seed_count = sc;
            } else {
                ds.mode = delta_mode::fallback;
            }
        }
        if (ds.mode == delta_mode::fallback) {
            ++dirty;
            pruned += append_viewer_row(sp, row, now, profitable_only);
            continue;
        }

        // --- mask maintenance ---
        const std::size_t word_lo = window_begin >> 6;
        const std::size_t cover = std::min(mask_words_, buf_words - word_lo);
        std::uint32_t* masks = delta_masks_.data() + i * mask_words_ * 64;
        std::uint64_t* snap = delta_snap_.data() + i * delta_seg_cap * mask_words_;
        if (ds.mode == delta_mode::fresh) {
            // Full transpose: every viewer-neighbor's window words, fresh.
            std::fill_n(masks, cover * 64, 0u);
            for (std::uint32_t j = ds.seed_count; j < ds.seg_len; ++j) {
                std::uint64_t* sj = snap + j * mask_words_;
                peers_.buffer(seg[j]).copy_words(word_lo, cover, sj);
                const std::uint32_t bit = 1u << j;
                for (std::size_t w = 0; w < cover; ++w)
                    scatter_word(masks + w * 64, sj[w], bit);
            }
            ds.mode = delta_mode::masked;
            ++dirty;
        } else {
            // Incremental: re-base the window (playback only moves forward),
            // transpose the frontier words, OR in each neighbor's new bits.
            const std::size_t shift = word_lo - ds.word_lo;
            const std::size_t retained =
                shift >= ds.cover ? 0
                                  : std::min<std::size_t>(ds.cover - shift, cover);
            if (shift > 0 && retained > 0)
                std::memmove(masks, masks + shift * 64,
                             retained * 64 * sizeof(std::uint32_t));
            if (retained < cover)
                std::fill_n(masks + retained * 64, (cover - retained) * 64, 0u);
            for (std::uint32_t j = ds.seed_count; j < ds.seg_len; ++j) {
                std::uint64_t* sj = snap + j * mask_words_;
                if (shift > 0 && retained > 0)
                    std::memmove(sj, sj + shift, retained * sizeof(std::uint64_t));
                peers_.buffer(seg[j]).copy_words(word_lo, cover,
                                                 word_scratch_.data());
                const std::uint32_t bit = 1u << j;
                for (std::size_t w = 0; w < retained; ++w) {
                    // Live buffers are monotone: the diff is exactly the
                    // chunks this neighbor gained since the last round.
                    const std::uint64_t fresh = word_scratch_[w] & ~sj[w];
                    if (fresh != 0) scatter_word(masks + w * 64, fresh, bit);
                }
                for (std::size_t w = retained; w < cover; ++w)
                    if (word_scratch_[w] != 0)
                        scatter_word(masks + w * 64, word_scratch_[w], bit);
                std::copy_n(word_scratch_.data(), cover, sj);
            }
            ++reused;
        }
        ds.word_lo = static_cast<std::uint32_t>(word_lo);
        ds.cover = static_cast<std::uint32_t>(cover);

        // --- emission: the reference builder's candidate order, bit j of
        // (mask | seed_bits) & eligibility == gathered-candidate ordinal j ---
        const double* seg_costs = neighbor_costs_.data() + nbr_begin;
        std::uint32_t elig = 0;
        for (std::uint32_t j = 0; j < ds.seg_len; ++j) {
            const std::uint32_t up = sp.uploader_of_peer[seg[j]];
            delta_up_scratch_[j] = up;
            if (up != UINT32_MAX) elig |= 1u << j;
        }
        if (elig == 0) continue;
        // Seed buffers are full, so every eligible seed holds every chunk
        // (the masks never carry seed bits — seeds are exempt from the
        // transpose).
        const std::uint32_t seed_bits =
            elig & (ds.seed_count >= 32 ? 0xffffffffu : (1u << ds.seed_count) - 1u);
        std::uint32_t n_prof = 0;
        if (profitable_only) {
            // Insertion sort of (cost, bit) into prof_cost / prof_mask[1..],
            // then a running OR turns the bits into cumulative masks.
            for (std::uint32_t e = elig; e != 0; e &= e - 1) {
                const auto j = static_cast<std::uint32_t>(std::countr_zero(e));
                std::uint32_t k = n_prof++;
                for (; k > 0 && prof_cost[k - 1] > seg_costs[j]; --k) {
                    prof_cost[k] = prof_cost[k - 1];
                    prof_mask[k + 1] = prof_mask[k];
                }
                prof_cost[k] = seg_costs[j];
                prof_mask[k + 1] = 1u << j;
            }
            for (std::uint32_t k = 1; k <= n_prof; ++k) prof_mask[k] |= prof_mask[k - 1];
        }
        const std::size_t base = word_lo << 6;
        for (; idx < window_end; idx = buffer.first_missing_in(idx + 1, window_end)) {
            const std::uint32_t holders = (masks[idx - base] & elig) | seed_bits;
            if (holders == 0) continue;
            double deadline =
                now < playback_start
                    ? playback_start +
                          static_cast<double>(idx) / cfg.chunks_per_second()
                    : now + (static_cast<double>(idx) - position) /
                                cfg.chunks_per_second();
            double ttl = std::max(0.0, deadline - now);
            const double v = deadline_value(ttl);
            sp.problem.add_request(peers_.id(row),
                                   assets_->catalog.chunk_of(video, idx), v);
            sp.request_row.push_back(row);
            std::uint32_t emit = holders;
            if (profitable_only) {
                std::uint32_t k = 0;
                while (k < n_prof && prof_cost[k] <= v) ++k;
                emit &= prof_mask[k];
                pruned += static_cast<std::uint64_t>(std::popcount(holders & ~emit));
            }
            sp.problem.append_candidates_masked(delta_up_scratch_.data(), seg_costs,
                                                emit);
        }
    }
    counters_.inc(c_delta_dirty_, dirty);
    counters_.inc(c_delta_reused_, reused);
    counters_.inc(c_build_pruned_, pruned);
}

core::schedule emulator::dispatch(double round_start, double duration,
                                  std::size_t round, bool distributed,
                                  slot_metrics& metrics,
                                  std::vector<double>& slot_prices) {
    const slot_problem& sp = round_problem_;
    const core::problem_view view = sp.problem.view();
    counters_.inc(c_solver_rounds_);

    if (auction_ != nullptr) {
        core::auction_result result;
        if (distributed) {
            // The runtime threads the slot's λ through its bidding rounds
            // (Sec. IV-C's price cycle); step() zeroes them at each slot
            // start.
            runtime_options ro;
            ro.bidding = options_.auction.bidding;
            ro.duration = duration;
            ro.time_offset = round_start;
            ro.record_price_log = true;
            ro.initial_prices.resize(view.num_uploaders());
            for (std::size_t u = 0; u < view.num_uploaders(); ++u)
                ro.initial_prices[u] = slot_prices[sp.uploader_row[u]];
            ro.latency = [this](peer_id a, peer_id b) {
                return options_.latency_per_cost * costs_->cost(a, b);
            };
            auction_runtime runtime(view, std::move(ro));
            auto outcome = runtime.run();
            for (const auto& ev : outcome.price_log)
                price_events_.push_back(
                    {view.uploader(ev.uploader).who, ev.time, ev.price});
            price_series_built_ = false;
            result = std::move(outcome.auction);
            for (std::size_t u = 0; u < view.num_uploaders(); ++u)
                slot_prices[sp.uploader_row[u]] = result.prices[u];
        } else {
            // Every centralized round is one cold auction at one fixed ε,
            // so Theorem 1's n·ε bound holds on each.
            result = auction_->run(view);
            counters_.inc(c_solver_phases_);
        }
        metrics.auction_bids += result.bids_submitted;
        counters_.inc(c_solver_bids_, result.bids_submitted);
        return std::move(result.sched);
    }

    // Any other registered scheduler: re-key its randomness from (slot,
    // round) — deterministic per master seed, independent across rounds —
    // and solve on the shared view.
    scheduler_->reseed(rng_factory_.derived_seed(
        "dispatch/" + std::to_string(slots_.size()) + "/" + std::to_string(round)));
    return scheduler_->solve(view);
}

void emulator::apply_schedule(const core::schedule& sched, slot_metrics& metrics,
                              std::vector<std::int32_t>& remaining_capacity) {
    const slot_problem& sp = round_problem_;
    for (std::size_t r = 0; r < sp.problem.num_requests(); ++r) {
        std::ptrdiff_t choice = sched.choice[r];
        if (choice == core::no_candidate) continue;
        const auto& request = sp.problem.request(r);
        const auto cand = sp.problem.candidates(r)[static_cast<std::size_t>(choice)];

        const std::uint32_t downstream_row = sp.request_row[r];
        std::size_t idx = assets_->catalog.index_of(request.chunk);
        if (!peers_.buffer(downstream_row).set(idx)) continue;  // duplicate delivery guard
        ++peers_.lifetime(downstream_row).chunks_downloaded;
        const std::uint32_t seller_row = sp.uploader_row[cand.uploader];
        ++peers_.lifetime(seller_row).chunks_uploaded;
        --remaining_capacity[seller_row];

        ++metrics.transfers;
        metrics.social_welfare += request.valuation - cand.cost;
        const isp_id seller_isp = peers_.isp(seller_row);
        const isp_id downstream_isp = peers_.isp(downstream_row);
        if (seller_isp != downstream_isp) ++metrics.inter_isp_transfers;
        if (ledger_) {
            const double bytes = options_.config.chunk_size_kb * 1024.0;
            ledger_->record(seller_isp, downstream_isp, 1, bytes);
            const std::size_t n = options_.config.num_isps;
            const auto rel = static_cast<isp::relationship>(
                link_class_[static_cast<std::size_t>(seller_isp.value()) * n +
                            static_cast<std::size_t>(downstream_isp.value())]);
            switch (rel) {
                case isp::relationship::sibling:
                    counters_.add(g_bytes_sibling_, bytes);
                    break;
                case isp::relationship::peer:
                    counters_.add(g_bytes_peer_, bytes);
                    break;
                case isp::relationship::transit:
                    counters_.add(g_bytes_transit_, bytes);
                    break;
            }
        }
    }
    metrics.inter_isp_fraction = share(metrics.inter_isp_transfers, metrics.transfers);
}

void emulator::advance_playback(double from, double to, slot_metrics& metrics) {
    const auto& cfg = options_.config;
    const auto n_chunks = static_cast<double>(cfg.chunks_per_video());
    for (std::uint32_t row : active_viewers_) {
        double play_from = std::max(from, peers_.playback_start(row));
        if (play_from >= to) continue;
        const double position = peers_.playback_position(row);
        double new_position =
            std::min(position + (to - play_from) * cfg.chunks_per_second(), n_chunks);
        // Chunks whose deadline passed this round: ceil(position) up to (but
        // excluding) new_position — end bound = ceil(new_position) whether or
        // not new_position is integral, matching the old per-chunk loop.
        const auto due_begin = static_cast<std::size_t>(std::ceil(position));
        const auto due_end = static_cast<std::size_t>(std::ceil(new_position));
        if (due_end > due_begin) {
            const std::size_t due = due_end - due_begin;
            const std::size_t missed =
                peers_.buffer(row).missing_in(due_begin, due_end);
            auto& life = peers_.lifetime(row);
            life.chunks_due += due;
            life.chunks_missed += missed;
            metrics.chunks_due += due;
            metrics.chunks_missed += missed;
        }
        peers_.set_playback_position(row, new_position);
        tracker_.update_position(row, new_position);
    }
    metrics.miss_rate = share(metrics.chunks_missed, metrics.chunks_due);
}

const slot_metrics& emulator::step() {
    const double slot_start = now_;
    const double slot_end = now_ + options_.config.slot_seconds;

    // Phase timing goes through the span recorder, and only when it is
    // enabled — a telemetry-off slot loop performs zero timestamp syscalls
    // (every entry point sits behind this one branch).
    const bool timed = spans_.enabled();
    if (timed) spans_.begin_slot(static_cast<std::uint32_t>(slots_.size()));
    process_arrivals(slot_start);
    if (timed) spans_.lap(obs::phase::arrivals);
    process_departures();
    if (timed) spans_.lap(obs::phase::departures);
    refresh_neighbors();
    if (timed) spans_.lap(obs::phase::neighbor_refresh);
    // Accounted to build: the link prefetch replaces the per-candidate cost
    // lookups the pre-refactor build loop performed.
    prefetch_link_costs();
    if (timed) spans_.lap(obs::phase::build);
    if (ledger_) ledger_->begin_slot(slot_start);

    slot_metrics metrics;
    metrics.time = slot_start;
    metrics.online_peers = online_viewers();

    // Decided once per slot: every round of a distributed slot runs on the
    // message-level runtime, so an edge of the window never splits a slot.
    const bool distributed = auction_ != nullptr &&
                             slot_start >= options_.distributed_from &&
                             slot_start < options_.distributed_to;
    if (distributed) distributed_slot_starts_.push_back(slot_start);
    // The synchronous auction never bids on a candidate with w > v (its
    // margin (v − w) − λ < 0 for every λ ≥ 0), so its rounds list only
    // w ≤ v. Other schedulers and the runtime, which sends each price
    // update to every request listing the uploader, keep full lists.
    const bool profitable_only = auction_ != nullptr && !distributed;
    const std::size_t rounds = options_.bid_rounds_per_slot;
    const double round_length = options_.config.slot_seconds /
                                static_cast<double>(rounds);
    const std::size_t rows = peers_.rows();
    // A distributed slot's prices persist across its rounds and reset at
    // slot boundaries — the slot is the bidding cycle of Sec. IV-C.
    slot_prices_.assign(rows, 0.0);

    remaining_scratch_.assign(rows, 0);
    for (std::size_t row = 0; row < num_seeds_; ++row)
        remaining_scratch_[row] = peers_.upload_capacity(row);
    for (std::uint32_t row : active_viewers_)
        remaining_scratch_[row] = peers_.upload_capacity(row);

    for (std::size_t r = 0; r < rounds; ++r) {
        const double round_start = slot_start + static_cast<double>(r) * round_length;
        const double round_end = round_start + round_length;

        // Even share of the remaining slot budget over the remaining rounds,
        // so capacity unused early stays available to urgent late bids.
        round_capacity_scratch_.assign(rows, 0);
        auto rounds_left = static_cast<std::int32_t>(rounds - r);
        for (std::size_t row = 0; row < num_seeds_; ++row)
            round_capacity_scratch_[row] =
                round_share(remaining_scratch_[row], rounds_left);
        for (std::uint32_t row : active_viewers_)
            round_capacity_scratch_[row] =
                round_share(remaining_scratch_[row], rounds_left);

        if (timed) spans_.skip();
        build_problem(round_start, r == 0, round_capacity_scratch_, profitable_only);
        if (timed) spans_.lap(obs::phase::build);
        metrics.requests += round_problem_.problem.num_requests();

        auto sched =
            dispatch(round_start, round_length, r, distributed, metrics, slot_prices_);
        if (timed) spans_.lap(obs::phase::solve);
        apply_schedule(sched, metrics, remaining_scratch_);
        if (timed) spans_.lap(obs::phase::apply);

        // Playback of this round is checked against the post-transfer buffer:
        // transfers complete within the bidding round.
        advance_playback(round_start, round_end, metrics);
        if (timed) spans_.lap(obs::phase::playback);
    }

    // Slot-end memory discipline: the problem arena, the delta state and the
    // solver slabs are only needed while this shard's slot is in flight —
    // return them now so a fleet's resident set scales with its thread
    // count, not its swarm count.
    shed_slot_memory();
    if (timed) spans_.lap(obs::phase::shed);

    slots_.push_back(metrics);
    now_ = slot_end;
    // Epoch boundary: ISPs re-price off the slots metered since the last
    // close; the updated prices steer every subsequent slot's costs.
    const bool epoch_closed =
        price_controller_ &&
        slots_.size() % options_.config.economy.slots_per_epoch == 0;
    if (epoch_closed) price_controller_->end_epoch(*ledger_);

    // Telemetry records, outside the timed region: emission never perturbs
    // the phase profile, and a null sink costs one branch.
    if (options_.telemetry.sink != nullptr) {
        if (!header_emitted_) emit_header();
        const std::size_t every =
            std::max<std::size_t>(1, options_.telemetry.every_slots);
        if ((slots_.size() - 1) % every == 0) emit_slot_record(slots_.back());
        if (epoch_closed) emit_epoch_record(price_controller_->history().back());
    }
    return slots_.back();
}

void emulator::shed_slot_memory() {
    round_problem_.shed();
    shadow_problem_.shed();
    std::vector<delta_row_state>().swap(delta_rows_);
    std::vector<std::uint32_t>().swap(delta_masks_);
    std::vector<std::uint64_t>().swap(delta_snap_);
    std::vector<std::uint64_t>().swap(val_keys_);
    std::vector<double>().swap(val_vals_);
    scheduler_->shed_memory();
    if (options_.shed_cost_cache) costs_->shed_cache();
    counters_.inc(c_shed_events_);
}

memory_breakdown emulator::memory_footprint() const {
    memory_breakdown mb;
    mb.peer_table = peers_.memory_bytes();
    mb.buffers = peers_.buffer_heap_bytes();
    mb.tracker = tracker_.memory_bytes();
    mb.neighbor_arena = neighbor_offsets_.capacity() * sizeof(std::uint32_t) +
                        neighbor_rows_.capacity() * sizeof(std::uint32_t) +
                        neighbor_costs_.capacity() * sizeof(double);
    mb.problem_arena = round_problem_.memory_bytes() +
                       shadow_problem_.memory_bytes() +
                       delta_rows_.capacity() * sizeof(delta_row_state) +
                       delta_masks_.capacity() * sizeof(std::uint32_t) +
                       delta_snap_.capacity() * sizeof(std::uint64_t) +
                       val_keys_.capacity() * sizeof(std::uint64_t) +
                       val_vals_.capacity() * sizeof(double);
    mb.solver = scheduler_->workspace_bytes();
    mb.cost_cache = costs_->cache_bytes();
    mb.ledger = ledger_ ? ledger_->memory_bytes() : 0;
    mb.scratch = slot_prices_.capacity() * sizeof(double) +
                 remaining_scratch_.capacity() * sizeof(std::int32_t) +
                 round_capacity_scratch_.capacity() * sizeof(std::int32_t) +
                 batch_ids_.capacity() * sizeof(peer_id) +
                 cand_words_.capacity() * sizeof(std::uint64_t) +
                 cand_uploader_.capacity() * sizeof(std::uint32_t) +
                 cand_cost_.capacity() * sizeof(double) +
                 delta_up_scratch_.capacity() * sizeof(std::uint32_t) +
                 word_scratch_.capacity() * sizeof(std::uint64_t);
    mb.shared = assets_->memory_bytes();
    return mb;
}

const isp::traffic_ledger& emulator::ledger() const {
    expects(ledger_.has_value(), "ledger() requires config.economy.enabled");
    return *ledger_;
}

const isp::peering_graph& emulator::peering() const {
    expects(peering_view_ != nullptr,
            "peering() requires config.economy.enabled");
    return *peering_view_;
}

const std::vector<isp::epoch_summary>& emulator::price_epochs() const {
    static const std::vector<isp::epoch_summary> none;
    return price_controller_ ? price_controller_->history() : none;
}

isp::billing_statement emulator::bill() const {
    expects(ledger_.has_value() && peering_view_ != nullptr,
            "bill() requires config.economy.enabled");
    return isp::bill(*ledger_, *peering_view_, options_.config.economy.billing);
}

void emulator::run() {
    expects(!has_run_ && slots_.empty(),
            "emulator::run may only be called once (and not after manual steps)");
    has_run_ = true;
    const std::size_t n = options_.config.num_slots();
    for (std::size_t k = 0; k < n; ++k) step();
}

const metrics::time_series& emulator::price_series() const {
    if (price_series_built_) return price_series_;
    price_series_.clear();
    // Representative = the uploader whose λ rose highest anywhere in the
    // window; with no λ movement at all, fall back to the default probe.
    probe_peer_ = default_probe_;
    double best = -1.0;
    for (const auto& ev : price_events_) {
        if (ev.price > best) {
            best = ev.price;
            probe_peer_ = ev.uploader;
        }
    }
    // The figure's per-slot restart: λ is 0 at every slot start...
    std::vector<logged_price_event> merged;
    for (double t : distributed_slot_starts_) merged.push_back({probe_peer_, t, 0.0});
    // ...then follows the representative peer's recorded changes.
    for (const auto& ev : price_events_)
        if (ev.uploader == probe_peer_) merged.push_back(ev);
    // stable: events sharing a timestamp keep their emission order, so the
    // per-slot staircase stays monotone.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const logged_price_event& a, const logged_price_event& b) {
                         return a.time < b.time;
                     });
    for (const auto& ev : merged) price_series_.record(ev.time, ev.price);
    price_series_built_ = true;
    return price_series_;
}

peer_id emulator::probe_peer() const {
    (void)price_series();  // ensures the representative is chosen
    return probe_peer_;
}

std::size_t emulator::online_viewers() const {
    std::size_t n = 0;
    for (std::uint32_t row : active_viewers_)
        if (peers_.join_time(row) <= now_) ++n;
    return n;
}

}  // namespace p2pcd::vod
