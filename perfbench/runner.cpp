#include "runner.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "metrics/process_stats.h"
#include "metrics/stats.h"
#include "obs/jsonl_sink.h"
#include "obs/span_recorder.h"
#include "stats.h"
#include "workload/fleet_config.h"
#include "workload/scenario_registry.h"

namespace perfbench {

const std::vector<workload>& builtin_workloads() {
    static const std::vector<workload> all = {
        // metro_static — metro_5k: 5 000 static viewers over 20 ISPs, the
        // paper's auction, one emulator on one thread. The vod build and the
        // core auction do nearly all the work. Nobody arrives after set-up
        // and the link-cost cache is warm after slot 0, so the churn path,
        // engine and capacity do none: a change to those layers must leave
        // this workload unchanged.
        {"metro_static",
         "metro_5k, 5,000 static viewers, auction, 1 thread: vod build ~60% "
         "and core solve ~33% of traced slot time; bypasses churn, engine and "
         "capacity",
         1,  // every viewer is online from slot 0
         [](std::uint64_t seed) {
             p2pcd::vod::emulator_options o;
             o.config = p2pcd::workload::builtin_scenarios().make("metro_5k");
             o.config.master_seed = seed;
             return o;
         },
         {}},
        // flash_churn — flash_crowd_10k (~10 000 Poisson arrivals onto 10
        // hot videos) with paper_churn's quit rule (60% of viewers leave at
        // a random point of their session), one emulator on one thread.
        // Same build and solve layers as metro_static, but rows are rewritten
        // every slot: arrivals, departures, tracker repairs and cost-cache
        // misses are what a reuse or caching change that wins on
        // metro_static must pay for here.
        {"flash_churn",
         "flash_crowd_10k + 0.6 early-quit churn, auction, 1 thread: build ~58% "
         "+ solve ~36% plus ~9.5k arrivals, 2.4k departures, 4.0M tracker "
         "inversions, 306k cost-cache misses",
         2,  // slot 0 is empty; the first ~400 arrivals come online in slot 1
         [](std::uint64_t seed) {
             p2pcd::vod::emulator_options o;
             o.config =
                 p2pcd::workload::builtin_scenarios().make("flash_crowd_10k");
             o.config.departure_probability =
                 p2pcd::workload::scenario_config::paper_churn()
                     .departure_probability;
             o.config.master_seed = seed;
             return o;
         },
         {}},
        // fleet_coupled — fleet_coupled_metro: 6 Zipf-sized metro-economy
        // swarms (12 000 viewers) on shared ISP-pair link pools, the
        // simple-locality scheduler, stepped lockstep on the thread pool. The
        // only workload that runs engine (pool, barrier, merge), capacity
        // (link pools, admission, uplink broker) and isp (ledger merge, fleet
        // pricing epochs). Its solver is the locality baseline, so an auction
        // change leaves it untouched.
        {"fleet_coupled",
         "6 coupled metro-economy swarms, 12,000 viewers, locality solver, up "
         "to 4 threads: the only load on engine (~85% pool efficiency), "
         "capacity and isp; bypasses the auction",
         1,  // every swarm starts with its static viewers online
         {},
         [](std::uint64_t seed, std::size_t threads) {
             p2pcd::engine::fleet_options o;
             o.config =
                 p2pcd::workload::builtin_fleets().make("fleet_coupled_metro");
             o.config.fleet_seed = seed;
             o.threads = threads;
             return o;
         }},
    };
    return all;
}

const workload* find_workload(std::string_view name) {
    for (const workload& w : builtin_workloads())
        if (w.name == name) return &w;
    return nullptr;
}

// Each bound is at least three times the widest quartile spread seen across
// ten seeds on a 4-vCPU VM, except where noted. Timing metrics get
// the largest bound allowed: other tenants of the host move identical slots
// by tens of percent. peak_rss_mb gets it too, because the fleet's pool
// threads fill their malloc arenas in a timing-dependent order (fleet_coupled
// spreads about 0.1). The semantic metrics are exact for a seed, so their
// bounds only absorb the spread between seeds (up to 0.04).
const std::vector<metric_def>& end_to_end_metrics() {
    static const std::vector<metric_def> m = {
        {"setup_s", "s", "lower", 0.25},
        {"viewer_slots_per_s", "1/s", "higher", 0.25},
        {"slot_ms_p50", "ms", "lower", 0.25},
        {"peak_rss_mb", "MiB", "lower", 0.25},
        {"footprint_mb", "MiB", "lower", 0.1},
        {"welfare", "utility", "higher", 0.15},
        {"miss_rate", "ratio", "lower", 0.15},
        {"inter_isp_fraction", "ratio", "lower", 0.15},
    };
    return m;
}

const std::vector<metric_def>& per_layer_metrics() {
    static const std::vector<metric_def> m = {
        // vod slot pipeline: ms per measured slot from the phase spans
        // (fleet: summed over shards), counts over the traced episode.
        {"vod.build_ms", "ms", "lower", 0.0},
        {"vod.neighbor_refresh_ms", "ms", "lower", 0.0},
        {"vod.playback_ms", "ms", "lower", 0.0},
        {"vod.apply_ms", "ms", "lower", 0.0},
        {"vod.shed_ms", "ms", "lower", 0.0},
        {"vod.requests", "count", "higher", 0.0},
        {"vod.transfers", "count", "higher", 0.0},
        // vod churn path
        {"vod.arrivals_ms", "ms", "lower", 0.0},
        {"vod.departures_ms", "ms", "lower", 0.0},
        {"vod.arrivals", "count", "higher", 0.0},
        {"vod.departures", "count", "lower", 0.0},
        {"vod.tracker_repairs", "count", "lower", 0.0},
        {"vod.tracker_inversions", "count", "lower", 0.0},
        // core scheduler
        {"core.solve_ms", "ms", "lower", 0.0},
        {"core.rounds", "count", "lower", 0.0},
        {"core.bids", "count", "lower", 0.0},
        {"core.phases", "count", "lower", 0.0},
        {"core.transfers_per_bid", "ratio", "higher", 0.0},
        // net link-cost cache
        {"net.cache_hits", "count", "higher", 0.0},
        {"net.cache_misses", "count", "lower", 0.0},
        {"net.cache_hit_ratio", "ratio", "higher", 0.0},
        {"net.cache_flushes", "count", "lower", 0.0},
        // engine (fleets only): ms per measured slot
        {"engine.step_ms", "ms", "lower", 0.0},
        {"engine.shard_busy_ms", "ms", "lower", 0.0},
        {"engine.shard_max_ms", "ms", "lower", 0.0},
        {"engine.barrier_wait_ms", "ms", "lower", 0.0},
        {"engine.serial_ms", "ms", "lower", 0.0},
        {"engine.pool_efficiency", "ratio", "higher", 0.0},
        // capacity coupling (fleets only)
        {"capacity.coupling_ms", "ms", "lower", 0.0},
        {"capacity.admitted", "count", "higher", 0.0},
        {"capacity.deferred", "count", "lower", 0.0},
        {"capacity.abandoned", "count", "lower", 0.0},
        {"capacity.admit_ratio", "ratio", "higher", 0.0},
        {"capacity.queue_len", "count", "lower", 0.0},
        {"capacity.saturated_pairs", "count", "lower", 0.0},
        {"capacity.peak_pair_utilization", "ratio", "lower", 0.0},
        // isp economy (economy-enabled workloads only)
        {"isp.bytes_sibling", "B", "higher", 0.0},
        {"isp.bytes_peer", "B", "higher", 0.0},
        {"isp.bytes_transit", "B", "lower", 0.0},
        {"isp.transit_bill", "price", "lower", 0.0},
        // memory_footprint() at episode end, one row per breakdown field
        {"mem.peer_table_mb", "MiB", "lower", 0.0},
        {"mem.buffers_mb", "MiB", "lower", 0.0},
        {"mem.tracker_mb", "MiB", "lower", 0.0},
        {"mem.neighbor_arena_mb", "MiB", "lower", 0.0},
        {"mem.problem_arena_mb", "MiB", "lower", 0.0},
        {"mem.solver_mb", "MiB", "lower", 0.0},
        {"mem.cost_cache_mb", "MiB", "lower", 0.0},
        {"mem.ledger_mb", "MiB", "lower", 0.0},
        {"mem.scratch_mb", "MiB", "lower", 0.0},
        {"mem.shared_mb", "MiB", "lower", 0.0},
        // the trace itself
        {"obs.trace_overhead", "ratio", "lower", 0.0},
        {"obs.spans_dropped", "count", "lower", 0.0},
        {"obs.layer_coverage", "ratio", "higher", 0.0},
    };
    return m;
}

namespace {

using steady = std::chrono::steady_clock;

double seconds_since(steady::time_point t0) {
    return std::chrono::duration<double>(steady::now() - t0).count();
}

constexpr double bytes_per_mib = 1024.0 * 1024.0;
constexpr std::size_t num_phases =
    static_cast<std::size_t>(p2pcd::obs::phase::count);
// A slot records 4 + 4 × bidding rounds + 1 spans; this ring holds every span
// of a long horizon, so a traced episode drops none.
constexpr std::size_t span_ring = std::size_t{1} << 15;

// Wall-clock sums over the measured slots of one traced episode.
struct layer_sums {
    std::size_t slots = 0;
    double wall = 0.0;     // step wall time, timed by the benchmark
    double covered = 0.0;  // the part of it the layer rows explain
    std::array<double, num_phases> phase{};  // vod phases (fleet: all shards)
    double shard_busy = 0.0;    // Σ over shards of their spanned step time
    double shard_max = 0.0;     // slowest shard
    double barrier_wait = 0.0;  // slowest minus mean shard
    double serial = 0.0;        // step wall minus the shards' makespan
    double pool = 0.0;          // the fleet's own step clock (shards + merge)
    double coupling = 0.0;      // hooks before the benchmark's (coupling step)
    std::uint64_t spans_dropped = 0;
};

// What one finished episode reports.
struct episode_report {
    outcome out;
    p2pcd::vod::memory_breakdown memory;
    p2pcd::obs::counter_registry counters;
    layer_sums layers;  // traced episodes only
    bool fleet = false;
    double transit_bill = 0.0;
    std::uint64_t saturated_pair_slots = 0;
    double peak_pair_utilization = 0.0;
};

struct step_sample {
    double wall_s = 0.0;
    std::size_t viewers = 0;
};

// Moves the calling thread to the next of the CPUs the process may use
// before each slot of a single-threaded workload, round-robin, and gives the
// thread back its full CPU set at the end of the run (threads it starts
// later, such as a fleet's pool, inherit that set). On a 4-vCPU VM, other
// tenants slow one vCPU at a time for tens of seconds, so a run left on one
// vCPU reads that vCPU's luck: metro_static's slot_ms_p50 spread 0.23 across
// six seeds without rotation and 0.08 with it, run alternately.
class cpu_rotation {
public:
    cpu_rotation() {
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
    ~cpu_rotation() {
        if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
    }
    cpu_rotation(const cpu_rotation&) = delete;
    cpu_rotation& operator=(const cpu_rotation&) = delete;

    void next() {
        if (cpus_.size() < 2) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

private:
    cpu_set_t saved_{};
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

// One episode's subject: an emulator or a fleet, built untraced or traced.
class session {
public:
    virtual ~session() = default;
    [[nodiscard]] virtual std::size_t num_slots() const = 0;
    // Steps one slot, timing exactly the library call.
    virtual step_sample step() = 0;
    virtual episode_report finish(std::size_t warmup) = 0;
};

// Adds the spans of slots ≥ warmup into `phase` and returns each slot's
// spanned seconds.
std::vector<double> fold_spans(const p2pcd::obs::span_recorder& rec,
                               std::size_t slots, std::size_t warmup,
                               std::array<double, num_phases>& phase) {
    std::vector<double> per_slot(slots, 0.0);
    for (const p2pcd::obs::span& s : rec.spans()) {
        if (s.slot >= slots) continue;
        per_slot[s.slot] += s.duration_s;
        if (s.slot >= warmup) phase[static_cast<std::size_t>(s.which)] += s.duration_s;
    }
    return per_slot;
}

class emulator_session final : public session {
public:
    emulator_session(p2pcd::vod::emulator_options options, bool traced,
                     cpu_rotation& cpus)
        : num_slots_(options.config.num_slots()),
          emu_(with_spans(std::move(options), traced)),
          cpus_(cpus) {}

    std::size_t num_slots() const override { return num_slots_; }

    step_sample step() override {
        cpus_.next();
        const steady::time_point t0 = steady::now();
        const p2pcd::vod::slot_metrics& m = emu_.step();
        const double wall = seconds_since(t0);
        wall_.push_back(wall);
        return {wall, m.online_peers};
    }

    episode_report finish(std::size_t warmup) override {
        episode_report r;
        r.counters = emu_.counters();
        r.out = check_episode(emu_.slots(), emu_.total_welfare(),
                              emu_.overall_miss_rate(),
                              emu_.overall_inter_isp_fraction(), r.counters);
        r.memory = emu_.memory_footprint();
        if (emu_.economy_enabled()) r.transit_bill = emu_.bill().total_cost;
        const p2pcd::obs::span_recorder& spans = emu_.spans();
        if (!spans.enabled()) return r;
        layer_sums& l = r.layers;
        const std::vector<double> spanned =
            fold_spans(spans, wall_.size(), warmup, l.phase);
        for (std::size_t k = warmup; k < wall_.size(); ++k) {
            l.wall += wall_[k];
            l.covered += spanned[k];
            ++l.slots;
        }
        l.spans_dropped = spans.dropped();
        return r;
    }

private:
    static p2pcd::vod::emulator_options with_spans(
        p2pcd::vod::emulator_options o, bool traced) {
        o.telemetry.record_spans = traced;
        o.telemetry.span_capacity = span_ring;
        return o;
    }

    std::size_t num_slots_;
    p2pcd::vod::emulator emu_;
    cpu_rotation& cpus_;
    std::vector<double> wall_;
};

class fleet_session final : public session {
public:
    fleet_session(p2pcd::engine::fleet_options options, bool traced)
        : traced_(traced),
          sink_(telemetry_),
          fleet_(with_telemetry(std::move(options), traced, sink_)) {
        // Registered after the fleet's own hooks (the coupling step, then
        // telemetry emission), so its timestamp closes the serial phase.
        if (traced_)
            fleet_.add_slot_hook(
                [this](const p2pcd::engine::slot_hook_context& ctx) {
                    on_slot(ctx);
                });
    }

    std::size_t num_slots() const override { return fleet_.num_slots(); }

    step_sample step() override {
        step_t0_ = steady::now();
        const p2pcd::engine::fleet_slot_metrics& m = fleet_.step();
        const double wall = seconds_since(step_t0_);
        wall_.push_back(wall);
        return {wall, m.online_peers};
    }

    episode_report finish(std::size_t warmup) override {
        episode_report r;
        r.fleet = true;
        r.counters = fleet_.merged_counters();
        r.out = check_episode(fleet_.slots(), fleet_.total_welfare(),
                              fleet_.overall_miss_rate(),
                              fleet_.overall_inter_isp_fraction(), r.counters);
        r.memory = fleet_.memory_footprint();
        if (fleet_.economy_enabled())
            r.transit_bill = fleet_.merged_bill().total_cost;
        if (!traced_) return r;
        r.saturated_pair_slots = saturated_;
        r.peak_pair_utilization = peak_utilization_;

        layer_sums& l = r.layers;
        const std::size_t slots = wall_.size();
        const std::size_t shards = fleet_.num_swarms();
        std::vector<std::vector<double>> spanned(shards);
        for (std::size_t i = 0; i < shards; ++i) {
            const p2pcd::obs::span_recorder& spans =
                fleet_.shard_at(i).emulator().spans();
            spanned[i] = fold_spans(spans, slots, warmup, l.phase);
            l.spans_dropped += spans.dropped();
        }
        std::vector<double> busy(shards);
        for (std::size_t k = warmup; k < slots; ++k) {
            double sum = 0.0;
            double slowest = 0.0;
            for (std::size_t i = 0; i < shards; ++i) {
                busy[i] = spanned[i][k];
                sum += busy[i];
                slowest = std::max(slowest, busy[i]);
            }
            const double makespan = list_schedule_makespan(busy, fleet_.threads());
            l.shard_busy += sum;
            l.shard_max += slowest;
            l.barrier_wait += slowest - sum / static_cast<double>(shards);
            l.pool += step_seconds_[k];
            l.coupling += hook_at_[k] - step_seconds_[k];
            l.serial += wall_[k] - makespan;
            // The rows: the shards' critical path, plus everything after the
            // fleet's own step clock stopped (coupling, telemetry emission,
            // this hook). Unexplained: pool dispatch, the merge and shard
            // time outside any span.
            l.covered += makespan + (wall_[k] - step_seconds_[k]);
            l.wall += wall_[k];
            ++l.slots;
        }
        return r;
    }

private:
    static p2pcd::engine::fleet_options with_telemetry(
        p2pcd::engine::fleet_options o, bool traced, p2pcd::obs::jsonl_sink& sink) {
        if (traced) {
            // The fleet clocks its step (step_seconds) only when a sink is
            // attached; the stream itself goes to memory and is dropped.
            o.telemetry.sink = &sink;
            o.telemetry.record_spans = true;
            o.telemetry.span_capacity = span_ring;
        }
        return o;
    }

    void on_slot(const p2pcd::engine::slot_hook_context& ctx) {
        hook_at_.push_back(seconds_since(step_t0_));
        step_seconds_.push_back(ctx.step_seconds);
        if (fleet_.coupling_enabled()) {
            const p2pcd::capacity::link_stats& ls = fleet_.link_stats();
            saturated_ += ls.saturated_pairs;
            peak_utilization_ = std::max(peak_utilization_, ls.max_utilization);
        }
    }

    bool traced_;
    std::ostringstream telemetry_;
    p2pcd::obs::jsonl_sink sink_;
    p2pcd::engine::fleet fleet_;
    steady::time_point step_t0_;
    std::vector<double> wall_;
    std::vector<double> hook_at_;       // hook entry, seconds after step start
    std::vector<double> step_seconds_;  // the fleet's own step clock
    std::uint64_t saturated_ = 0;
    double peak_utilization_ = 0.0;
};

using factory = std::function<std::unique_ptr<session>(bool traced)>;

struct episode {
    episode_report report;
    double setup_s = 0.0;
    double measured_s = 0.0;
    std::vector<double> slot_s;
    std::vector<double> slot_rate;  // online viewers / slot wall time
    std::size_t steps = 0;
};

// One full horizon: construction and the warm-up slots are timed together as
// set-up; every later slot is timed on its own.
episode run_episode(const factory& make, bool traced, std::size_t warmup) {
    episode e;
    const steady::time_point t0 = steady::now();
    const std::unique_ptr<session> s = make(traced);
    const std::size_t slots = s->num_slots();
    if (warmup == 0 || slots <= warmup)
        throw std::invalid_argument("workload warm-up must be 1 slot or more and "
                                    "shorter than its horizon");
    std::size_t online = 0;
    for (std::size_t k = 0; k < warmup; ++k) online = s->step().viewers;
    e.setup_s = seconds_since(t0);
    if (online == 0)
        throw std::invalid_argument("workload warm-up ends on a slot with no "
                                    "viewers online, before the lazy set-up");
    for (std::size_t k = warmup; k < slots; ++k) {
        const step_sample st = s->step();
        e.slot_s.push_back(st.wall_s);
        e.measured_s += st.wall_s;
        e.slot_rate.push_back(static_cast<double>(st.viewers) / st.wall_s);
    }
    e.steps = slots;
    e.report = s->finish(warmup);
    return e;
}

// Set-up alone, for more setup_s samples than the measured episodes give.
// Tear-down is not timed.
double setup_only(const factory& make, std::size_t warmup) {
    const steady::time_point t0 = steady::now();
    const std::unique_ptr<session> s = make(false);
    for (std::size_t k = 0; k < warmup; ++k) s->step();
    return seconds_since(t0);
}

void account(run_result& r, const episode& e) {
    r.attempted += e.steps;
    r.failed += e.report.out.failed_slots;
    r.violations.insert(r.violations.end(), e.report.out.violations.begin(),
                        e.report.out.violations.end());
    r.chunks_due = e.report.out.chunks_due;
    r.chunks_missed = e.report.out.chunks_missed;
    ++r.episodes;
}

run_result run_untraced(const factory& make, const run_config& cfg,
                        std::size_t warmup) {
    run_result r;
    std::vector<double> setups;
    std::vector<double> slot_ms;
    std::vector<double> slot_rate;
    double measured = 0.0;
    std::optional<episode_report> first;
    // Whole episodes only, so every run measures the same mix of slots, and
    // enough slots for a median with min_samples_beyond samples above it.
    while (measured < cfg.seconds || !percentile_reportable(50.0, slot_ms.size())) {
        episode e = run_episode(make, false, warmup);
        account(r, e);
        setups.push_back(e.setup_s);
        for (double s : e.slot_s) slot_ms.push_back(s * 1e3);
        slot_rate.insert(slot_rate.end(), e.slot_rate.begin(), e.slot_rate.end());
        measured += e.measured_s;
        if (!first)
            first = std::move(e.report);
        else if (e.report.out.digest != first->out.digest)
            r.violations.push_back("episode " + std::to_string(r.episodes) +
                                   " of the same seed produced other outputs "
                                   "than episode 1");
    }
    double setup_total = 0.0;
    for (double s : setups) setup_total += s;
    while (setups.size() < min_setup_samples || setup_total < min_setup_seconds) {
        setups.push_back(setup_only(make, warmup));
        setup_total += setups.back();
        r.attempted += warmup;
    }
    r.setup_samples = setups.size();
    r.slot_samples = slot_ms.size();
    r.top_percentile = highest_reportable_percentile(slot_ms.size());
    r.top_percentile_ms =
        p2pcd::metrics::percentile(slot_ms, r.top_percentile / 100.0);
    // Medians, not pooled means: contention from other tenants of the host
    // slows a few seconds at a time by up to 60%, and a pooled mean takes
    // every such burst in full, while the median slot stays put unless the
    // bursts cover half the run.
    r.metrics = {
        {"setup_s", p2pcd::metrics::percentile(setups, 0.5)},
        {"viewer_slots_per_s", p2pcd::metrics::percentile(slot_rate, 0.5)},
        {"slot_ms_p50", p2pcd::metrics::percentile(slot_ms, 0.5)},
        {"peak_rss_mb", p2pcd::metrics::peak_rss_mb()},
        {"footprint_mb", static_cast<double>(first->memory.total()) / bytes_per_mib},
        {"welfare", first->out.welfare},
        {"miss_rate", first->out.miss_rate},
        {"inter_isp_fraction", first->out.inter_isp_fraction},
    };
    return r;
}

std::vector<std::pair<std::string, double>> layer_metrics(
    const episode_report& rep, const p2pcd::vod::memory_breakdown& mem,
    std::size_t threads, double overhead, double coverage) {
    using p2pcd::obs::phase;
    const layer_sums& l = rep.layers;
    const double ms = l.slots == 0 ? 0.0 : 1e3 / static_cast<double>(l.slots);
    auto phase_ms = [&](phase p) { return l.phase[static_cast<std::size_t>(p)] * ms; };
    auto count = [&](const char* name) {
        return static_cast<double>(rep.counters.counter_named(name));
    };
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    auto mib = [](std::size_t bytes) { return static_cast<double>(bytes) / bytes_per_mib; };
    const double transfers = static_cast<double>(rep.out.transfers);
    const double hits = count("cost.cache_hits");
    const double misses = count("cost.cache_misses");
    const double admitted = count("admission.admitted");
    const double deferred = count("admission.deferred");
    return {
        {"vod.build_ms", phase_ms(phase::build)},
        {"vod.neighbor_refresh_ms", phase_ms(phase::neighbor_refresh)},
        {"vod.playback_ms", phase_ms(phase::playback)},
        {"vod.apply_ms", phase_ms(phase::apply)},
        {"vod.shed_ms", phase_ms(phase::shed)},
        {"vod.requests", static_cast<double>(rep.out.requests)},
        {"vod.transfers", transfers},
        {"vod.arrivals_ms", phase_ms(phase::arrivals)},
        {"vod.departures_ms", phase_ms(phase::departures)},
        {"vod.arrivals", count("peers.arrivals")},
        {"vod.departures", count("peers.departures")},
        {"vod.tracker_repairs", count("tracker.repairs")},
        {"vod.tracker_inversions", count("tracker.inversions")},
        {"core.solve_ms", phase_ms(phase::solve)},
        {"core.rounds", count("solver.rounds")},
        {"core.bids", count("solver.bids")},
        {"core.phases", count("solver.phases")},
        {"core.transfers_per_bid", ratio(transfers, count("solver.bids"))},
        {"net.cache_hits", hits},
        {"net.cache_misses", misses},
        {"net.cache_hit_ratio", ratio(hits, hits + misses)},
        {"net.cache_flushes", count("cost.cache_flushes")},
        {"engine.step_ms", rep.fleet ? l.wall * ms : 0.0},
        {"engine.shard_busy_ms", l.shard_busy * ms},
        {"engine.shard_max_ms", l.shard_max * ms},
        {"engine.barrier_wait_ms", l.barrier_wait * ms},
        {"engine.serial_ms", l.serial * ms},
        {"engine.pool_efficiency",
         ratio(l.shard_busy, static_cast<double>(threads) * l.pool)},
        {"capacity.coupling_ms", l.coupling * ms},
        {"capacity.admitted", admitted},
        {"capacity.deferred", deferred},
        {"capacity.abandoned", count("admission.abandoned")},
        {"capacity.admit_ratio", ratio(admitted, admitted + deferred)},
        {"capacity.queue_len", rep.counters.gauge_named("admission.queued")},
        {"capacity.saturated_pairs", static_cast<double>(rep.saturated_pair_slots)},
        {"capacity.peak_pair_utilization", rep.peak_pair_utilization},
        {"isp.bytes_sibling", rep.counters.gauge_named("ledger.bytes_sibling")},
        {"isp.bytes_peer", rep.counters.gauge_named("ledger.bytes_peer")},
        {"isp.bytes_transit", rep.counters.gauge_named("ledger.bytes_transit")},
        {"isp.transit_bill", rep.transit_bill},
        {"mem.peer_table_mb", mib(mem.peer_table)},
        {"mem.buffers_mb", mib(mem.buffers)},
        {"mem.tracker_mb", mib(mem.tracker)},
        {"mem.neighbor_arena_mb", mib(mem.neighbor_arena)},
        {"mem.problem_arena_mb", mib(mem.problem_arena)},
        {"mem.solver_mb", mib(mem.solver)},
        {"mem.cost_cache_mb", mib(mem.cost_cache)},
        {"mem.ledger_mb", mib(mem.ledger)},
        {"mem.scratch_mb", mib(mem.scratch)},
        {"mem.shared_mb", mib(mem.shared)},
        {"obs.trace_overhead", overhead},
        {"obs.spans_dropped", static_cast<double>(l.spans_dropped)},
        {"obs.layer_coverage", coverage},
    };
}

run_result run_traced(const factory& make, const run_config& cfg,
                      std::size_t warmup) {
    run_result r;
    // The same seed untraced, then traced: the pair gives the tracing
    // overhead and the check that telemetry never changes an output.
    const episode plain = run_episode(make, false, warmup);
    const episode traced = run_episode(make, true, warmup);
    account(r, plain);
    account(r, traced);
    if (plain.report.out.digest != traced.report.out.digest)
        r.violations.push_back(
            "traced and untraced episodes of the same seed produced other outputs");
    const layer_sums& l = traced.report.layers;
    const double coverage = layer_coverage(l.covered, l.wall);
    if (!coverage_ok(coverage))
        r.violations.push_back("layer rows cover " + std::to_string(coverage) +
                               " of the step wall time (allowed: 1 ± " +
                               std::to_string(coverage_tolerance) + ")");
    if (l.spans_dropped != 0)
        r.violations.push_back(std::to_string(l.spans_dropped) + " spans dropped");
    // Both episodes step the same slots with the same viewers, so the ratio
    // of their measured times is the ratio of their viewer-slots per second.
    const double overhead = traced.measured_s / plain.measured_s - 1.0;
    // Memory rows from the untraced episode: the span rings are the trace's,
    // not the workload's.
    r.metrics = layer_metrics(traced.report, plain.report.memory, cfg.threads,
                              overhead, coverage);
    return r;
}

}  // namespace

run_result run(const workload& w, const run_config& cfg) {
    if (!w.emulator == !w.fleet)
        throw std::invalid_argument("workload " + w.name +
                                    " must set exactly one of emulator, fleet");
    cpu_rotation cpus;
    const factory make = [&](bool traced) -> std::unique_ptr<session> {
        if (w.fleet)
            return std::make_unique<fleet_session>(w.fleet(cfg.seed, cfg.threads),
                                                   traced);
        return std::make_unique<emulator_session>(w.emulator(cfg.seed), traced,
                                                  cpus);
    };
    run_result r = cfg.trace ? run_traced(make, cfg, w.warmup_slots)
                             : run_untraced(make, cfg, w.warmup_slots);

    const std::vector<metric_def>& defs =
        cfg.trace ? per_layer_metrics() : end_to_end_metrics();
    bool in_sync = defs.size() == r.metrics.size();
    for (std::size_t i = 0; in_sync && i < defs.size(); ++i)
        in_sync = r.metrics[i].first == defs[i].name;
    if (!in_sync) throw std::logic_error("metric values out of sync with their definitions");
    for (auto& [name, value] : r.metrics) {
        if (std::isfinite(value)) continue;
        r.violations.push_back(name + " is not finite");
        value = 0.0;
    }
    return r;
}

}  // namespace perfbench
