// slot_pipeline — per-phase timing of the emulator's slot data path, the
// telemetry overhead contract, and the delta build's identity check.
//
// Runs one scenario end to end in three arms (four runs):
//   overhead arm — pass 1 (telemetry off): no sink, no spans, so the slot
//     loop performs zero timestamp syscalls and wall time brackets the whole
//     loop; pass 2 (telemetry on): span recorder enabled, counters sampled,
//     per-slot JSONL streamed into an in-memory sink (memory, not disk, so
//     the ≤2% overhead bar measures the telemetry layer, not the
//     filesystem). The two passes must hash bit-identical (telemetry never
//     steers) and, on the golden toolchain, match the pre-refactor golden;
//   identity arm — pass 3 (delta_shadow_check): every round's incremental
//     build is compared bit for bit with the reference full rebuild, and the
//     run must hash identical to pass 1 (`delta_identical`; exit 1 on
//     divergence, any toolchain);
//   warm arm — pass 4 (warm_start = slots): prices carried across slots
//     with the collapsed ε ladder. Warm starts change schedules on purpose;
//     on economy_smoke the run is checked against its own golden
//     (vod::golden_warm_slots_economy).
//
// The per-phase table comes from pass 2's spans, reported next to the
// *pre-refactor* measurement of the same scenario captured before the
// dense-peer-table + incremental-tracker refactor.
//
// Usage: slot_pipeline [--scenario NAME]   (default: metro_5k)
//
// The emulator is single-threaded, so phase times do not depend on the
// host's core count (hardware_concurrency is recorded in the artifact).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "common/contracts.h"
#include "metrics/process_stats.h"
#include "obs/jsonl_sink.h"
#include "pipeline_golden.h"

namespace {

using p2pcd::vod::slot_phase_totals;

struct scenario_baseline {
    const char* scenario;
    slot_phase_totals phases;  // pre-refactor phase seconds
};

// Captured 2026-07-31 from the pre-refactor emulator (PR 4 head, commit
// e4073a5) instrumented with the same phase_clock, GCC 12 / x86-64,
// 1-core container, default emulator options. The corresponding golden
// hashes live in the shared spec, vod::golden_runs (tests/pipeline_golden.h).
constexpr scenario_baseline baselines[] = {
    {"metro_5k",
     {.arrivals = 0.000002,
      .departures = 0.000580,
      .playback = 0.070811,
      .neighbor_refresh = 1.047450,
      .build = 20.659304,
      .solve = 5.437859,
      .apply = 1.080875}},
    {"flash_crowd_10k",
     {.arrivals = 0.004018,
      .departures = 0.000633,
      .playback = 0.066278,
      .neighbor_refresh = 3.976148,
      .build = 19.016177,
      .solve = 6.770482,
      .apply = 0.585622}},
    {"economy_smoke",
     {.arrivals = 0.0,
      .departures = 0.000004,
      .playback = 0.000011,
      .neighbor_refresh = 0.000021,
      .build = 0.001012,
      .solve = 0.000283,
      .apply = 0.000053}},
};

const scenario_baseline* baseline_for(const std::string& scenario) {
    for (const auto& b : baselines)
        if (scenario == b.scenario) return &b;
    return nullptr;
}

struct pass_result {
    std::uint64_t h_neighbors = p2pcd::vod::golden_seed;
    std::uint64_t h_metrics = p2pcd::vod::golden_seed;
    double wall_seconds = 0.0;
    std::size_t peers_final = 0;
};

// One telemetry-off run of the scenario; hashes every slot's metrics and
// neighbor arena into the pass result. Wall time brackets the slot loop
// only (not construction), so all passes compare the same code region.
pass_result run_pass(p2pcd::vod::emulator_options opts, std::size_t num_slots) {
    using clock = std::chrono::steady_clock;
    p2pcd::vod::emulator emu(std::move(opts));

    pass_result r;
    const clock::time_point t0 = clock::now();
    for (std::size_t k = 0; k < num_slots; ++k) {
        const auto& m = emu.step();
        std::uint64_t h_slot_nbr = p2pcd::vod::golden_seed;
        p2pcd::vod::golden_mix_neighbors(h_slot_nbr, emu);
        std::uint64_t h_slot_met = p2pcd::vod::golden_seed;
        p2pcd::vod::golden_mix_metrics(h_slot_met, m);
        p2pcd::vod::golden_mix(r.h_neighbors, h_slot_nbr);
        p2pcd::vod::golden_mix(r.h_metrics, h_slot_met);
    }
    r.wall_seconds = std::chrono::duration<double>(clock::now() - t0).count();
    r.peers_final = emu.peers().rows();
    return r;
}

void usage() {
    std::printf("usage: slot_pipeline [--scenario NAME]\n");
}

}  // namespace

int main(int argc, char** argv) {
    using namespace p2pcd;

    std::string scenario = "metro_5k";
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--scenario" && i + 1 < argc) {
            scenario = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    if (!workload::builtin_scenarios().contains(scenario)) {
        std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
        return 2;
    }

    vod::emulator_options opts;
    opts.config = workload::builtin_scenarios().make(scenario);
    const std::size_t num_slots = opts.config.num_slots();

    std::printf("=== slot_pipeline: per-phase slot data path timing ===\n");
    std::printf("scenario: %s  slots: %zu  hardware_concurrency: %u\n\n",
                scenario.c_str(), num_slots,
                std::thread::hardware_concurrency());

    // Pass 1: telemetry off. The slot loop reads no clock; only the bracket
    // around the whole loop is timed.
    std::printf("pass 1/4: telemetry off...\n");
    const pass_result off = run_pass(opts, num_slots);

    // Pass 2: telemetry on — spans + counters + per-slot JSONL into memory.
    // Runs second so allocator warm-up (if any) favors neither direction of
    // the overhead comparison's numerator.
    std::printf("pass 2/4: telemetry on (spans + counters + JSONL)...\n");
    vod::emulator_options on_opts = opts;
    std::ostringstream telemetry_out;
    obs::jsonl_sink sink(telemetry_out);
    on_opts.telemetry.sink = &sink;
    on_opts.telemetry.record_spans = true;

    double rss_post_construct = 0.0;
    double rss_mid_run = 0.0;
    vod::emulator emu_on(on_opts);
    rss_post_construct = metrics::current_rss_mb();
    pass_result on;
    {
        using clock = std::chrono::steady_clock;
        const clock::time_point t0 = clock::now();
        for (std::size_t k = 0; k < num_slots; ++k) {
            const auto& m = emu_on.step();
            if (k + 1 == (num_slots + 1) / 2) rss_mid_run = metrics::current_rss_mb();
            std::uint64_t h_slot_nbr = vod::golden_seed;
            vod::golden_mix_neighbors(h_slot_nbr, emu_on);
            std::uint64_t h_slot_met = vod::golden_seed;
            vod::golden_mix_metrics(h_slot_met, m);
            vod::golden_mix(on.h_neighbors, h_slot_nbr);
            vod::golden_mix(on.h_metrics, h_slot_met);
        }
        on.wall_seconds = std::chrono::duration<double>(clock::now() - t0).count();
        on.peers_final = emu_on.peers().rows();
    }
    sink.flush();
    const slot_phase_totals post = emu_on.phase_totals();
    const scenario_baseline* base = baseline_for(scenario);

    // Pass 3: the identity arm. The shadow check throws on the first round
    // whose incremental build differs from the reference rebuild.
    std::printf("pass 3/4: delta build shadow-checked against the full rebuild...\n");
    vod::emulator_options shadow_opts = opts;
    shadow_opts.delta_shadow_check = true;
    pass_result shadow;
    bool shadow_ok = true;
    try {
        shadow = run_pass(shadow_opts, num_slots);
    } catch (const contract_violation& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        shadow_ok = false;
    }
    const bool delta_identical = shadow_ok && shadow.h_metrics == off.h_metrics &&
                                 shadow.h_neighbors == off.h_neighbors;

    // Pass 4: the warm arm — cross-slot price carry-over.
    std::printf("pass 4/4: warm_start = slots...\n");
    vod::emulator_options warm_opts = opts;
    warm_opts.warm_start = vod::warm_start_mode::slots;
    const pass_result warm = run_pass(warm_opts, num_slots);

    metrics::json_report rep("slot_pipeline");
    rep.add_scalar("scenario", scenario);
    rep.add_scalar("slots", static_cast<double>(num_slots));
    rep.add_scalar("peers_final", static_cast<double>(on.peers_final));
    rep.add_scalar("hardware_concurrency",
                   static_cast<double>(std::thread::hardware_concurrency()));
    rep.add_scalar("peak_rss_mb", metrics::peak_rss_mb());
    rep.add_scalar("rss_post_construct_mb", rss_post_construct);
    rep.add_scalar("rss_mid_run_mb", rss_mid_run);
    rep.add_scalar("rss_end_mb", metrics::current_rss_mb());
    rep.add_scalar("baseline_commit", base != nullptr ? "e4073a5" : "none");

    struct phase_row {
        const char* name;
        double slot_phase_totals::*field;
    };
    constexpr phase_row phase_rows[] = {
        {"arrivals", &slot_phase_totals::arrivals},
        {"departures", &slot_phase_totals::departures},
        {"playback", &slot_phase_totals::playback},
        {"neighbor_refresh", &slot_phase_totals::neighbor_refresh},
        {"build", &slot_phase_totals::build},
        {"solve", &slot_phase_totals::solve},
        {"apply", &slot_phase_totals::apply},
        {"shed", &slot_phase_totals::shed},
    };

    // Coarse clocks can report 0.0 for a micro-scale phase; report a 0
    // speedup rather than an infinity the JSON writer rejects.
    auto ratio = [](double pre, double now) {
        return now > 0.0 && pre > 0.0 ? pre / now : 0.0;
    };
    metrics::table t({"phase", "pre_seconds", "post_seconds", "speedup"});
    auto add_phase = [&](const char* name, double pre, double now) {
        t.add_row({name, metrics::format_double(pre, 6),
                   metrics::format_double(now, 6),
                   metrics::format_double(ratio(pre, now), 2)});
    };
    for (const auto& row : phase_rows)
        add_phase(row.name, base != nullptr ? base->phases.*(row.field) : 0.0,
                  post.*(row.field));
    add_phase("non_solve_total", base != nullptr ? base->phases.non_solve() : 0.0,
              post.non_solve());
    add_phase("total", base != nullptr ? base->phases.total() : 0.0, post.total());
    t.print(std::cout);
    rep.add_table("phases", t);

    if (base != nullptr) {
        rep.add_scalar("neighbor_refresh_speedup",
                       ratio(base->phases.neighbor_refresh, post.neighbor_refresh));
        rep.add_scalar("non_solve_speedup",
                       ratio(base->phases.non_solve(), post.non_solve()));
    }

    // Telemetry overhead contract: spans + counters + per-slot JSONL must
    // cost ≤ 2% of the telemetry-off slot-loop wall time.
    const double overhead_pct =
        off.wall_seconds > 0.0
            ? 100.0 * (on.wall_seconds - off.wall_seconds) / off.wall_seconds
            : 0.0;
    const bool overhead_ok = overhead_pct <= 2.0;
    rep.add_scalar("slot_time_off_s", off.wall_seconds);
    rep.add_scalar("slot_time_on_s", on.wall_seconds);
    rep.add_scalar("telemetry_overhead_pct", overhead_pct);
    rep.add_scalar("telemetry_overhead_ok", overhead_ok);
    rep.add_scalar("telemetry_lines", static_cast<double>(sink.lines_written()));
    rep.add_scalar("telemetry_bytes", static_cast<double>(sink.bytes_written()));
    rep.add_scalar("telemetry_flushes", static_cast<double>(sink.flushes()));
    std::printf(
        "\ntelemetry overhead: off %.3f s, on %.3f s (%+.2f%%, bar: +2%%) %s\n",
        off.wall_seconds, on.wall_seconds, overhead_pct,
        overhead_ok ? "OK" : "OVER");
    std::printf("telemetry stream: %" PRIu64 " lines, %" PRIu64 " bytes\n",
                sink.lines_written(), sink.bytes_written());

    rep.add_scalar("delta_identical", delta_identical);
    rep.add_scalar("slot_time_shadow_s", shadow.wall_seconds);
    rep.add_scalar("slot_time_warm_s", warm.wall_seconds);
    std::printf("\ndelta build vs full rebuild (shadow-checked, %.3f s): %s\n",
                shadow.wall_seconds, delta_identical ? "IDENTICAL" : "DIVERGED");
    std::printf("warm_start = slots: %.3f s\n", warm.wall_seconds);

    // The counter registry (cache behavior, tracker maintenance, solver
    // work, delta-build rows) of the telemetry-on pass.
    obs::counter_registry& counters = emu_on.counters();
    metrics::table ct({"counter", "value"});
    for (std::size_t i = 0; i < counters.entries().size(); ++i) {
        const auto& e = counters.entries()[i];
        const double value = e.kind == obs::metric_kind::counter
                                 ? static_cast<double>(counters.counter_at(i))
                                 : counters.gauge_at(i);
        ct.add_row({e.name, metrics::format_double(value, 0)});
        rep.add_scalar("counter." + e.name, value);
    }
    std::printf("\n");
    ct.print(std::cout);

    // Schedule equivalence: both overhead passes against each other
    // (telemetry may never change a schedule — enforced on every
    // toolchain), and against the pre-refactor golden when known.
    const bool passes_agree =
        off.h_metrics == on.h_metrics && off.h_neighbors == on.h_neighbors;
    const vod::golden_run_hashes* golden = vod::golden_for(scenario);
    bool golden_known = golden != nullptr;
    bool golden_ok = golden_known && on.h_metrics == golden->metrics &&
                     on.h_neighbors == golden->neighbors;
    const vod::golden_run_hashes& warm_golden = vod::golden_warm_slots_economy;
    const bool warm_golden_known = scenario == warm_golden.scenario;
    const bool warm_golden_ok = warm_golden_known &&
                                warm.h_metrics == warm_golden.metrics &&
                                warm.h_neighbors == warm_golden.neighbors;
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016" PRIx64, on.h_metrics);
    rep.add_scalar("metrics_hash", hash_hex);
    std::snprintf(hash_hex, sizeof(hash_hex), "%016" PRIx64, on.h_neighbors);
    rep.add_scalar("neighbors_hash", hash_hex);
    std::snprintf(hash_hex, sizeof(hash_hex), "%016" PRIx64, warm.h_metrics);
    rep.add_scalar("warm_metrics_hash", hash_hex);
    rep.add_scalar("telemetry_schedule_identical", passes_agree);
    rep.add_scalar("golden_known", golden_known);
    rep.add_scalar("golden_ok", golden_ok);
    if (warm_golden_known) rep.add_scalar("warm_golden_ok", warm_golden_ok);

    std::printf("\nnon-solve slot time: %.3f s (pre %.3f s)\n", post.non_solve(),
                base != nullptr ? base->phases.non_solve() : 0.0);
    std::printf("schedules %s across telemetry on/off\n",
                passes_agree ? "MATCH" : "DIVERGED");
    if (golden_known)
        std::printf("schedules %s pre-refactor golden\n",
                    golden_ok ? "MATCH" : "DIVERGED from");
    if (warm_golden_known)
        std::printf("warm schedules %s warm-slots golden\n",
                    warm_golden_ok ? "MATCH" : "DIVERGED from");

    bench::write_artifact("slot_pipeline", rep);

    if (!passes_agree) {
        std::fprintf(stderr,
                     "error: telemetry changed the schedule (off metrics "
                     "%016" PRIx64 " vs on %016" PRIx64 ")\n",
                     off.h_metrics, on.h_metrics);
        return 1;
    }
    if (!delta_identical) {
        std::fprintf(stderr,
                     "error: delta build diverged from the full rebuild "
                     "(metrics %016" PRIx64 " vs shadow-checked %016" PRIx64 ")\n",
                     off.h_metrics, shadow.h_metrics);
        return 1;
    }
    // The golden constants pin exact IEEE doubles; only fail hard on the
    // toolchain family they were captured with — mirroring
    // tests/slot_golden_test.cpp.
    constexpr bool golden_enforced = vod::golden_toolchain;
    if ((golden_known && !golden_ok) || (warm_golden_known && !warm_golden_ok)) {
        std::fprintf(stderr,
                     "%s: run diverged from its golden (metrics %016" PRIx64
                     " neighbors %016" PRIx64 ", warm metrics %016" PRIx64 ")\n",
                     golden_enforced ? "error" : "note (unenforced toolchain)",
                     on.h_metrics, on.h_neighbors, warm.h_metrics);
        if (golden_enforced) return 1;
    }
    return 0;
}
