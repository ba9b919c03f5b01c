// Self-test of the runner's own helpers — the percentile rule, metric-name
// validity, layer-coverage arithmetic, the output checks and the warm-up
// rule — and of untraced and traced runs on seconds-scale configs
// (small_test, fleet_coupled_smoke). Run through
// `python3 perfbench/run.py --selftest`, which also tests repeat.py's
// medians and quartiles.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner.h"
#include "stats.h"
#include "workload/fleet_config.h"
#include "workload/scenario_registry.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
    if (ok) return;
    ++failures;
    std::fprintf(stderr, "FAIL (line %d): %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

double value_of(const perfbench::run_result& r, const std::string& name) {
    for (const auto& [n, v] : r.metrics)
        if (n == name) return v;
    expect(false, ("metric present: " + name).c_str(), __LINE__);
    return 0.0;
}

void test_percentile_rule() {
    using perfbench::highest_reportable_percentile;
    EXPECT(highest_reportable_percentile(19) == 0.0);  // 9.5 above the median
    EXPECT(highest_reportable_percentile(20) == 50.0);
    EXPECT(highest_reportable_percentile(24) == 50.0);  // one 25-slot episode
    EXPECT(highest_reportable_percentile(40) == 75.0);
    EXPECT(highest_reportable_percentile(100) == 90.0);
    EXPECT(highest_reportable_percentile(1000) == 99.0);
    EXPECT(highest_reportable_percentile(10000) == 99.9);
    EXPECT(!perfbench::percentile_reportable(90.0, 99));
}

void test_metric_names() {
    using perfbench::valid_metric_name;
    EXPECT(valid_metric_name("vod.build_ms"));
    EXPECT(valid_metric_name("9lives-x"));
    EXPECT(valid_metric_name(std::string(64, 'a')));
    EXPECT(!valid_metric_name(std::string(65, 'a')));
    EXPECT(!valid_metric_name(""));
    EXPECT(!valid_metric_name("_hidden"));
    EXPECT(!valid_metric_name(".dot"));
    EXPECT(!valid_metric_name("slot ms"));
    EXPECT(!valid_metric_name("latency/ms"));

    std::set<std::string> seen;
    for (const auto* defs :
         {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()})
        for (const perfbench::metric_def& m : *defs) {
            EXPECT(valid_metric_name(m.name));
            EXPECT(seen.insert(m.name).second);
        }
    for (const perfbench::metric_def& m : perfbench::end_to_end_metrics())
        EXPECT(m.bound > 0.0 && m.bound <= 0.25);
    for (const perfbench::workload& w : perfbench::builtin_workloads()) {
        EXPECT(valid_metric_name(w.name));
        EXPECT(w.why.size() <= 200 && w.why.find('\n') == std::string::npos);
        EXPECT(!w.emulator != !w.fleet);
    }
}

void test_layer_coverage() {
    using namespace perfbench;
    EXPECT(layer_coverage(0.99, 1.0) == 0.99);
    EXPECT(coverage_ok(layer_coverage(0.981, 1.0)));
    EXPECT(coverage_ok(layer_coverage(1.019, 1.0)));
    EXPECT(!coverage_ok(layer_coverage(0.979, 1.0)));
    EXPECT(!coverage_ok(layer_coverage(1.021, 1.0)));
    EXPECT(!coverage_ok(layer_coverage(1.0, 0.0)));
    // Six shards on four workers: the two shortest first-wave shards pick
    // up the last two.
    EXPECT(list_schedule_makespan({3, 3, 2, 2, 1, 1}, 4) == 3.0);
    EXPECT(list_schedule_makespan({5, 1, 1, 1}, 2) == 5.0);
    EXPECT(list_schedule_makespan({1, 2, 3}, 1) == 6.0);
}

void test_checks() {
    std::vector<p2pcd::vod::slot_metrics> slots(3);
    double total = 0.0;
    for (std::size_t k = 0; k < slots.size(); ++k) {
        slots[k].requests = 10;
        slots[k].transfers = 8;
        slots[k].inter_isp_transfers = 2;
        slots[k].chunks_due = 5;
        slots[k].chunks_missed = 1;
        slots[k].social_welfare = 1.5 * static_cast<double>(k + 1);
        total += slots[k].social_welfare;
    }
    const p2pcd::obs::counter_registry none{};
    auto check = [&](const std::vector<p2pcd::vod::slot_metrics>& s, double t) {
        return perfbench::check_episode(s, t, 3.0 / 15.0, 6.0 / 24.0, none);
    };
    const perfbench::outcome ok = check(slots, total);
    EXPECT(ok.violations.empty() && ok.failed_slots == 0);
    EXPECT(ok.chunks_due == 15 && ok.chunks_missed == 3 && ok.transfers == 24);

    auto missed = slots;
    missed[1].chunks_missed = 6;  // more missed than due
    EXPECT(check(missed, total).failed_slots == 1);
    auto overserved = slots;
    overserved[2].transfers = 11;  // more transfers than requests
    EXPECT(check(overserved, total).failed_slots == 1);
    EXPECT(!check(slots, total + 0.5).violations.empty());  // welfare mismatch

    auto nudged = slots;
    nudged[2].social_welfare = std::nextafter(nudged[2].social_welfare, 10.0);
    double nudged_total = 0.0;
    for (const auto& s : nudged) nudged_total += s.social_welfare;
    EXPECT(check(nudged, nudged_total).digest != ok.digest);
}

// Seconds-scale stand-ins for the real workloads: the same code paths on
// configs small enough for a test.
perfbench::workload small_emulator() {
    return {"small_test", "seconds-scale emulator", 1,
            [](std::uint64_t seed) {
                p2pcd::vod::emulator_options o;
                o.config = p2pcd::workload::builtin_scenarios().make("small_test");
                o.config.master_seed = seed;
                return o;
            },
            {}};
}

perfbench::workload small_fleet() {
    return {"fleet_coupled_smoke", "seconds-scale coupled fleet", 1, {},
            [](std::uint64_t seed, std::size_t threads) {
                p2pcd::engine::fleet_options o;
                o.config =
                    p2pcd::workload::builtin_fleets().make("fleet_coupled_smoke");
                o.config.fleet_seed = seed;
                o.threads = threads;
                return o;
            }};
}

void test_runs(const perfbench::workload& w, std::size_t threads) {
    std::printf("runs on %s\n", w.name.c_str());
    perfbench::run_config cfg;
    cfg.seed = 7;
    cfg.seconds = 0.01;
    cfg.threads = threads;
    cpu_set_t before;
    EXPECT(sched_getaffinity(0, sizeof before, &before) == 0);
    const perfbench::run_result a = perfbench::run(w, cfg);
    const perfbench::run_result b = perfbench::run(w, cfg);
    // A run hands the thread its CPU set back, whatever it pinned meanwhile.
    cpu_set_t after;
    EXPECT(sched_getaffinity(0, sizeof after, &after) == 0);
    EXPECT(CPU_EQUAL(&before, &after));
    for (const std::string& v : a.violations)
        std::fprintf(stderr, "  violation: %s\n", v.c_str());
    EXPECT(a.violations.empty() && a.failed == 0 && a.attempted > 0);
    EXPECT(a.setup_samples >= perfbench::min_setup_samples);
    EXPECT(a.slot_samples >= 20 && a.top_percentile >= 50.0);
    EXPECT(a.metrics.size() == perfbench::end_to_end_metrics().size());
    // Semantic metrics are pure functions of (config, seed).
    for (const char* name : {"welfare", "miss_rate", "inter_isp_fraction", "footprint_mb"})
        EXPECT(value_of(a, name) == value_of(b, name));
    EXPECT(value_of(a, "slot_ms_p50") > 0.0 && value_of(a, "setup_s") > 0.0);

    cfg.trace = true;
    const perfbench::run_result t = perfbench::run(w, cfg);
    for (const std::string& v : t.violations) {
        std::fprintf(stderr, "  traced: %s\n", v.c_str());
        // Slots this small leave pool dispatch and clock reads a visible
        // share, so only the coverage bar may miss; output identity and
        // span drops may not.
        EXPECT(v.rfind("layer rows cover", 0) == 0);
    }
    EXPECT(t.metrics.size() == perfbench::per_layer_metrics().size());
    EXPECT(t.failed == 0);
    EXPECT(value_of(t, "obs.spans_dropped") == 0.0);
    const double coverage = value_of(t, "obs.layer_coverage");
    std::printf("  layer coverage %.4f\n", coverage);
    EXPECT(coverage > 0.5 && coverage <= 1.0 + perfbench::coverage_tolerance);
    EXPECT(value_of(t, "vod.build_ms") > 0.0 && value_of(t, "core.solve_ms") > 0.0);
    if (w.fleet) {
        EXPECT(value_of(t, "engine.step_ms") > 0.0);
        EXPECT(value_of(t, "engine.shard_busy_ms") > 0.0);
        EXPECT(value_of(t, "engine.pool_efficiency") > 0.0);
        EXPECT(value_of(t, "capacity.coupling_ms") > 0.0);
    } else {
        EXPECT(value_of(t, "engine.step_ms") == 0.0);
    }
}

// A warm-up that ends before anyone is online would time an empty slot as
// set-up and push the lazy set-up into the measured slots.
void test_warmup_rule() {
    perfbench::workload empty_start = small_emulator();
    empty_start.emulator = [](std::uint64_t seed) {
        p2pcd::vod::emulator_options o;
        o.config = p2pcd::workload::builtin_scenarios().make("small_test");
        o.config.initial_peers = 0;
        o.config.arrival_rate = 1.0;
        o.config.master_seed = seed;
        return o;
    };
    perfbench::run_config cfg;
    cfg.seconds = 0.01;
    bool refused = false;
    try {
        (void)perfbench::run(empty_start, cfg);
    } catch (const std::invalid_argument&) {
        refused = true;
    }
    EXPECT(refused);
    for (const perfbench::workload& w : perfbench::builtin_workloads())
        EXPECT(w.warmup_slots >= 1);
}

}  // namespace

int main() {
    test_percentile_rule();
    test_metric_names();
    test_layer_coverage();
    test_checks();
    test_warmup_rule();
    test_runs(small_emulator(), 1);
    test_runs(small_fleet(), 2);
    if (failures > 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench self-test: all checks passed\n");
    return 0;
}
