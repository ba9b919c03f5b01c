// perfbench — the repository's benchmark runner.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   perfbench --manifest          print BENCHMARK.json
//
// Prints an environment stamp line ("perfbench-env {...}": nproc,
// hardware_concurrency, threads, build type, compiler, seed), one row per
// metric (name, value, unit), a detail line ("perfbench-detail {...}"), and
// as its last line the result object {"correct", "attempted", "failed",
// "metrics"}. Exit status 1 when an output check fails (the result is still
// printed, with "correct": false), 2 on bad arguments. perfbench/run.py
// builds this binary and forwards its arguments.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "runner.h"

namespace {

// BENCHMARK.json's run_seconds: the slot time an untraced run measures, at
// least.
constexpr int run_seconds = 20;

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + '"';
}

// The CPUs this process may run on (what `nproc` prints).
std::size_t usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

const char* compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

void print_metric_defs(const std::vector<perfbench::metric_def>& defs,
                       bool with_bound) {
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const perfbench::metric_def& m = defs[i];
        std::printf("    {\"name\": %s, \"unit\": %s, \"better\": %s",
                    json_string(m.name).c_str(), json_string(m.unit).c_str(),
                    json_string(m.better).c_str());
        if (with_bound) std::printf(", \"bound\": %g", m.bound);
        std::printf("}%s\n", i + 1 < defs.size() ? "," : "");
    }
}

void print_manifest() {
    std::printf("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n"
                "  \"paths\": [\"perfbench\"],\n  \"run_seconds\": %d,\n"
                "  \"workloads\": [\n",
                run_seconds);
    const auto& workloads = perfbench::builtin_workloads();
    for (std::size_t i = 0; i < workloads.size(); ++i)
        std::printf("    {\"name\": %s, \"why\": %s}%s\n",
                    json_string(workloads[i].name).c_str(),
                    json_string(workloads[i].why).c_str(),
                    i + 1 < workloads.size() ? "," : "");
    std::printf("  ],\n  \"end_to_end\": [\n");
    print_metric_defs(perfbench::end_to_end_metrics(), true);
    std::printf("  ],\n  \"per_layer\": [\n");
    print_metric_defs(perfbench::per_layer_metrics(), false);
    std::printf("  ]\n}\n");
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1]\n       perfbench --manifest\nworkloads:");
    for (const perfbench::workload& w : perfbench::builtin_workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

// Digits only: no sign, no overflow.
bool parse_u64(std::string_view s, std::uint64_t& out) {
    if (s.empty() || s.size() > 19) return false;
    out = 0;
    for (char c : s) {
        if (c < '0' || c > '9') return false;
        out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
}

// A positive number of seconds, at most an hour.
bool parse_seconds(const char* s, double& out) {
    char* end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(out) && out > 0.0 &&
           out <= 3600.0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::string_view(argv[1]) == "--manifest") {
        print_manifest();
        return 0;
    }
    std::string name;
    perfbench::run_config cfg;
    cfg.seconds = run_seconds;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const std::string_view value = argv[i + 1];
        if (flag == "--workload") {
            name = value;
        } else if (flag == "--seed") {
            if (!parse_u64(value, cfg.seed)) return usage();
        } else if (flag == "--seconds") {
            if (!parse_seconds(argv[i + 1], cfg.seconds)) return usage();
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return usage();
            cfg.trace = value == "1";
        } else {
            return usage();
        }
    }
    const perfbench::workload* w = perfbench::find_workload(name);
    if (argc % 2 == 0 || w == nullptr) return usage();

    // A fleet runs on the CPUs this process may use, at most 4, so a larger
    // box measures the same configuration.
    const std::size_t nproc = usable_cpus();
    cfg.threads = w->fleet ? std::min<std::size_t>(nproc, 4) : 1;

    std::printf("perfbench-env {\"workload\": %s, \"seed\": %" PRIu64
                ", \"trace\": %d, \"seconds\": %g, \"nproc\": %zu, "
                "\"hardware_concurrency\": %u, \"threads\": %zu, "
                "\"build_type\": %s, \"compiler\": %s}\n",
                json_string(w->name).c_str(), cfg.seed, cfg.trace ? 1 : 0,
                cfg.seconds, nproc, std::thread::hardware_concurrency(),
                cfg.threads, json_string(PERFBENCH_BUILD_TYPE).c_str(),
                json_string(compiler()).c_str());
    std::fflush(stdout);

    perfbench::run_result r;
    try {
        r = perfbench::run(*w, cfg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const auto& defs =
        cfg.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
    for (std::size_t i = 0; i < defs.size(); ++i)
        std::printf("  %-34s %20.6f  %s\n", defs[i].name, r.metrics[i].second,
                    defs[i].unit);
    std::printf("perfbench-detail {\"episodes\": %zu, \"setup_samples\": %zu, "
                "\"slot_samples\": %zu, \"top_percentile\": %g, "
                "\"top_percentile_ms\": %.6f, \"chunks_due\": %" PRIu64
                ", \"chunks_missed\": %" PRIu64 ", \"violations\": %zu}\n",
                r.episodes, r.setup_samples, r.slot_samples, r.top_percentile,
                r.top_percentile_ms, r.chunks_due, r.chunks_missed,
                r.violations.size());
    for (const std::string& v : r.violations)
        std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());

    std::string line = "{\"correct\": ";
    line += r.violations.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted) +
            ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        char value[40];
        std::snprintf(value, sizeof value, "%.17g", r.metrics[i].second);
        if (i > 0) line += ", ";
        line += json_string(defs[i].name) + ": {\"value\": " + value +
                ", \"unit\": " + json_string(defs[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return r.violations.empty() ? 0 : 1;
}
