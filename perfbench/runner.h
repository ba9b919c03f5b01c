// The benchmark's workloads and the loop that measures them.
//
// Every workload runs through the library's public entry points —
// vod::emulator for one swarm, engine::fleet for a coupled fleet — with the
// library's default emulator_options, so a later change of a library default
// is measured rather than bypassed.
//
// An episode is one full horizon of a workload: construction and the
// workload's warm-up slots are its set-up, every later slot is measured on
// its own. An untraced run (no spans, no telemetry sink) repeats whole episodes
// until `seconds` of slot time are measured and gives the end-to-end
// metrics. A traced run steps one untraced and one traced episode of the
// same seed and gives the per-layer metrics, the tracing overhead and the
// check that telemetry never changes an output.
#ifndef P2PCD_PERFBENCH_RUNNER_H
#define P2PCD_PERFBENCH_RUNNER_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/fleet.h"
#include "obs/counters.h"
#include "vod/emulator.h"

namespace perfbench {

struct workload {
    std::string name;
    // One line: the layers it loads and the layers it bypasses. Written into
    // BENCHMARK.json by `perfbench --manifest`.
    std::string why;
    // Slots stepped as part of set-up. Warm-up covers the slot where the
    // first viewers come online, since that is where the lazy set-up
    // happens (cost-cache fill, the tracker's first sort, arena growth);
    // the runner refuses a warm-up whose last slot had nobody online.
    std::size_t warmup_slots = 1;
    // Exactly one of the two is set.
    std::function<p2pcd::vod::emulator_options(std::uint64_t seed)> emulator;
    std::function<p2pcd::engine::fleet_options(std::uint64_t seed,
                                               std::size_t threads)>
        fleet;
};

[[nodiscard]] const std::vector<workload>& builtin_workloads();
[[nodiscard]] const workload* find_workload(std::string_view name);

struct metric_def {
    const char* name;
    const char* unit;
    const char* better;  // "higher" or "lower"
    // End-to-end metrics only: the share of the parent's median by which the
    // metric may worsen before a change counts as a regression.
    double bound;
};
[[nodiscard]] const std::vector<metric_def>& end_to_end_metrics();
[[nodiscard]] const std::vector<metric_def>& per_layer_metrics();

struct run_config {
    std::uint64_t seed = 1;
    double seconds = 20.0;  // untraced: slot time to measure, at least
    bool trace = false;
    std::size_t threads = 1;  // fleet workloads only
};

// setup_s is the median of at least this many set-ups, taking more until
// they add up to min_setup_seconds: a cheap set-up (flash_churn's is ~80 ms)
// then gets dozens of samples, spread over every CPU, instead of three.
inline constexpr std::size_t min_setup_samples = 3;
inline constexpr double min_setup_seconds = 4.0;

struct run_result {
    std::vector<std::string> violations;  // empty: every output check held
    std::uint64_t attempted = 0;  // slot steps run
    std::uint64_t failed = 0;     // slot steps whose outputs failed a check
    std::uint64_t chunks_due = 0;  // one episode's totals
    std::uint64_t chunks_missed = 0;
    std::size_t episodes = 0;
    std::size_t setup_samples = 0;
    std::size_t slot_samples = 0;
    double top_percentile = 0.0;  // highest percentile slot_samples support
    double top_percentile_ms = 0.0;
    // In the order of end_to_end_metrics() (untraced) or per_layer_metrics()
    // (traced).
    std::vector<std::pair<std::string, double>> metrics;
};

[[nodiscard]] run_result run(const workload& w, const run_config& cfg);

// --- output checks, applied to every episode ------------------------------

// FNV-1a over bit patterns: two digests agree only when every input agrees
// bit for bit.
struct digest {
    std::uint64_t value = 0xcbf29ce484222325ull;
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            value ^= (v >> (8 * i)) & 0xffu;
            value *= 0x100000001b3ull;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

// One episode's checked outputs.
struct outcome {
    std::uint64_t digest = 0;  // every slot metric and every counter
    double welfare = 0.0;
    double miss_rate = 0.0;
    double inter_isp_fraction = 0.0;
    std::uint64_t chunks_due = 0;
    std::uint64_t chunks_missed = 0;
    std::uint64_t requests = 0;
    std::uint64_t transfers = 0;
    std::uint64_t failed_slots = 0;
    std::vector<std::string> violations;
};

// Checks a finished episode's per-slot metrics (vod::slot_metrics or
// engine::fleet_slot_metrics, which share their fields) against the totals
// the library reports:
//  * per slot: chunks missed ≤ chunks due, transfers ≤ requests, inter-ISP
//    transfers ≤ transfers, finite welfare;
//  * the per-slot welfare, summed in slot order, equals `total_welfare`;
//  * the miss rate and inter-ISP fraction recomputed from the slot counts
//    equal the library's overall figures.
template <class Slot>
outcome check_episode(const std::vector<Slot>& slots, double total_welfare,
                      double overall_miss_rate,
                      double overall_inter_isp_fraction,
                      const p2pcd::obs::counter_registry& counters) {
    auto exact = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf);
    };
    outcome o;
    digest d;
    double welfare = 0.0;
    std::uint64_t inter = 0;
    for (std::size_t k = 0; k < slots.size(); ++k) {
        const Slot& s = slots[k];
        if (s.chunks_missed > s.chunks_due || s.transfers > s.requests ||
            s.inter_isp_transfers > s.transfers ||
            !std::isfinite(s.social_welfare)) {
            ++o.failed_slots;
            o.violations.push_back("slot " + std::to_string(k) +
                                   ": missed > due, transfers > requests, "
                                   "inter-ISP > transfers or non-finite welfare");
        }
        welfare += s.social_welfare;
        inter += s.inter_isp_transfers;
        o.chunks_due += s.chunks_due;
        o.chunks_missed += s.chunks_missed;
        o.requests += s.requests;
        o.transfers += s.transfers;
        d.add(s.time);
        d.add(s.inter_isp_fraction);
        d.add(s.social_welfare);
        d.add(s.miss_rate);
        for (std::uint64_t v : {static_cast<std::uint64_t>(s.online_peers),
                                static_cast<std::uint64_t>(s.requests),
                                static_cast<std::uint64_t>(s.transfers),
                                static_cast<std::uint64_t>(s.inter_isp_transfers),
                                static_cast<std::uint64_t>(s.chunks_due),
                                static_cast<std::uint64_t>(s.chunks_missed),
                                static_cast<std::uint64_t>(s.auction_bids)})
            d.add(v);
    }
    if (welfare != total_welfare)
        o.violations.push_back("per-slot welfare sums to " + exact(welfare) +
                               ", total_welfare() reports " + exact(total_welfare));
    const double miss = o.chunks_due == 0
                            ? 0.0
                            : static_cast<double>(o.chunks_missed) /
                                  static_cast<double>(o.chunks_due);
    if (miss != overall_miss_rate)
        o.violations.push_back("miss rate from slot counts is " + exact(miss) +
                               ", the library reports " + exact(overall_miss_rate));
    const double inter_fraction = o.transfers == 0
                                      ? 0.0
                                      : static_cast<double>(inter) /
                                            static_cast<double>(o.transfers);
    if (inter_fraction != overall_inter_isp_fraction)
        o.violations.push_back("inter-ISP fraction from slot counts is " +
                               exact(inter_fraction) + ", the library reports " +
                               exact(overall_inter_isp_fraction));
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (counters.entries()[i].kind == p2pcd::obs::metric_kind::counter)
            d.add(counters.counter_at(i));
        else
            d.add(counters.gauge_at(i));
    }
    o.digest = d.value;
    o.welfare = total_welfare;
    o.miss_rate = overall_miss_rate;
    o.inter_isp_fraction = overall_inter_isp_fraction;
    return o;
}

}  // namespace perfbench

#endif  // P2PCD_PERFBENCH_RUNNER_H
