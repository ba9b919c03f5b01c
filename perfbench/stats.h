// The percentile rule, metric-name validity and layer-coverage arithmetic
// shared by the benchmark runner and its self-test. Medians and percentiles
// of a sample come from p2pcd::metrics::percentile; the quartiles of repeated
// runs are perfbench/repeat.py's.
#ifndef P2PCD_PERFBENCH_STATS_H
#define P2PCD_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

// A reported percentile needs at least this many samples above it, so one
// outlier slot cannot be the whole statistic.
inline constexpr std::size_t min_samples_beyond = 10;

// Whether percentile `p` (0 < p < 100) of `n` samples has at least
// min_samples_beyond samples above it (with slack for the rounding of
// decimal percentiles).
[[nodiscard]] inline bool percentile_reportable(double p, std::size_t n) {
    return static_cast<double>(n) * (100.0 - p) / 100.0 >=
           static_cast<double>(min_samples_beyond) - 1e-9;
}

// The highest of the conventional percentiles (50, 75, 90, 95, 99, 99.9)
// that `n` samples support; 0 when not even the median qualifies.
[[nodiscard]] inline double highest_reportable_percentile(std::size_t n) {
    constexpr double ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    for (double p : ladder)
        if (percentile_reportable(p, n)) return p;
    return 0.0;
}

// Metric names: a letter or digit first, then letters, digits, '_', '.' or
// '-', 64 characters at most.
[[nodiscard]] inline bool valid_metric_name(std::string_view name) {
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

// The traced layer rows must explain the measured step wall time to within
// this share (ROADMAP item 1's done-bar).
inline constexpr double coverage_tolerance = 0.02;

[[nodiscard]] inline double layer_coverage(double layer_seconds,
                                           double wall_seconds) {
    return wall_seconds > 0.0 ? layer_seconds / wall_seconds : 0.0;
}

[[nodiscard]] inline bool coverage_ok(double coverage) {
    return std::fabs(coverage - 1.0) <= coverage_tolerance;
}

// Makespan of `durations` run in index order on `threads` workers that each
// claim the next unclaimed index as soon as they are free — the engine
// thread pool's shared cursor. It is the part of a fleet step's parallel
// phase that the shards' own spans explain.
[[nodiscard]] inline double list_schedule_makespan(
    const std::vector<double>& durations, std::size_t threads) {
    if (threads == 0) throw std::invalid_argument("makespan needs a worker");
    std::vector<double> free_at(threads, 0.0);
    for (double d : durations) *std::min_element(free_at.begin(), free_at.end()) += d;
    return *std::max_element(free_at.begin(), free_at.end());
}

}  // namespace perfbench

#endif  // P2PCD_PERFBENCH_STATS_H
