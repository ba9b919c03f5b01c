// Random distributions used by the paper's evaluation setup (Sec. V):
//
//  * truncated normal      — inter-/intra-ISP link costs (N(5,1)|[1,10] and
//                            N(1,1)|[0,2]),
//  * Zipf–Mandelbrot       — video popularity, p(i) ∝ 1/(i+q)^α with α = 0.78,
//                            q = 4 over 100 videos,
//  * Poisson process       — peer arrivals at rate 1/s.
#ifndef P2PCD_SIM_DISTRIBUTIONS_H
#define P2PCD_SIM_DISTRIBUTIONS_H

#include <algorithm>
#include <cstddef>
#include <random>
#include <vector>

#include "sim/rng.h"

namespace p2pcd::sim {

// Normal distribution conditioned on [lo, hi], sampled by rejection. The
// acceptance probability for the paper's parameters is high (>60%); a bounded
// retry count plus clamping keeps the sampler total. One implementation for
// every generator (a fresh std::normal_distribution per try), so an
// rng_stream and an mt19937_64_prefix on one seed draw the same sample.
class truncated_normal {
public:
    truncated_normal(double mean, double stddev, double lo, double hi);

    template <class URBG>
    [[nodiscard]] double sample(URBG& gen) const {
        constexpr int max_tries = 64;
        for (int i = 0; i < max_tries; ++i) {
            const double x = std::normal_distribution<double>(mean_, stddev_)(gen);
            if (x >= lo_ && x <= hi_) return x;
        }
        // The truncation window is far in the tail; fall back to clamping,
        // which preserves boundedness (the property the paper relies on).
        return std::clamp(std::normal_distribution<double>(mean_, stddev_)(gen), lo_, hi_);
    }
    [[nodiscard]] double sample(rng_stream& rng) const { return sample(rng.engine()); }

    [[nodiscard]] double mean() const noexcept { return mean_; }
    [[nodiscard]] double stddev() const noexcept { return stddev_; }
    [[nodiscard]] double lo() const noexcept { return lo_; }
    [[nodiscard]] double hi() const noexcept { return hi_; }

private:
    double mean_;
    double stddev_;
    double lo_;
    double hi_;
};

// Zipf–Mandelbrot law over ranks 1..n: p(i) = (i+q)^-α / Σ_j (j+q)^-α.
class zipf_mandelbrot {
public:
    zipf_mandelbrot(std::size_t n, double alpha, double q);

    // Probability of rank i (1-based).
    [[nodiscard]] double pmf(std::size_t rank) const;

    // Samples a rank in [1, n].
    [[nodiscard]] std::size_t sample(rng_stream& rng) const;

    [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

    // Heap bytes behind the CDF table — memory_footprint() protocol.
    [[nodiscard]] std::size_t cdf_bytes() const noexcept {
        return cdf_.capacity() * sizeof(double);
    }

private:
    std::vector<double> cdf_;  // cdf_[i] = P(rank <= i+1)
    double alpha_;
    double q_;
};

// Homogeneous Poisson process: successive arrival times with exponential
// inter-arrival gaps of rate `rate` per second.
class poisson_process {
public:
    explicit poisson_process(double rate);

    // Advances the process and returns the next absolute arrival time.
    [[nodiscard]] double next_arrival(rng_stream& rng);

    [[nodiscard]] double rate() const noexcept { return rate_; }
    [[nodiscard]] double current_time() const noexcept { return t_; }

private:
    double rate_;
    double t_ = 0.0;
};

}  // namespace p2pcd::sim

#endif  // P2PCD_SIM_DISTRIBUTIONS_H
