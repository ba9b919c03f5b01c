#include "sim/distributions.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/contracts.h"

namespace p2pcd::sim {
namespace {

TEST(truncated_normal, respects_bounds) {
    // The paper's inter-ISP cost distribution: N(5,1) truncated to [1,10].
    truncated_normal dist(5.0, 1.0, 1.0, 10.0);
    rng_stream rng(1);
    for (int i = 0; i < 5000; ++i) {
        double x = dist.sample(rng);
        EXPECT_GE(x, 1.0);
        EXPECT_LE(x, 10.0);
    }
}

TEST(truncated_normal, mean_is_close_to_center_when_symmetric) {
    truncated_normal dist(5.0, 1.0, 1.0, 10.0);
    rng_stream rng(2);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += dist.sample(rng);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(truncated_normal, asymmetric_window_shifts_mean) {
    // The paper's intra-ISP distribution N(1,1)|[0,2] is symmetric about 1;
    // a window [1, 3] around the same normal must pull the mean above 1.
    truncated_normal dist(1.0, 1.0, 1.0, 3.0);
    rng_stream rng(3);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += dist.sample(rng);
    EXPECT_GT(sum / n, 1.2);
}

TEST(truncated_normal, far_tail_window_still_returns_in_bounds) {
    truncated_normal dist(0.0, 1.0, 8.0, 9.0);  // ~7 sigma out: rejection fails
    rng_stream rng(4);
    double x = dist.sample(rng);
    EXPECT_GE(x, 8.0);
    EXPECT_LE(x, 9.0);
}

// Forwards to a generator and counts the outputs the sampler consumed.
template <class G>
struct counting_generator {
    using result_type = typename G::result_type;
    static constexpr result_type min() { return G::min(); }
    static constexpr result_type max() { return G::max(); }
    explicit counting_generator(G& g) : gen(g) {}
    result_type operator()() {
        ++calls;
        return gen();
    }
    G& gen;
    std::size_t calls = 0;
};

TEST(truncated_normal, prefix_generator_samples_match_rng_stream_bit_for_bit) {
    // A ~4.6-sigma window: nearly every seed exhausts the 64 tries and
    // clamps, taking ~165 outputs on average (130 to ~210), so for most
    // seeds the prefix generator hands over to the real engine mid-sample.
    truncated_normal dist(5.0, 1.0, 9.6, 10.0);
    constexpr std::uint64_t seeds = 10000;
    std::uint64_t past_prefix = 0;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        rng_stream stream(seed * 0x9e3779b97f4a7c15ull);
        mt19937_64_prefix prefix(seed * 0x9e3779b97f4a7c15ull);
        counting_generator<mt19937_64_prefix> counted{prefix};
        const double expected = dist.sample(stream);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dist.sample(counted)),
                  std::bit_cast<std::uint64_t>(expected))
            << "seed " << seed;
        if (counted.calls > 156) ++past_prefix;
        // Most samples clamp to lo whatever the outputs were, so also check
        // that both generators stopped at the same point of one sequence.
        ASSERT_EQ(prefix(), stream.engine()()) << "seed " << seed;
    }
    EXPECT_GT(past_prefix, seeds / 2);
}

TEST(truncated_normal, validates_parameters) {
    EXPECT_THROW(truncated_normal(0.0, 0.0, 0.0, 1.0), contract_violation);
    EXPECT_THROW(truncated_normal(0.0, 1.0, 2.0, 1.0), contract_violation);
}

TEST(zipf_mandelbrot, pmf_sums_to_one) {
    zipf_mandelbrot dist(100, 0.78, 4.0);  // the paper's video popularity
    double total = 0.0;
    for (std::size_t i = 1; i <= 100; ++i) total += dist.pmf(i);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(zipf_mandelbrot, popularity_decreases_with_rank) {
    zipf_mandelbrot dist(100, 0.78, 4.0);
    for (std::size_t i = 1; i < 100; ++i) EXPECT_GT(dist.pmf(i), dist.pmf(i + 1));
}

TEST(zipf_mandelbrot, matches_closed_form) {
    zipf_mandelbrot dist(100, 0.78, 4.0);
    double denom = 0.0;
    for (int i = 1; i <= 100; ++i) denom += std::pow(i + 4.0, -0.78);
    EXPECT_NEAR(dist.pmf(1), std::pow(5.0, -0.78) / denom, 1e-12);
    EXPECT_NEAR(dist.pmf(50), std::pow(54.0, -0.78) / denom, 1e-12);
}

TEST(zipf_mandelbrot, sampling_tracks_pmf) {
    zipf_mandelbrot dist(10, 0.78, 4.0);
    rng_stream rng(5);
    std::vector<int> counts(11, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i) ++counts[dist.sample(rng)];
    for (std::size_t rank = 1; rank <= 10; ++rank) {
        double observed = static_cast<double>(counts[rank]) / n;
        EXPECT_NEAR(observed, dist.pmf(rank), 0.01) << "rank " << rank;
    }
}

TEST(zipf_mandelbrot, rank_bounds_are_checked) {
    zipf_mandelbrot dist(10, 0.78, 4.0);
    EXPECT_THROW((void)dist.pmf(0), contract_violation);
    EXPECT_THROW((void)dist.pmf(11), contract_violation);
}

TEST(poisson_process, arrivals_are_monotone) {
    poisson_process p(1.0);
    rng_stream rng(6);
    double prev = 0.0;
    for (int i = 0; i < 100; ++i) {
        double t = p.next_arrival(rng);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(poisson_process, rate_matches_arrival_count) {
    // Rate 1/s over 10000 simulated seconds: expect ~10000 ± a few hundred.
    poisson_process p(1.0);
    rng_stream rng(7);
    int count = 0;
    while (p.next_arrival(rng) < 10000.0) ++count;
    EXPECT_NEAR(static_cast<double>(count), 10000.0, 400.0);
}

TEST(poisson_process, validates_rate) {
    EXPECT_THROW(poisson_process(0.0), contract_violation);
    EXPECT_THROW(poisson_process(-1.0), contract_violation);
}

}  // namespace
}  // namespace p2pcd::sim
