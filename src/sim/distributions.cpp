#include "sim/distributions.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace p2pcd::sim {

truncated_normal::truncated_normal(double mean, double stddev, double lo, double hi)
    : mean_(mean), stddev_(stddev), lo_(lo), hi_(hi) {
    expects(stddev > 0.0, "truncated_normal requires stddev > 0");
    expects(lo < hi, "truncated_normal requires lo < hi");
}

zipf_mandelbrot::zipf_mandelbrot(std::size_t n, double alpha, double q)
    : alpha_(alpha), q_(q) {
    expects(n > 0, "zipf_mandelbrot requires at least one rank");
    expects(q > -1.0, "zipf_mandelbrot requires q > -1 so all weights are finite");
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total += std::pow(static_cast<double>(i + 1) + q_, -alpha_);
        cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;  // guard against floating-point shortfall
}

double zipf_mandelbrot::pmf(std::size_t rank) const {
    expects(rank >= 1 && rank <= cdf_.size(), "zipf_mandelbrot rank out of range");
    double lo = rank == 1 ? 0.0 : cdf_[rank - 2];
    return cdf_[rank - 1] - lo;
}

std::size_t zipf_mandelbrot::sample(rng_stream& rng) const {
    double u = rng.uniform_real(0.0, 1.0);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

poisson_process::poisson_process(double rate) : rate_(rate) {
    expects(rate > 0.0, "poisson_process requires a positive rate");
}

double poisson_process::next_arrival(rng_stream& rng) {
    t_ += rng.exponential(rate_);
    return t_;
}

}  // namespace p2pcd::sim
