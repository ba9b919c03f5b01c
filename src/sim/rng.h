// Deterministic random-number streams.
//
// Every stochastic component (cost model, arrivals, video choice, upload
// capacities, ...) draws from its own named stream derived from one master
// seed. Components therefore stay reproducible independently of each other:
// adding draws to one stream never perturbs another.
#ifndef P2PCD_SIM_RNG_H
#define P2PCD_SIM_RNG_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string_view>

namespace p2pcd::sim {

class rng_stream {
public:
    explicit rng_stream(std::uint64_t seed) : engine_(seed) {}

    // Uniform integer in [lo, hi] (inclusive).
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    // Uniform real in [lo, hi).
    [[nodiscard]] double uniform_real(double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    [[nodiscard]] bool bernoulli(double p) {
        return std::bernoulli_distribution(p)(engine_);
    }

    [[nodiscard]] double exponential(double rate) {
        return std::exponential_distribution<double>(rate)(engine_);
    }

    std::mt19937_64& engine() noexcept { return engine_; }

private:
    std::mt19937_64 engine_;
};

// Exactly the output sequence of std::mt19937_64(seed), for consumers that
// take only a few outputs per seed (the cost model seeds one per link draw).
// The standard fixes the seeding recurrence x_i = f·(x_{i−1} ⊕ (x_{i−1} ≫ 62))
// + i and the twist x_{n+k} = x_{k+m} ⊕ twist(x_k, x_{k+1}) (n = 312,
// m = 156), so output k < n − m reads only seed words k, k+1 and k+m, none of
// them yet overwritten by the twist. Construction runs the recurrence to word
// m (157 steps, not 312 plus a full twist); each output then costs one more
// recurrence step, one twist and one tempering. From output n − m on, a real
// engine advanced past those outputs takes over, so any length stays exact.
class mt19937_64_prefix {
    using engine = std::mt19937_64;
    static constexpr std::size_t m = engine::shift_size;
    static_assert(engine::state_size - m == m, "prefix outputs k < n - m = m");

public:
    using result_type = engine::result_type;
    static constexpr result_type min() { return engine::min(); }
    static constexpr result_type max() { return engine::max(); }

    explicit mt19937_64_prefix(result_type seed) {
        words_[0] = seed;
        for (std::size_t i = 1; i <= m; ++i) words_[i] = seed_step(words_[i - 1], i);
    }

    result_type operator()() {
        if (k_ == m) {
            if (!tail_) tail_.emplace(words_[0]).discard(m);
            return (*tail_)();
        }
        high_ = k_ == 0 ? words_[m] : seed_step(high_, k_ + m);
        constexpr result_type upper = ~result_type{0} << engine::mask_bits;
        const result_type y = (words_[k_] & upper) | (words_[k_ + 1] & ~upper);
        result_type z = high_ ^ (y >> 1) ^ ((y & 1) != 0 ? engine::xor_mask : 0);
        ++k_;
        z ^= (z >> engine::tempering_u) & engine::tempering_d;
        z ^= (z << engine::tempering_s) & engine::tempering_b;
        z ^= (z << engine::tempering_t) & engine::tempering_c;
        return z ^ (z >> engine::tempering_l);
    }

private:
    static result_type seed_step(result_type x, std::size_t i) {
        return engine::initialization_multiplier * (x ^ (x >> (engine::word_size - 2))) + i;
    }

    result_type words_[m + 1];  // seed words 0..m
    result_type high_ = 0;      // seed word k_ + m − 1 (the last output's x_{k+m})
    std::size_t k_ = 0;         // outputs returned so far
    std::optional<engine> tail_;
};

// Derives independent streams from a master seed by hashing stream names
// (FNV-1a, stable across platforms).
class rng_factory {
public:
    explicit rng_factory(std::uint64_t master_seed) : master_seed_(master_seed) {}

    [[nodiscard]] rng_stream stream(std::string_view name) const {
        return rng_stream(derived_seed(name));
    }

    // The seed `stream(name)` would use — for components that own their RNG
    // (e.g. reseeding a registered scheduler per bidding round) but should
    // still derive determinism from the master seed and a stable name.
    [[nodiscard]] std::uint64_t derived_seed(std::string_view name) const {
        std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
        for (char c : name) {
            h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
            h *= 1099511628211ull;  // FNV prime
        }
        h ^= master_seed_ + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return h;
    }

    [[nodiscard]] std::uint64_t master_seed() const noexcept { return master_seed_; }

private:
    std::uint64_t master_seed_;
};

}  // namespace p2pcd::sim

#endif  // P2PCD_SIM_RNG_H
