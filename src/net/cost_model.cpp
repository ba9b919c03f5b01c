#include "net/cost_model.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/contracts.h"

namespace p2pcd::net {

cost_model::cost_model(const isp_topology& topology, const cost_params& params,
                       sim::rng_stream& rng)
    : topology_(&topology),
      params_(params),
      link_seed_(static_cast<std::uint64_t>(rng.uniform_int(
          0, std::numeric_limits<std::int64_t>::max() - 1))),
      inter_(params.inter_mean, params.inter_stddev, params.inter_lo, params.inter_hi),
      intra_(params.intra_mean, params.intra_stddev, params.intra_lo, params.intra_hi) {
    expects(params_.cache_capacity > 0, "link-cache capacity must be >= 1");
}

void cost_model::attach_peering(const isp::peering_graph* graph) {
    expects(graph == nullptr || graph->num_isps() == topology_->num_isps(),
            "peering graph must cover the topology's ISP set");
    peering_ = graph;
}

void cost_model::attach_surcharge(const double* table) { surcharge_ = table; }

void cost_model::shed_cache() {
    std::vector<std::uint64_t>().swap(cache_keys_);
    std::vector<double>().swap(cache_vals_);
    std::vector<std::uint64_t>().swap(keys_scratch_);
    cache_count_ = 0;
}

cost_cache_stats cost_model::cache_stats() const noexcept {
    return {cache_hits_, cache_misses_, cache_flushes_, cache_count_,
            params_.cache_capacity};
}

namespace {
// Finalizer-style mix spreading the packed link key over the slot space.
std::uint64_t cache_slot_hash(std::uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return key;
}
}  // namespace

void cost_model::cache_grow() const {
    const std::size_t slots = cache_keys_.empty() ? 64 : cache_keys_.size() * 2;
    std::vector<std::uint64_t> keys(slots, cache_empty);
    std::vector<double> vals(slots, 0.0);
    const std::size_t mask = slots - 1;
    for (std::size_t i = 0; i < cache_keys_.size(); ++i) {
        if (cache_keys_[i] == cache_empty) continue;
        std::size_t j = cache_slot_hash(cache_keys_[i]) & mask;
        while (keys[j] != cache_empty) j = (j + 1) & mask;
        keys[j] = cache_keys_[i];
        vals[j] = cache_vals_[i];
    }
    cache_keys_.swap(keys);
    cache_vals_.swap(vals);
}

double cost_model::isp_cost(isp_id m, isp_id n) const {
    expects(m.valid() && static_cast<std::size_t>(m.value()) < topology_->num_isps(),
            "ISP id out of range");
    expects(n.valid() && static_cast<std::size_t>(n.value()) < topology_->num_isps(),
            "ISP id out of range");
    if (peering_ != nullptr) return peering_->price(m, n);
    return m == n ? params_.intra_mean : params_.inter_mean;
}

std::uint64_t cost_model::link_key(peer_id u, peer_id d, bool crosses) const {
    auto a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(u.value()));
    auto b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.value()));
    if (params_.symmetric && a > b) std::swap(a, b);  // canonical link direction
    // The cache key carries the crossing class (bit 63 — free, since valid
    // peer ids are non-negative 32-bit values): a peer that churns out and
    // re-joins in a different ISP misses the stale class's entry instead of
    // being served its draw, so the cached value is a pure function of the
    // key and a flush never changes any cost.
    return (a << 32) | b | (crosses ? std::uint64_t{1} << 63 : std::uint64_t{0});
}

double cost_model::cached_draw(std::uint64_t key) const {
    std::size_t slot = 0;
    if (!cache_keys_.empty()) {
        const std::size_t mask = cache_keys_.size() - 1;
        slot = cache_slot_hash(key) & mask;
        while (cache_keys_[slot] != cache_empty) {
            if (cache_keys_[slot] == key) {
                ++cache_hits_;
                return cache_vals_[slot];
            }
            slot = (slot + 1) & mask;
        }
    }
    ++cache_misses_;
    // The draw is a pure function of (link_seed, pair, class): mix seed and
    // pair into the seed of the link's std::mt19937_64 (the class picks the
    // distribution; its two to four outputs come from the seed's 157-word
    // prefix), so costs are reproducible and churn-proof.
    const bool crosses = (key >> 63) != 0;
    const std::uint64_t pair_key = key & ~(std::uint64_t{1} << 63);
    std::uint64_t mixed = link_seed_ ^ (pair_key * 0x9e3779b97f4a7c15ull);
    mixed ^= mixed >> 29;
    mixed *= 0xbf58476d1ce4e5b9ull;
    mixed ^= mixed >> 32;
    sim::mt19937_64_prefix link_rng(mixed);
    const double draw = crosses ? inter_.sample(link_rng) : intra_.sample(link_rng);
    if (cache_count_ >= params_.cache_capacity) {
        std::fill(cache_keys_.begin(), cache_keys_.end(), cache_empty);
        cache_count_ = 0;
        ++cache_flushes_;
    }
    // Keep the load factor at or below one half (a flush above may already
    // have emptied the table instead).
    if ((cache_count_ + 1) * 2 > cache_keys_.size()) cache_grow();
    const std::size_t mask = cache_keys_.size() - 1;
    slot = cache_slot_hash(key) & mask;
    while (cache_keys_[slot] != cache_empty) slot = (slot + 1) & mask;
    cache_keys_[slot] = key;
    cache_vals_[slot] = draw;
    ++cache_count_;
    return draw;
}

double cost_model::cost(peer_id u, peer_id d) const {
    const isp_id m = topology_->isp_of(u);
    const isp_id n = topology_->isp_of(d);
    const bool crosses = m != n;
    const double draw = cached_draw(link_key(u, d, crosses));
    const double surcharge =
        surcharge_ == nullptr
            ? 1.0
            : surcharge_[static_cast<std::size_t>(m.value()) *
                             topology_->num_isps() +
                         static_cast<std::size_t>(n.value())];
    if (peering_ == nullptr) return draw * surcharge;

    // Economy mode: the flat draw acts as unit jitter around the live
    // directed pair price (direction taken before canonicalization, so
    // asymmetric pricing survives symmetric jitter).
    const double mean = crosses ? params_.inter_mean : params_.intra_mean;
    const double price = peering_->price(m, n);
    return (mean > 0.0 ? draw / mean * price : price) * surcharge;
}

void cost_model::cost_batch(std::span<const peer_id> uploaders, peer_id d,
                            std::span<double> out) const {
    expects(out.size() >= uploaders.size(), "output span too small");
    const isp_id n = topology_->isp_of(d);
    // Pass 1: pack keys and prefetch their probe slots, so the cold probes
    // of pass 2 overlap instead of serializing their cache misses.
    keys_scratch_.resize(uploaders.size());
    for (std::size_t i = 0; i < uploaders.size(); ++i) {
        const bool crosses = topology_->isp_of(uploaders[i]) != n;
        keys_scratch_[i] = link_key(uploaders[i], d, crosses);
    }
    if (!cache_keys_.empty()) {
        const std::size_t mask = cache_keys_.size() - 1;
        for (std::uint64_t key : keys_scratch_)
            __builtin_prefetch(&cache_keys_[cache_slot_hash(key) & mask]);
    }
    const std::size_t num_isps = topology_->num_isps();
    for (std::size_t i = 0; i < uploaders.size(); ++i) {
        const double draw = cached_draw(keys_scratch_[i]);
        const double surcharge =
            surcharge_ == nullptr
                ? 1.0
                : surcharge_[static_cast<std::size_t>(
                                 topology_->isp_of(uploaders[i]).value()) *
                                 num_isps +
                             static_cast<std::size_t>(n.value())];
        if (peering_ == nullptr) {
            out[i] = draw * surcharge;
            continue;
        }
        const bool crosses = (keys_scratch_[i] >> 63) != 0;
        const double mean = crosses ? params_.inter_mean : params_.intra_mean;
        const double price = peering_->price(topology_->isp_of(uploaders[i]), n);
        out[i] = (mean > 0.0 ? draw / mean * price : price) * surcharge;
    }
}

}  // namespace p2pcd::net
