// Network cost w_{u→d} between peers.
//
// Sec. V of the paper: "inter-ISP link delay costs and intra-ISP link delay
// costs follow truncated normal distributions" — the cost is per *link*
// (ordered peer pair), with the distribution picked by whether the pair
// crosses an ISP boundary: inter N(5, 1) on [1, 10], intra N(1, 1) on [0, 2].
//
// Costs are sampled lazily and deterministically: the draw for a pair is a
// pure function of (seed, u, d, crossing class), so the model is
// reproducible, needs no upfront O(peers²) table, and survives churn (a
// re-queried pair always gets the same cost; a peer re-added to a different
// ISP re-draws under its new class). A draw reads the first few outputs of
// a link-seeded std::mt19937_64, computed exactly from the seed's 157-word
// prefix (sim::mt19937_64_prefix) instead of a full seeding and twist.
// `symmetric` (default) makes w(u,d) == w(d,u), as expected of link latency.
//
// ISP economy: `attach_peering` plugs in an `isp::peering_graph`, and the
// flat inter/intra dichotomy generalizes to the per-ISP-pair price matrix.
// The cached flat draw becomes a unit jitter (draw ÷ its distribution mean)
// rescaled by the *live* directed pair price at query time:
//     w(u→d) = draw / mean × price(isp(u), isp(d))
// so price updates from the isp::price_controller steer subsequent slots
// with no cache invalidation, and asymmetric pricing yields asymmetric
// costs even when the underlying jitter is symmetric. Without a graph the
// behavior is bit-identical to the classic dichotomy.
//
// The lazily-filled cache is bounded: at `cost_params::cache_capacity`
// entries it is flushed (draws are pure functions of the link, so a flush
// never changes a cost), which keeps unbounded churn from growing it without
// limit; `cache_stats()` exposes hit/miss/flush counters. Storage is a flat
// open-addressing table (linear probing, ≤ 50% load): the emulator's
// neighbor-arena prefetch probes it once per (viewer, neighbor) link per
// slot, and a flat probe is a fraction of an unordered_map node walk.
#ifndef P2PCD_NET_COST_MODEL_H
#define P2PCD_NET_COST_MODEL_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "isp/peering_graph.h"
#include "net/isp_topology.h"
#include "sim/distributions.h"
#include "sim/rng.h"

namespace p2pcd::net {

struct cost_params {
    double inter_mean = 5.0;
    double inter_stddev = 1.0;
    double inter_lo = 1.0;
    double inter_hi = 10.0;
    double intra_mean = 1.0;
    double intra_stddev = 1.0;
    double intra_lo = 0.0;
    double intra_hi = 2.0;
    bool symmetric = true;  // w(u,d) == w(d,u)
    // Link-cache bound: the cache is flushed when it reaches this many
    // entries (must be >= 1). Sized from measured working sets: a 5 000-peer
    // metro slot touches ~107k distinct links (bench/slot_pipeline
    // counter.cost.cache_misses), so 2^19 entries still never flushes there
    // while halving the per-shard slot-array footprint (the fleet's largest
    // standing allocation per the memory_footprint() audit).
    std::size_t cache_capacity = 1u << 19;
};

struct cost_cache_stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
};

class cost_model {
public:
    cost_model(const isp_topology& topology, const cost_params& params,
               sim::rng_stream& rng);

    // Cost of shipping one chunk over the u → d link.
    [[nodiscard]] double cost(peer_id u, peer_id d) const;

    // Batched cost() toward one downstream peer: out[i] = cost(uploaders[i],
    // d), with the cache slots software-prefetched ahead of the probes so a
    // sweep over a peer's neighbor set overlaps its memory latency. The
    // emulator's per-slot link prefetch runs on this.
    void cost_batch(std::span<const peer_id> uploaders, peer_id d,
                    std::span<double> out) const;

    // Expected cost between two ISPs: the live peering price when a graph is
    // attached, otherwise the relevant flat distribution's mean.
    [[nodiscard]] double isp_cost(isp_id m, isp_id n) const;

    // Attaches the ISP-pair price matrix (nullptr detaches; the caller keeps
    // ownership and the graph must outlive the model). Costs of pairs in
    // different ISPs scale with price(isp(u), isp(d)); same-ISP pairs with
    // the diagonal price.
    void attach_peering(const isp::peering_graph* graph);
    [[nodiscard]] bool has_peering() const noexcept { return peering_ != nullptr; }

    // Attaches a num_isps × num_isps row-major congestion-surcharge table
    // (src/capacity/link_budget): every cost()/cost_batch() result is
    // multiplied by table[isp(u) × n + isp(d)] at query time. The caller
    // owns the table and only mutates it while no query is in flight (the
    // fleet writes it from its serial inter-slot hook). nullptr detaches;
    // detached behavior is bit-identical to pre-surcharge code.
    void attach_surcharge(const double* table);
    [[nodiscard]] bool has_surcharge() const noexcept {
        return surcharge_ != nullptr;
    }

    // Returns the link-draw cache's storage to the allocator (stats and
    // behavior survive: draws are pure functions of the link key, so every
    // future query re-derives the same cost — only hit/miss counters move).
    // The fleet calls this per shard at slot end so a 200-swarm run keeps
    // ~threads warm caches instead of one per swarm forever.
    void shed_cache();

    [[nodiscard]] const cost_params& params() const noexcept { return params_; }
    [[nodiscard]] cost_cache_stats cache_stats() const noexcept;
    // Bytes held by the link cache and its scratch (capacity, not size) —
    // memory_footprint() protocol.
    [[nodiscard]] std::size_t cache_bytes() const noexcept {
        return cache_keys_.capacity() * sizeof(std::uint64_t) +
               cache_vals_.capacity() * sizeof(double) +
               keys_scratch_.capacity() * sizeof(std::uint64_t);
    }

private:
    const isp_topology* topology_;
    const isp::peering_graph* peering_ = nullptr;
    const double* surcharge_ = nullptr;  // n × n row-major multipliers
    cost_params params_;
    std::uint64_t link_seed_;
    sim::truncated_normal inter_;
    sim::truncated_normal intra_;
    // Lazily filled link-draw cache; key packs both peer ids plus the
    // crossing class (bit 63). Bounded by params_.cache_capacity
    // (flush-on-full). Open addressing with linear probing over a
    // power-of-two slot array kept at ≤ 50% load; `cache_empty` can never be
    // a real key (it would need peer id bit 31 set, and valid ids are
    // non-negative).
    static constexpr std::uint64_t cache_empty = ~std::uint64_t{0};
    void cache_grow() const;  // doubles the slot array and rehashes
    // Packs (u, d, class) into the cache key (canonicalized when symmetric).
    [[nodiscard]] std::uint64_t link_key(peer_id u, peer_id d, bool crosses) const;
    // Cache probe + draw-on-miss for a packed key.
    [[nodiscard]] double cached_draw(std::uint64_t key) const;
    mutable std::vector<std::uint64_t> cache_keys_;  // cache_empty = free slot
    mutable std::vector<double> cache_vals_;
    mutable std::vector<std::uint64_t> keys_scratch_;  // cost_batch pass 1
    mutable std::size_t cache_count_ = 0;
    mutable std::uint64_t cache_hits_ = 0;
    mutable std::uint64_t cache_misses_ = 0;
    mutable std::uint64_t cache_flushes_ = 0;
};

}  // namespace p2pcd::net

#endif  // P2PCD_NET_COST_MODEL_H
