// The per-time-slot chunk-scheduling problem — problem (1) of the paper.
//
// One instance collects, for a single time slot t:
//  * uploaders: every peer u willing to serve, with capacity B(u) chunks/slot;
//  * requests: every (downstream peer d, chunk c) pair in R_t(d), with the
//    downstream peer's valuation v^{(c)}(d);
//  * candidates: for each request, the neighbors that cache chunk c, each with
//    the network cost w_{u→d}. For the auctions' rounds the emulator lists
//    only those with w ≤ v (no bid ever targets the rest), so a request's
//    row may be empty.
//
// Storage is CSR (compressed sparse row) with structure-of-arrays candidates:
// the flat candidate slab is a u32 uploader-index array plus a parallel double
// cost array (12 B/candidate instead of the padded 16 B struct), with u32
// per-request row starts, so a full sweep over a round's candidates is a
// linear scan of two dense arrays. `scheduling_problem` is the incremental
// builder (reusable via `clear()`, so the emulator keeps one arena across
// rounds; `shed()` drops the arenas entirely between slots); `problem_view` is
// the flat read-only window every solver consumes. Row-wise consumers iterate
// `candidates(r)` — a `candidate_range` proxy yielding `candidate_info` values
// — while the solvers' hot loops read the u32/double slabs directly via
// `cand_uploaders()`/`cand_costs()`.
//
// A `schedule` is the binary decision a^{(c)}_{u→d}: for each request, either
// one of its candidates or `no_candidate` (request unserved this slot).
#ifndef P2PCD_CORE_PROBLEM_H
#define P2PCD_CORE_PROBLEM_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string_view>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"
#include "opt/transportation.h"

namespace p2pcd::core {

struct uploader_info {
    peer_id who;
    std::int32_t capacity = 0;  // B(u): chunks this peer can upload per slot
};

struct request_info {
    peer_id downstream;
    chunk_id chunk;
    double valuation = 0.0;  // v^{(c)}(d)
};

struct candidate_info {
    std::size_t uploader = 0;  // index into the problem's uploader table
    double cost = 0.0;         // w_{u→d}
};

// Read-only window over one CSR row (or the whole slab) of the SoA candidate
// storage. Indexing and iteration materialize `candidate_info` by value from
// the two parallel arrays, so row-wise code reads exactly as it did when the
// slab was an array-of-structs.
class candidate_range {
public:
    class iterator {
    public:
        using value_type = candidate_info;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::forward_iterator_tag;

        iterator() = default;
        iterator(const std::uint32_t* up, const double* cost) noexcept
            : up_(up), cost_(cost) {}

        candidate_info operator*() const noexcept { return {*up_, *cost_}; }
        iterator& operator++() noexcept {
            ++up_;
            ++cost_;
            return *this;
        }
        iterator operator++(int) noexcept {
            iterator old = *this;
            ++*this;
            return old;
        }
        bool operator==(const iterator& other) const noexcept {
            return up_ == other.up_;
        }

    private:
        const std::uint32_t* up_ = nullptr;
        const double* cost_ = nullptr;
    };

    candidate_range() = default;
    candidate_range(const std::uint32_t* up, const double* cost,
                    std::size_t n) noexcept
        : up_(up), cost_(cost), n_(n) {}

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
    [[nodiscard]] candidate_info operator[](std::size_t i) const {
        expects(i < n_, "candidate ordinal out of range");
        return {up_[i], cost_[i]};
    }
    [[nodiscard]] iterator begin() const noexcept { return {up_, cost_}; }
    [[nodiscard]] iterator end() const noexcept { return {up_ + n_, cost_ + n_}; }

private:
    const std::uint32_t* up_ = nullptr;
    const double* cost_ = nullptr;
    std::size_t n_ = 0;
};

// Trivially-copyable read-only window over one problem in CSR layout:
// request r owns candidates [offsets[r], offsets[r+1]) of the flat slab.
// Cheap to pass by value; valid only while the owning builder is alive and
// unmodified.
class problem_view {
public:
    problem_view() = default;
    problem_view(std::span<const uploader_info> uploaders,
                 std::span<const request_info> requests,
                 std::span<const std::uint32_t> offsets,
                 std::span<const std::uint32_t> cand_uploaders,
                 std::span<const double> cand_costs) noexcept
        : uploaders_(uploaders),
          requests_(requests),
          offsets_(offsets),
          cand_uploaders_(cand_uploaders),
          cand_costs_(cand_costs) {}

    [[nodiscard]] std::size_t num_uploaders() const noexcept { return uploaders_.size(); }
    [[nodiscard]] std::size_t num_requests() const noexcept { return requests_.size(); }
    [[nodiscard]] std::size_t num_candidates() const noexcept {
        return cand_uploaders_.size();
    }

    [[nodiscard]] const uploader_info& uploader(std::size_t u) const {
        expects(u < uploaders_.size(), "uploader index out of range");
        return uploaders_[u];
    }
    [[nodiscard]] const request_info& request(std::size_t r) const {
        expects(r < requests_.size(), "request index out of range");
        return requests_[r];
    }
    [[nodiscard]] candidate_range candidates(std::size_t r) const {
        expects(r < requests_.size(), "request index out of range");
        return {cand_uploaders_.data() + offsets_[r], cand_costs_.data() + offsets_[r],
                static_cast<std::size_t>(offsets_[r + 1] - offsets_[r])};
    }
    // Flat index of request r's first candidate — candidate ordinal i of
    // request r lives at `candidate_offset(r) + i` in solver-side flat
    // workspaces (net values, edge ids, ...).
    [[nodiscard]] std::size_t candidate_offset(std::size_t r) const {
        expects(r < requests_.size(), "request index out of range");
        return offsets_[r];
    }
    // The raw CSR row starts (num_requests()+1 entries) for solvers that walk
    // the flat layout without per-row bounds checks.
    [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept {
        return offsets_;
    }
    // The flat SoA candidate slabs — what the solver hot loops index.
    [[nodiscard]] std::span<const std::uint32_t> cand_uploaders() const noexcept {
        return cand_uploaders_;
    }
    [[nodiscard]] std::span<const double> cand_costs() const noexcept {
        return cand_costs_;
    }
    [[nodiscard]] std::span<const uploader_info> all_uploaders() const noexcept {
        return uploaders_;
    }
    [[nodiscard]] std::span<const request_info> all_requests() const noexcept {
        return requests_;
    }

    // Net utility v − w of serving request r through its i-th candidate.
    [[nodiscard]] double net_value(std::size_t r, std::size_t i) const {
        auto cands = candidates(r);
        expects(i < cands.size(), "candidate ordinal out of range");
        return requests_[r].valuation - cands[i].cost;
    }

private:
    std::span<const uploader_info> uploaders_;
    std::span<const request_info> requests_;
    std::span<const std::uint32_t> offsets_;  // num_requests()+1 entries
    std::span<const std::uint32_t> cand_uploaders_;
    std::span<const double> cand_costs_;
};

class scheduling_problem {
public:
    scheduling_problem() { offsets_.push_back(0); }

    // Returns the new uploader's index.
    std::size_t add_uploader(peer_id who, std::int32_t capacity);

    // Returns the new request's index.
    std::size_t add_request(peer_id downstream, chunk_id chunk, double valuation);

    // O(1) when `request` is the most recently added request (the only
    // pattern the emulator and generators use); inserting into an earlier
    // request shifts the candidate tail and is O(num_candidates).
    void add_candidate(std::size_t request, std::size_t uploader, double cost);

    // Appends to the most recently added request — the per-candidate form
    // of the emulator's reference row builder (its >32-neighbor rows and
    // the shadow oracle) and of the instance generators. Header-inline: one
    // branch, no cross-TU call.
    void append_candidate(std::size_t uploader, double cost) {
        expects(!requests_.empty(), "append_candidate needs an open request");
        expects(cand_uploader_.size() < 0xffffffffu, "candidate slab exceeds u32");
        cand_uploader_.push_back(static_cast<std::uint32_t>(uploader));
        cand_cost_.push_back(cost);
        ++offsets_.back();
    }

    // Mask-driven bulk append, the delta build's one emission call per
    // request: for each set bit j of `mask`, ascending, appends candidate
    // (uploaders[j], costs[j]) to the most recently added request — one
    // contract check per request. Returns how many were appended.
    std::size_t append_candidates_masked(const std::uint32_t* uploaders,
                                         const double* costs,
                                         std::uint32_t mask) {
        expects(!requests_.empty(), "append_candidates_masked needs an open request");
        const auto n = static_cast<std::uint32_t>(std::popcount(mask));
        expects(cand_uploader_.size() + n <= 0xffffffffu, "candidate slab exceeds u32");
        while (mask != 0) {
            const auto j = static_cast<std::uint32_t>(std::countr_zero(mask));
            mask &= mask - 1;
            cand_uploader_.push_back(uploaders[j]);
            cand_cost_.push_back(costs[j]);
        }
        offsets_.back() += n;
        return n;
    }

    // Exact (bit-level) equality of the built instance — the delta pipeline's
    // shadow-build cross-check. Doubles compare by bit pattern, so a ±0.0 or
    // NaN discrepancy counts as a divergence.
    [[nodiscard]] bool identical_to(const scheduling_problem& other) const noexcept;

    // Drops all content but keeps the allocated arenas, so a builder reused
    // across bidding rounds/slots stops allocating once warm.
    void clear() noexcept;

    // Pre-sizes the arenas (optional; clear()-reuse reaches the same steady
    // state after the first round).
    void reserve(std::size_t uploaders, std::size_t requests, std::size_t candidates);

    // Returns the arenas to the allocator (capacity drops to zero). The
    // emulator sheds the slot problem after the last bidding round so a
    // shard's high-water slab is only resident while its slot is solving —
    // pair with `reserve()` of the remembered high water at the next build.
    void shed() noexcept;

    // Bytes held in the arenas (capacity, not size) — memory_footprint()
    // protocol.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return uploaders_.capacity() * sizeof(uploader_info) +
               requests_.capacity() * sizeof(request_info) +
               offsets_.capacity() * sizeof(std::uint32_t) +
               cand_uploader_.capacity() * sizeof(std::uint32_t) +
               cand_cost_.capacity() * sizeof(double);
    }

    [[nodiscard]] std::size_t num_uploaders() const noexcept { return uploaders_.size(); }
    [[nodiscard]] std::size_t num_requests() const noexcept { return requests_.size(); }
    [[nodiscard]] std::size_t num_candidates() const noexcept {
        return cand_uploader_.size();
    }

    [[nodiscard]] const uploader_info& uploader(std::size_t u) const;
    [[nodiscard]] const request_info& request(std::size_t r) const;
    [[nodiscard]] candidate_range candidates(std::size_t r) const;

    // Net utility v − w of serving request r through its i-th candidate.
    [[nodiscard]] double net_value(std::size_t r, std::size_t i) const;

    // The flat window solvers consume. Implicit so every view-consuming API
    // accepts a builder directly; invalidated by any further mutation.
    [[nodiscard]] problem_view view() const noexcept {
        return {uploaders_, requests_, offsets_, cand_uploader_, cand_cost_};
    }
    operator problem_view() const noexcept { return view(); }  // NOLINT(google-explicit-constructor)

    // Lossless conversion to the transportation form of Sec. IV-A, kept for
    // the opt-layer reference solvers and the LP-formulation tests. Edge k of
    // the result corresponds to flat candidate k (CSR order), i.e. candidate
    // `edge_origin(k)`. core/exact does not go through this copy — it fills
    // its own persistent instance straight off the view, in the same order.
    [[nodiscard]] opt::transportation_instance to_transportation() const;
    struct edge_origin_entry {
        std::size_t request = 0;
        std::size_t candidate = 0;  // ordinal within candidates(request)
    };
    [[nodiscard]] std::vector<edge_origin_entry> edge_origins() const;

private:
    std::vector<uploader_info> uploaders_;
    std::vector<request_info> requests_;
    std::vector<std::uint32_t> offsets_;  // CSR row starts; requests+1 entries
    std::vector<std::uint32_t> cand_uploader_;  // SoA candidate slab
    std::vector<double> cand_cost_;
};

inline constexpr std::ptrdiff_t no_candidate = -1;

// For each request: ordinal of the chosen candidate, or `no_candidate`.
struct schedule {
    std::vector<std::ptrdiff_t> choice;

    [[nodiscard]] bool assigned(std::size_t r) const {
        return choice[r] != no_candidate;
    }
};

// Common interface for all scheduling algorithms (auction, baselines, exact).
//
// Schedulers are long-lived: internal workspaces persist across solve()
// calls, so a scheduler reused round after round on similarly-sized problems
// stops allocating once warm. A fresh scheduler and a warm one produce the
// identical schedule for the same input (asserted by the equivalence suite).
class scheduler {
public:
    virtual ~scheduler() = default;
    [[nodiscard]] virtual schedule solve(const problem_view& problem) = 0;
    [[nodiscard]] virtual std::string_view name() const = 0;
    // Re-keys any internal randomness before the next solve(); deterministic
    // schedulers ignore it. The emulator calls this once per bidding round
    // with a seed derived from (slot, round) via sim::rng_factory.
    virtual void reseed(std::uint64_t seed) { (void)seed; }
    // Returns persistent workspaces to the allocator; the next solve()
    // regrows them. The emulator calls this at slot end so solver slabs are
    // only resident while a shard's slot is in flight.
    virtual void shed_memory() {}
    // Bytes currently held in persistent workspaces (capacity, not size) —
    // memory_footprint() protocol.
    [[nodiscard]] virtual std::size_t workspace_bytes() const { return 0; }
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_PROBLEM_H
