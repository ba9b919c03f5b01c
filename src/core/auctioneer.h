// Bandwidth allocation at an upstream peer — "Bandwidth Allocation at Peer u"
// in Sec. IV-B (the auctioneer half of Alg. 1).
//
// The auctioneer keeps the B(u) highest bids in its assignment set. While the
// set is not full the unit price λ_u stays at its initial 0; once full, λ_u is
// the lowest accepted bid, and a new accepted bid evicts that lowest bidder.
// λ_u is non-decreasing over the auction's lifetime.
//
// The assignment set is an explicit vector-backed min-heap so that reset()
// can re-arm an auctioneer without releasing its storage — the synchronous
// solver keeps one auctioneer per uploader alive across solve() calls.
#ifndef P2PCD_CORE_AUCTIONEER_H
#define P2PCD_CORE_AUCTIONEER_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/contracts.h"

namespace p2pcd::core {

class auctioneer {
public:
    // A default-constructed auctioneer sells nothing until reset().
    auctioneer() = default;

    // `initial_price` > 0 is used by ε-scaling re-runs and intra-slot
    // warm starts, which seed λ_u from a previous phase's/round's price.
    explicit auctioneer(std::int32_t capacity, double initial_price = 0.0);

    // Re-arms for a new auction: empties the assignment set (keeping its
    // storage) and installs the new capacity and starting price.
    void reset(std::int32_t capacity, double initial_price = 0.0);

    struct outcome {
        bool accepted = false;
        // Request evicted to make room (only when accepted into a full set).
        std::optional<std::size_t> evicted = std::nullopt;
        // True when λ_u changed (the peer would broadcast the new price).
        bool price_changed = false;
    };

    // A bid of `amount` from `request`. Rejected iff amount <= λ_u (or the
    // auctioneer has no capacity at all). Inline: the synchronous solver
    // calls this once per submitted bid.
    outcome offer(std::size_t request, double amount) {
        outcome result;
        if (capacity_ == 0) return result;  // nothing to sell; reject
        if (amount <= price_) return result;  // "if b(d,c,u) <= λ_u, reject"

        if (full()) {
            // Evict the lowest bid to make room for the higher one.
            std::pop_heap(set_.begin(), set_.end(), greater_entry{});
            result.evicted = set_.back().request;
            set_.pop_back();
        }
        set_.push_back({amount, next_seq_++, request});
        std::push_heap(set_.begin(), set_.end(), greater_entry{});
        result.accepted = true;

        if (full()) {
            // "update λ_u to the smallest bid among all requests in A"
            double new_price = set_.front().amount;
            ensures(new_price >= price_,
                    "bandwidth price must be non-decreasing during an auction");
            if (new_price != price_) {
                price_ = new_price;
                result.price_changed = true;
            }
        }
        return result;
    }

    // Current unit bandwidth price λ_u. +inf for a zero-capacity auctioneer
    // (it can never sell, so no finite bid should target it).
    [[nodiscard]] double price() const noexcept {
        if (capacity_ == 0) return std::numeric_limits<double>::infinity();
        return price_;
    }

    [[nodiscard]] std::int32_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t size() const noexcept { return set_.size(); }
    // Bytes held by the assignment-set storage — memory_footprint() protocol.
    [[nodiscard]] std::size_t heap_bytes() const noexcept {
        return set_.capacity() * sizeof(entry);
    }
    // Returns the assignment-set storage to the allocator (capacity_ and
    // price_ are untouched; reset() re-arms as usual).
    void shed() noexcept { std::vector<entry>().swap(set_); }
    [[nodiscard]] bool full() const noexcept {
        return static_cast<std::int64_t>(set_.size()) >= capacity_;
    }

    // Requests currently holding a bandwidth unit, with their standing bids.
    struct held_bid {
        std::size_t request = 0;
        double amount = 0.0;
    };
    [[nodiscard]] std::vector<held_bid> assignment_set() const;

    // Releases `request`'s unit (peer-departure handling, Sec. IV-C). When
    // the set is no longer full the price falls back to 0, consistent with
    // the paper's rule that λ_u is only lifted off its initial value while
    // all B(u) units are allocated — this re-opens the market so bidders that
    // had been priced out can return. Returns false when the request held
    // nothing here.
    bool remove(std::size_t request);

private:
    struct entry {
        double amount = 0.0;
        std::uint64_t seq = 0;  // FIFO tie-break: equal bids evict oldest first
        std::size_t request = 0;
    };
    // Min-heap order for std::push_heap/std::pop_heap: the comparator says
    // "a sorts after b", so top() is the lowest (amount, seq) — the eviction
    // victim / price setter.
    struct greater_entry {
        bool operator()(const entry& a, const entry& b) const noexcept {
            if (a.amount != b.amount) return a.amount > b.amount;
            return a.seq > b.seq;
        }
    };

    std::int32_t capacity_ = 0;
    double price_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::vector<entry> set_;  // heap via std::push_heap/std::pop_heap
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_AUCTIONEER_H
