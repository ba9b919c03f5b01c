#include "core/auctioneer.h"

#include <algorithm>

#include "common/contracts.h"

namespace p2pcd::core {

auctioneer::auctioneer(std::int32_t capacity, double initial_price) {
    expects(initial_price >= 0.0, "initial price must be non-negative");
    reset(capacity);
    price_ = initial_price;
}

void auctioneer::reset(std::int32_t capacity) {
    expects(capacity >= 0, "auctioneer capacity must be non-negative");
    capacity_ = capacity;
    price_ = 0.0;
    next_seq_ = 0;
    set_.clear();
}

bool auctioneer::remove(std::size_t request) {
    auto it = std::find_if(set_.begin(), set_.end(),
                           [&](const entry& e) { return e.request == request; });
    if (it == set_.end()) return false;
    set_.erase(it);
    std::make_heap(set_.begin(), set_.end(), greater_entry{});
    if (!full()) price_ = 0.0;  // unsold units sell at the initial price
    return true;
}

std::vector<auctioneer::held_bid> auctioneer::assignment_set() const {
    std::vector<held_bid> held;
    held.reserve(set_.size());
    // Ascending (amount, seq) — the order the old priority_queue drain gave.
    auto sorted = set_;
    std::sort(sorted.begin(), sorted.end(), [](const entry& a, const entry& b) {
        if (a.amount != b.amount) return a.amount < b.amount;
        return a.seq < b.seq;
    });
    for (const auto& e : sorted) held.push_back({e.request, e.amount});
    return held;
}

}  // namespace p2pcd::core
