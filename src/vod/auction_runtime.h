// Message-level (Jacobi-style) implementation of the distributed auctions —
// the protocol of Sec. IV-B/IV-C running over a simulated network.
//
// Unlike the synchronous core::auction_solver, bidders here act on *cached*
// (possibly stale) prices; bids, accept/reject/evict notifications and price
// updates all travel as messages with ISP-dependent latency. This is the
// runtime behind Fig. 2: a per-peer price λ_u rises in steps as competing
// bids arrive and flattens once the auction converges, a few simulated
// seconds into the slot.
//
// The runtime owns its event clock for one slot; reported times are
// `time_offset + local time` so a slot starting at t=150 s produces points on
// the paper's absolute axis.
#ifndef P2PCD_VOD_AUCTION_RUNTIME_H
#define P2PCD_VOD_AUCTION_RUNTIME_H

#include <functional>
#include <unordered_map>
#include <vector>

#include "core/auction.h"
#include "core/auctioneer.h"
#include "core/bidder.h"
#include "core/problem.h"
#include "metrics/time_series.h"
#include "net/message_network.h"
#include "sim/simulator.h"

namespace p2pcd::vod {

struct runtime_options {
    core::bidder_options bidding;
    // One-way message latency between two peers, seconds.
    std::function<double(peer_id from, peer_id to)> latency;
    // Wall of the bidding cycle: the auction may use at most this much
    // simulated time (one slot). Convergence normally happens much earlier.
    double duration = 10.0;
    // Added to local event times in all reported timestamps.
    double time_offset = 0.0;
    // When set, every λ change at every uploader is appended to
    // runtime_result::price_log (Fig. 2 reproduction needs the full log to
    // pick the most contended "representative peer" after the fact).
    bool record_price_log = false;
    // Warm-start prices per uploader (empty = all zero). The emulator threads
    // prices through the bidding rounds of one distributed slot: the slot
    // stays the price cycle of Sec. IV-C while urgency-driven re-bidding
    // happens within it.
    std::vector<double> initial_prices;
};

struct price_event {
    double time = 0.0;          // absolute (time_offset applied)
    std::size_t uploader = 0;   // problem-local uploader index
    double price = 0.0;         // the new λ_u
};

struct runtime_result {
    core::auction_result auction;
    double convergence_time = 0.0;  // absolute time of the last state change
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_dropped = 0;
    std::vector<price_event> price_log;  // filled iff options.record_price_log
};

class auction_runtime {
public:
    // The view (and the builder behind it) must outlive the runtime.
    auction_runtime(core::problem_view problem, runtime_options options);

    auction_runtime(const auction_runtime&) = delete;
    auction_runtime& operator=(const auction_runtime&) = delete;

    // Runs the slot's auction to quiescence (or the duration wall). When
    // `price_probe` is non-null, every λ change at uploader `probe_uploader`
    // is recorded as a (time_offset + now, price) point.
    runtime_result run(metrics::time_series* price_probe = nullptr,
                       std::size_t probe_uploader = SIZE_MAX);

    // Schedules the departure of a peer `after` seconds into the slot
    // (Sec. IV-C): its message handler detaches (in-flight messages to it are
    // dropped), its bandwidth allocations are released, its own requests are
    // abandoned, and bidders waiting on it are unblocked as if timed out.
    // Call before run().
    void depart_peer_at(peer_id who, double after);

private:
    struct message {
        enum class kind : std::uint8_t { bid, accept, reject, evict, price_update };
        kind what = kind::bid;
        std::size_t request = 0;   // bid/accept/reject/evict
        std::size_t uploader = 0;  // uploader index (problem-local)
        double amount = 0.0;       // bid amount or announced price
    };

    struct bidder_state {
        std::vector<double> cached_prices;  // parallel to candidates(r)
        bool assigned = false;
        bool dropped = false;
        bool pending = false;  // bid in flight, awaiting accept/reject
        bool parked = false;   // literal policy: waiting for a price change
        std::size_t pending_uploader = 0;
        std::size_t assigned_candidate = 0;
    };

    void handle(peer_id self, peer_id from, const message& msg);
    void on_bid(std::size_t uploader, std::size_t request, double amount);
    void try_bid(std::size_t request);
    void broadcast_price(std::size_t uploader, double price);
    void depart_now(peer_id who);
    void note_activity();

    core::problem_view problem_;
    runtime_options options_;
    sim::simulator simulator_;
    net::message_network<message> network_;

    std::vector<core::auctioneer> sellers_;
    std::vector<bidder_state> bidders_;
    std::vector<bool> uploader_departed_;

    // Price-update fan-out: peers that hold uploader u as a candidate, and
    // the requests that watch it (for departure handling).
    std::vector<std::vector<peer_id>> watcher_peers_;
    std::vector<std::vector<std::size_t>> requests_watching_;
    // Requests issued by each downstream peer.
    std::unordered_map<peer_id, std::vector<std::size_t>> requests_of_peer_;
    // Per request: candidate ordinal of a given uploader index.
    std::vector<std::unordered_map<std::size_t, std::size_t>> ordinal_of_uploader_;
    // Uploader indices owned by each peer (normally one).
    std::unordered_map<peer_id, std::vector<std::size_t>> uploaders_of_peer_;

    metrics::time_series* price_probe_ = nullptr;
    std::size_t probe_uploader_ = SIZE_MAX;
    std::vector<price_event> price_log_;
    double last_activity_ = 0.0;
    std::uint64_t bids_submitted_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t rejections_ = 0;
    std::uint64_t abstentions_ = 0;
};

}  // namespace p2pcd::vod

#endif  // P2PCD_VOD_AUCTION_RUNTIME_H
