// The knock rounds both request-side baselines run (simple-locality and
// random differ only in which candidate a request tries next). Each round
// every unserved request knocks at one candidate's uploader, which grants its
// remaining capacity in urgency order — valuation descending, then request
// index ascending — and rejects the rest; they knock again next round.
//
// A round is linear in its knocks: a counting sort bins the u32 request ids
// per uploader, a bin that fits is granted whole, and an over-full bin picks
// its winners with one std::nth_element under that total order. As a set
// they are the prefix of a stable sort of the bin by valuation.
#ifndef P2PCD_BASELINE_KNOCK_ROUNDS_H
#define P2PCD_BASELINE_KNOCK_ROUNDS_H

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/problem.h"

namespace p2pcd::baseline {

class knock_rounds {
public:
    static constexpr std::uint32_t none = 0xffffffffu;  // no candidate (left)

    // Runs up to `max_rounds` rounds. `next(r, prev)` returns the ordinal
    // request r knocks at after a rejection at ordinal `prev` (`none`: its
    // first knock), or `none` when r has no candidate left. It is called at
    // the start of each round for every request still knocking (round 0:
    // every request), in ascending request order, so row scans stream.
    template <class Next>
    core::schedule run(const core::problem_view& problem, std::size_t max_rounds,
                       Next next) {
        const auto nr = static_cast<std::uint32_t>(problem.num_requests());
        const std::size_t nu = problem.num_uploaders();
        core::schedule sched;
        sched.choice.assign(nr, core::no_candidate);
        const auto offsets = problem.offsets();
        const auto cand_up = problem.cand_uploaders();
        const auto requests = problem.all_requests();
        const auto knocking = [&](std::uint32_t r) {
            return sched.choice[r] == core::no_candidate && target_[r] != none;
        };
        const auto uploader_of = [&](std::uint32_t r) {
            return cand_up[offsets[r] + target_[r]];
        };
        const auto more_urgent = [&](std::uint32_t a, std::uint32_t b) {
            const double va = requests[a].valuation;
            const double vb = requests[b].valuation;
            return va > vb || (va == vb && a < b);
        };

        target_.resize(nr);
        bins_.resize(nr);
        bin_start_.resize(nu + 1);
        remaining_.resize(nu);
        for (std::size_t u = 0; u < nu; ++u)
            remaining_[u] = problem.all_uploaders()[u].capacity;
        for (std::size_t round = 0; round < max_rounds; ++round) {
            // Advance, then bin: bin_start_[u] ends at the end of u's bin.
            std::fill(bin_start_.begin(), bin_start_.end(), 0u);
            for (std::uint32_t r = 0; r < nr; ++r) {
                if (round != 0 && !knocking(r)) continue;
                target_[r] = next(r, round == 0 ? none : target_[r]);
                if (target_[r] != none) ++bin_start_[uploader_of(r) + 1];
            }
            std::partial_sum(bin_start_.begin(), bin_start_.end(), bin_start_.begin());
            if (bin_start_[nu] == 0) break;
            for (std::uint32_t r = 0; r < nr; ++r)
                if (knocking(r)) bins_[bin_start_[uploader_of(r)]++] = r;

            auto* begin = bins_.data();
            for (std::size_t u = 0; u < nu; ++u) {
                auto* const end = bins_.data() + bin_start_[u];
                const auto knocked = static_cast<std::int32_t>(end - begin);
                const std::int32_t granted = std::clamp(remaining_[u], 0, knocked);
                if (0 < granted && granted < knocked)
                    std::nth_element(begin, begin + granted, end, more_urgent);
                for (auto* k = begin; k != begin + granted; ++k)
                    sched.choice[*k] = static_cast<std::ptrdiff_t>(target_[*k]);
                remaining_[u] -= granted;
                begin = end;
            }
        }
        return sched;
    }

    void shed() noexcept { *this = knock_rounds(); }
    [[nodiscard]] std::size_t memory_bytes() const noexcept {  // all 4-byte entries
        return (target_.capacity() + bins_.capacity() + bin_start_.capacity() +
                remaining_.capacity()) * sizeof(std::uint32_t);
    }

private:
    std::vector<std::uint32_t> target_;     // per request: the ordinal it knocks at
    std::vector<std::uint32_t> bins_;       // the round's knocks, binned by uploader
    std::vector<std::uint32_t> bin_start_;  // per uploader + 1: counting-sort bounds
    std::vector<std::int32_t> remaining_;   // per uploader: capacity left
};

}  // namespace p2pcd::baseline

#endif  // P2PCD_BASELINE_KNOCK_ROUNDS_H
