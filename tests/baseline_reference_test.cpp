// Reference-equivalence suite for the knock-round baselines. The oracles
// below are the straightforward stable-sort forms of simple-locality and
// random: a cost-sorted (or shuffled) copy of every row, and each round's
// knocks collected in per-uploader vectors and stable-sorted by valuation.
// They share one round loop here; otherwise their logic is the library's
// former implementation. On a randomized corpus the library schedulers must
// reproduce their `choice` vectors exactly. greedy-welfare is held the same
// way against its former 32-byte edge form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/greedy_welfare.h"
#include "baseline/random_scheduler.h"
#include "baseline/simple_locality.h"
#include "sim/rng.h"

namespace p2pcd::baseline {
namespace {

struct knock {
    std::size_t request;
    std::size_t candidate;
    double valuation;
};

// Shared tail of both oracles: rounds over per-request visiting orders
// (`order`, flat in CSR order), granting each uploader's knocks by a stable
// sort on valuation.
core::schedule reference_rounds(const core::problem_view& problem,
                                const std::vector<std::size_t>& order,
                                std::size_t max_rounds) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();
    core::schedule sched;
    sched.choice.assign(nr, core::no_candidate);
    std::vector<std::int64_t> remaining(nu);
    for (std::size_t u = 0; u < nu; ++u) remaining[u] = problem.uploader(u).capacity;
    std::vector<std::size_t> cursor(nr, 0);
    std::vector<std::vector<knock>> inbox(nu);
    for (std::size_t round = 0; round < max_rounds; ++round) {
        for (auto& knocks : inbox) knocks.clear();
        bool any = false;
        for (std::size_t r = 0; r < nr; ++r) {
            if (sched.choice[r] != core::no_candidate) continue;
            const auto cands = problem.candidates(r);
            if (cursor[r] >= cands.size()) continue;
            const std::size_t ci = order[problem.candidate_offset(r) + cursor[r]];
            inbox[cands[ci].uploader].push_back({r, ci, problem.request(r).valuation});
            any = true;
        }
        if (!any) break;
        for (std::size_t u = 0; u < nu; ++u) {
            auto& knocks = inbox[u];
            std::stable_sort(knocks.begin(), knocks.end(),
                             [](const knock& a, const knock& b) {
                                 return a.valuation > b.valuation;
                             });
            for (const auto& k : knocks) {
                if (remaining[u] > 0) {
                    --remaining[u];
                    sched.choice[k.request] = static_cast<std::ptrdiff_t>(k.candidate);
                } else {
                    ++cursor[k.request];
                }
            }
        }
    }
    return sched;
}

core::schedule reference_locality(const core::problem_view& problem,
                                   std::size_t max_rounds) {
    std::vector<std::size_t> by_cost(problem.num_candidates());
    for (std::size_t r = 0; r < problem.num_requests(); ++r) {
        const auto cands = problem.candidates(r);
        auto begin = by_cost.begin() + static_cast<std::ptrdiff_t>(problem.candidate_offset(r));
        auto end = begin + static_cast<std::ptrdiff_t>(cands.size());
        std::iota(begin, end, std::size_t{0});
        std::stable_sort(begin, end, [&](std::size_t a, std::size_t b) {
            return cands[a].cost < cands[b].cost;
        });
    }
    return reference_rounds(problem, by_cost, max_rounds);
}

core::schedule reference_random(const core::problem_view& problem, sim::rng_stream& rng,
                                 std::size_t max_rounds) {
    std::vector<std::size_t> order(problem.num_candidates());
    for (std::size_t r = 0; r < problem.num_requests(); ++r) {
        auto begin = order.begin() + static_cast<std::ptrdiff_t>(problem.candidate_offset(r));
        auto end = begin + static_cast<std::ptrdiff_t>(problem.candidates(r).size());
        std::iota(begin, end, std::size_t{0});
        std::shuffle(begin, end, rng.engine());
    }
    return reference_rounds(problem, order, max_rounds);
}

// greedy-welfare with its former edge layout: request, row ordinal and
// uploader as std::size_t plus the profit (32 B), stable-sorted by profit.
core::schedule reference_greedy(const core::problem_view& problem) {
    struct edge {
        std::size_t request;
        std::size_t candidate;
        std::size_t uploader;
        double profit;
    };
    std::vector<edge> edges;
    for (std::size_t r = 0; r < problem.num_requests(); ++r) {
        const auto cands = problem.candidates(r);
        const double v = problem.request(r).valuation;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            double profit = v - cands[i].cost;
            if (profit > 0.0) edges.push_back({r, i, cands[i].uploader, profit});
        }
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const edge& a, const edge& b) { return a.profit > b.profit; });
    core::schedule sched;
    sched.choice.assign(problem.num_requests(), core::no_candidate);
    std::vector<std::int64_t> remaining(problem.num_uploaders());
    for (std::size_t u = 0; u < problem.num_uploaders(); ++u)
        remaining[u] = problem.uploader(u).capacity;
    for (const auto& e : edges) {
        if (sched.choice[e.request] != core::no_candidate) continue;
        if (remaining[e.uploader] <= 0) continue;
        --remaining[e.uploader];
        sched.choice[e.request] = static_cast<std::ptrdiff_t>(e.candidate);
    }
    return sched;
}

// Instances built to stress every tie-break: costs and valuations drawn from
// a handful of values (with ±0.0 both present), zero-capacity uploaders,
// empty rows, duplicate uploaders within a row, and every few seeds a hot
// instance with a few uploaders and hundreds of requests so the over-full
// bins are large.
core::scheduling_problem make_tie_heavy_instance(std::uint64_t seed) {
    sim::rng_stream rng(seed);
    const bool hot = seed % 5 == 0;
    const auto nu = static_cast<std::size_t>(rng.uniform_int(1, hot ? 4 : 24));
    const auto nr = static_cast<std::size_t>(rng.uniform_int(0, hot ? 400 : 60));
    const auto levels = rng.uniform_int(1, 4);  // distinct values per field
    const auto level = [&](double scale) {
        const auto k = rng.uniform_int(0, levels);
        return k == 0 && rng.bernoulli(0.5) ? -0.0 : scale * static_cast<double>(k);
    };
    core::scheduling_problem problem;
    for (std::size_t u = 0; u < nu; ++u)
        problem.add_uploader(peer_id(static_cast<std::int32_t>(u)),
                             static_cast<std::int32_t>(rng.uniform_int(0, hot ? 40 : 3)));
    for (std::size_t r = 0; r < nr; ++r) {
        problem.add_request(peer_id(static_cast<std::int32_t>(nu + r)),
                            chunk_id(static_cast<std::int64_t>(r)), level(1.5));
        const auto n_cands = static_cast<std::size_t>(rng.uniform_int(0, 12));
        for (std::size_t c = 0; c < n_cands; ++c)
            problem.append_candidate(
                static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(nu) - 1)),
                level(0.25));
    }
    return problem;
}

constexpr std::size_t round_limits[] = {0, 1, 2, 3, 10};
constexpr std::uint64_t corpus_size = 600;

std::string where(std::uint64_t seed, std::size_t rounds) {
    return "seed " + std::to_string(seed) + " max_rounds " + std::to_string(rounds);
}

TEST(baseline_reference, simple_locality_matches_stable_sort_oracle) {
    std::size_t served = 0;
    std::size_t retried = 0;
    for (const std::size_t rounds : round_limits) {
        // One solver reused warm across the whole corpus ...
        simple_locality_scheduler warm({.max_rounds = rounds});
        for (std::uint64_t seed = 0; seed < corpus_size; ++seed) {
            const auto problem = make_tie_heavy_instance(seed);
            const auto expected = reference_locality(problem, rounds);
            ASSERT_EQ(warm.solve(problem).choice, expected.choice) << where(seed, rounds);
            // ... and a fresh one per instance.
            simple_locality_scheduler cold({.max_rounds = rounds});
            ASSERT_EQ(cold.solve(problem).choice, expected.choice) << where(seed, rounds);
            if (rounds != 3) continue;
            for (std::size_t r = 0; r < problem.num_requests(); ++r) {
                if (expected.choice[r] == core::no_candidate) continue;
                ++served;
                const auto cands = problem.candidates(r);
                const auto chosen = static_cast<std::size_t>(expected.choice[r]);
                for (std::size_t i = 0; i < cands.size(); ++i)
                    if (cands[i].cost < cands[chosen].cost) {
                        ++retried;
                        break;
                    }
            }
        }
    }
    EXPECT_GT(served, 1000u) << "the corpus must serve requests";
    EXPECT_GT(retried, 100u) << "the corpus must serve requests after a rejection";
}

// The warm scheduler is seeded once per round limit and never reseeded, so
// each solve's shuffles continue from the previous solve's draws: it must
// consume exactly the oracle's draws, empty and one-candidate rows included.
TEST(baseline_reference, random_matches_stable_sort_oracle) {
    for (const std::size_t rounds : round_limits) {
        random_scheduler warm(rounds + 1, rounds);
        sim::rng_stream warm_oracle(rounds + 1);
        for (std::uint64_t seed = 0; seed < corpus_size; ++seed) {
            const auto problem = make_tie_heavy_instance(seed);
            ASSERT_EQ(warm.solve(problem).choice,
                      reference_random(problem, warm_oracle, rounds).choice)
                << where(seed, rounds);
            const std::uint64_t key = seed * 0x9e3779b97f4a7c15ull + rounds;
            sim::rng_stream cold_oracle(key);
            random_scheduler cold(key, rounds);
            ASSERT_EQ(cold.solve(problem).choice,
                      reference_random(problem, cold_oracle, rounds).choice)
                << where(seed, rounds);
        }
    }
}

// Equal profits abound in this corpus, so the stable sort's tie order (CSR
// order of the edges) decides most schedules: the 16-byte edges must keep it.
TEST(baseline_reference, greedy_welfare_matches_32_byte_edge_oracle) {
    greedy_welfare_scheduler warm;
    std::size_t served = 0;
    for (std::uint64_t seed = 0; seed < corpus_size; ++seed) {
        const auto problem = make_tie_heavy_instance(seed);
        const auto expected = reference_greedy(problem);
        ASSERT_EQ(warm.solve(problem).choice, expected.choice) << "seed " << seed;
        greedy_welfare_scheduler cold;
        ASSERT_EQ(cold.solve(problem).choice, expected.choice) << "seed " << seed;
        for (const auto c : expected.choice) served += c != core::no_candidate;
    }
    EXPECT_GT(served, 1000u) << "the corpus must serve requests";
}

}  // namespace
}  // namespace p2pcd::baseline
