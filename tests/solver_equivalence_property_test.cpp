// Property-based checks of the exact scheduler and the auction against
// established references, over randomized instance corpora:
//
//  * core's exact scheduler (the transportation simplex) vs opt::solve_exact
//    (min-cost max-flow, an independently-derived algorithm) — equal welfare
//    on every instance, feasible primal, feasible duals, and a ~zero duality
//    gap as the optimality certificate. The corpus leans on degenerate
//    shapes: 1–64 uploaders, zero-capacity uploaders, empty candidate rows,
//    duplicate (request, uploader) edges.
//  * the profitable-candidate contract — stripping every candidate with
//    v − w < 0 leaves the auction's outcome bit-identical (the emulator
//    builds its rounds that way), while simple-locality's schedule moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/simple_locality.h"
#include "core/auction.h"
#include "core/exact.h"
#include "core/welfare.h"
#include "opt/duality.h"
#include "opt/transportation.h"
#include "sim/rng.h"
#include "workload/instance_gen.h"

namespace p2pcd::core {
namespace {

constexpr double tol = 1e-9;

// Random CSR instance with deliberately nasty shapes. Values are dyadic
// (k/8), so welfare sums are exact in doubles and "equal welfare" needs no
// tolerance juggling beyond rounding noise in the duals.
scheduling_problem make_degenerate_instance(std::uint64_t seed) {
    sim::rng_stream rng(seed);
    scheduling_problem problem;
    const auto nu = static_cast<std::size_t>(rng.uniform_int(1, 64));
    const auto nr = static_cast<std::size_t>(rng.uniform_int(0, 80));
    for (std::size_t u = 0; u < nu; ++u) {
        const std::int32_t capacity =
            rng.uniform_int(0, 3) == 0 ? 0
                                       : static_cast<std::int32_t>(rng.uniform_int(1, 4));
        problem.add_uploader(peer_id(static_cast<std::int32_t>(u)), capacity);
    }
    for (std::size_t r = 0; r < nr; ++r) {
        problem.add_request(peer_id(static_cast<std::int32_t>(nu + r)),
                            chunk_id(static_cast<std::int64_t>(r)),
                            static_cast<double>(rng.uniform_int(0, 64)) / 8.0);
        // 0 candidates = an empty row; duplicate uploaders are allowed and
        // exercised on purpose.
        const auto n_cands = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(std::min<std::size_t>(nu, 6))));
        for (std::size_t c = 0; c < n_cands; ++c)
            problem.append_candidate(
                static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(nu) - 1)),
                static_cast<double>(rng.uniform_int(0, 64)) / 8.0);
    }
    return problem;
}

// The same instance families auction_property_test stresses (dense, scarce,
// abundant, negative-heavy).
workload::uniform_instance_params family_params(int index) {
    switch (index) {
        case 0:
            return {.num_requests = 12,
                    .num_uploaders = 4,
                    .candidates_per_request = 4,
                    .capacity_min = 1,
                    .capacity_max = 3};
        case 1:
            return {.num_requests = 40,
                    .num_uploaders = 5,
                    .candidates_per_request = 3,
                    .capacity_min = 0,
                    .capacity_max = 2};
        case 2:
            return {.num_requests = 30,
                    .num_uploaders = 15,
                    .candidates_per_request = 6,
                    .capacity_min = 3,
                    .capacity_max = 8};
        default:
            return {.num_requests = 25,
                    .num_uploaders = 8,
                    .candidates_per_request = 4,
                    .valuation_min = 0.5,
                    .valuation_max = 3.0,
                    .cost_min = 0.0,
                    .cost_max = 9.0};
    }
}

// `exact` (network simplex) is held against opt::solve_exact (min-cost
// flow) on the same instance: two algorithms, one optimum.
TEST(solver_equivalence, simplex_matches_exact_on_degenerate_corpus) {
    exact_scheduler exact;
    std::size_t nontrivial = 0;
    for (std::uint64_t seed = 0; seed < 220; ++seed) {
        auto problem = make_degenerate_instance(seed * 1315423911ull + 17);
        auto instance = problem.to_transportation();
        auto best = opt::solve_exact(instance);
        auto got = exact.run(problem);
        ASSERT_TRUE(schedule_feasible(problem, got.sched)) << "seed " << seed;
        EXPECT_NEAR(got.welfare, best.welfare, tol) << "seed " << seed;
        auto stats = compute_stats(problem, got.sched);
        EXPECT_NEAR(stats.welfare, got.welfare, tol) << "seed " << seed;
        EXPECT_TRUE(opt::dual_feasible(instance, got.prices, got.request_utility))
            << "seed " << seed;
        nontrivial += best.welfare > 0.0;
    }
    EXPECT_GE(nontrivial, 100u) << "corpus must exercise non-trivial instances";
}

TEST(solver_equivalence, simplex_certifies_optimality_via_zero_duality_gap) {
    for (int family = 0; family < 4; ++family) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
            auto params = family_params(family);
            params.seed = seed * 53 + 11;
            auto instance =
                workload::make_uniform_instance(params).to_transportation();
            auto sol = opt::solve_transportation_simplex(instance);
            EXPECT_TRUE(opt::primal_feasible(instance, sol.edge_of_source));
            EXPECT_NEAR(opt::welfare_of(instance, sol.edge_of_source), sol.welfare,
                        tol);
            EXPECT_TRUE(
                opt::dual_feasible(instance, sol.sink_price, sol.source_utility));
            // Matching primal and dual objectives certify both optimal.
            EXPECT_LE(opt::duality_gap(instance, sol), 1e-6);
        }
    }
}

TEST(solver_equivalence, simplex_handles_corner_instances) {
    {  // no requests at all
        scheduling_problem problem;
        problem.add_uploader(peer_id(0), 3);
        exact_scheduler exact;
        auto got = exact.run(problem);
        EXPECT_DOUBLE_EQ(got.welfare, 0.0);
        EXPECT_TRUE(got.sched.choice.empty());
    }
    {  // all capacity zero: nothing can be served, duals still feasible
        scheduling_problem problem;
        problem.add_uploader(peer_id(0), 0);
        problem.add_request(peer_id(1), chunk_id(0), 5.0);
        problem.append_candidate(0, 1.0);
        exact_scheduler exact;
        auto got = exact.run(problem);
        EXPECT_DOUBLE_EQ(got.welfare, 0.0);
        EXPECT_EQ(got.sched.choice[0], no_candidate);
        EXPECT_TRUE(opt::dual_feasible(problem.to_transportation(), got.prices,
                                       got.request_utility));
    }
    {  // one uploader contended by many: capacity binds, ties broken somehow
        scheduling_problem problem;
        problem.add_uploader(peer_id(0), 3);
        for (std::int32_t r = 0; r < 64; ++r) {
            problem.add_request(peer_id(1 + r), chunk_id(r), 4.0);
            problem.append_candidate(0, 1.0);
        }
        exact_scheduler exact;
        EXPECT_NEAR(exact.run(problem).welfare,
                    opt::solve_exact(problem.to_transportation()).welfare, tol);
    }
}

// The emulator builds the auction's rounds from profitable candidates only
// (w ≤ v). This strips every candidate with v − w < 0 from an instance,
// keeping every request row (possibly empty) and the order of the rest.
scheduling_problem strip_unprofitable(const problem_view& problem) {
    scheduling_problem out;
    for (const auto& u : problem.all_uploaders()) out.add_uploader(u.who, u.capacity);
    for (std::size_t r = 0; r < problem.num_requests(); ++r) {
        const request_info& req = problem.request(r);
        out.add_request(req.downstream, req.chunk, req.valuation);
        for (const auto& c : problem.candidates(r))
            if (!(req.valuation - c.cost < 0.0)) out.append_candidate(c.uploader, c.cost);
    }
    return out;
}

// Per request: the chosen uploader's index, or −1 — comparable across an
// instance and its stripped copy, whose candidate ordinals differ.
std::vector<std::ptrdiff_t> chosen_uploaders(const problem_view& problem,
                                             const schedule& sched) {
    std::vector<std::ptrdiff_t> out(problem.num_requests(), -1);
    for (std::size_t r = 0; r < problem.num_requests(); ++r)
        if (sched.assigned(r))
            out[r] = static_cast<std::ptrdiff_t>(
                problem.candidates(r)[static_cast<std::size_t>(sched.choice[r])]
                    .uploader);
    return out;
}

void expect_same_outcome(const problem_view& full, const auction_result& a,
                         const problem_view& stripped, const auction_result& b,
                         const std::string& what) {
    EXPECT_EQ(chosen_uploaders(full, a.sched), chosen_uploaders(stripped, b.sched))
        << what;
    ASSERT_EQ(a.prices.size(), b.prices.size()) << what;
    for (std::size_t u = 0; u < a.prices.size(); ++u)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.prices[u]),
                  std::bit_cast<std::uint64_t>(b.prices[u]))
            << what << " uploader " << u;
    EXPECT_EQ(a.bids_submitted, b.bids_submitted) << what;
}

// A candidate with v − w < 0 has margin (v − w) − λ < 0 for every λ ≥ 0, so
// it never wins a bid, and the outside option already floors φ̂ at 0; the
// other candidates keep their order, so the strict-> tie-breaks pick the
// same uploader. The auction must therefore produce the same uploaders,
// bit-identical prices and the same counters, under either bid policy.
TEST(profitable_candidates, stripping_unprofitable_candidates_keeps_auctions_identical) {
    const std::vector<std::pair<std::string, auction_options>> policies = {
        {"epsilon", {.bidding = {bid_policy::epsilon, 0.05}}},
        {"paper-literal", {.bidding = {bid_policy::paper_literal, 0.0}}},
    };
    std::size_t stripped_candidates = 0;
    std::size_t emptied_rows = 0;
    for (std::uint64_t seed = 0; seed < 120; ++seed) {
        const auto problem = make_degenerate_instance(seed * 0x9e3779b97f4a7c15ull + 3);
        const auto stripped = strip_unprofitable(problem);
        ASSERT_EQ(stripped.num_requests(), problem.num_requests());
        stripped_candidates += problem.num_candidates() - stripped.num_candidates();
        for (std::size_t r = 0; r < problem.num_requests(); ++r)
            emptied_rows += !problem.candidates(r).empty() &&
                            stripped.candidates(r).empty();

        for (const auto& [name, options] : policies) {
            auction_solver on_full(options);
            auction_solver on_stripped(options);
            expect_same_outcome(problem, on_full.run(problem), stripped,
                                on_stripped.run(stripped),
                                "auction " + name + " seed " + std::to_string(seed));
        }
    }
    EXPECT_GT(stripped_candidates, 0u) << "the corpus must hold unprofitable candidates";
    EXPECT_GT(emptied_rows, 0u) << "the corpus must empty some rows entirely";
}

// Negative control: simple-locality knocks at the cheapest candidate whatever
// its margin, so stripping changes its schedule — which is why the emulator
// keeps full lists for every scheduler but the auction.
TEST(profitable_candidates, stripping_changes_the_locality_schedule) {
    baseline::simple_locality_scheduler locality;
    std::size_t changed = 0;
    for (std::uint64_t seed = 0; seed < 120; ++seed) {
        const auto problem = make_degenerate_instance(seed * 0x9e3779b97f4a7c15ull + 3);
        const auto stripped = strip_unprofitable(problem);
        const auto full_choice = chosen_uploaders(problem, locality.solve(problem));
        const auto stripped_choice = chosen_uploaders(stripped, locality.solve(stripped));
        changed += full_choice != stripped_choice;
    }
    EXPECT_GT(changed, 0u);
}

}  // namespace
}  // namespace p2pcd::core
