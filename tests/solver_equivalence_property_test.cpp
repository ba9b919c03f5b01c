// Property-based equivalence of the PR's two new solvers against the
// established references, over randomized instance corpora:
//
//  * core's exact scheduler (the transportation simplex) vs opt::solve_exact
//    (min-cost max-flow, an independently-derived algorithm) — equal welfare
//    on every instance, feasible primal, feasible duals, and a ~zero duality
//    gap as the optimality certificate. The corpus leans on degenerate
//    shapes: 1–64 uploaders, zero-capacity uploaders, empty candidate rows,
//    duplicate (request, uploader) edges.
//  * parallel (Jacobi) auction vs the Theorem 1 obligations — feasibility,
//    welfare within (#assigned)·ε of exact, dual feasibility and full
//    ε-complementary slackness at termination (unscaled), and bit-identical
//    schedules/prices/counters across thread counts.
//  * ε-scaling ladders (serial and parallel) — at EVERY phase boundary the
//    recorded snapshot satisfies the in-phase ε-CS invariants: assigned
//    requests hold a margin within ε of their best and ≥ −ε, exhausted
//    requests have no positive margin left, and any price above its phase-
//    initial value certifies a saturated uploader.
//  * the profitable-candidate contract — stripping every candidate with
//    v − w < 0 leaves both auctions' outcomes bit-identical (the emulator
//    builds their rounds that way), while simple-locality's schedule moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "baseline/simple_locality.h"
#include "core/auction.h"
#include "core/exact.h"
#include "core/parallel_auction.h"
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

TEST(parallel_auction_properties, final_state_satisfies_epsilon_cs) {
    const double epsilon = 1e-3;
    exact_scheduler exact;
    for (int family = 0; family < 4; ++family) {
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            auto params = family_params(family);
            params.seed = seed * 977 + 13;
            auto problem = workload::make_uniform_instance(params);

            // Unscaled: the strict Theorem 1 obligations apply verbatim.
            parallel_auction_solver solver({.bidding = {bid_policy::epsilon, epsilon},
                                            .epsilon_scaling = false,
                                            .adaptive_scaling = false});
            auto result = solver.run(problem);
            ASSERT_TRUE(result.converged);
            EXPECT_TRUE(schedule_feasible(problem, result.sched));

            auto best = exact.run(problem);
            auto stats = compute_stats(problem, result.sched);
            EXPECT_LE(stats.welfare, best.welfare + tol);
            EXPECT_GE(stats.welfare,
                      best.welfare - static_cast<double>(stats.assigned) * epsilon -
                          tol)
                << "Jacobi ε-auction must stay within n·ε of optimal";

            auto instance = problem.to_transportation();
            EXPECT_TRUE(
                opt::dual_feasible(instance, result.prices, result.request_utility));

            opt::transportation_solution as_solution;
            as_solution.sink_price = result.prices;
            as_solution.source_utility = result.request_utility;
            as_solution.edge_of_source.assign(problem.num_requests(), opt::unassigned);
            auto origins = problem.edge_origins();
            for (std::size_t e = 0; e < origins.size(); ++e) {
                auto [r, cand] = origins[e];
                if (result.sched.choice[r] == static_cast<std::ptrdiff_t>(cand))
                    as_solution.edge_of_source[r] = static_cast<std::ptrdiff_t>(e);
            }
            auto violations = opt::complementary_slackness_violations(
                instance, as_solution, epsilon);
            EXPECT_TRUE(violations.empty()) << violations.front();
        }
    }
}

// The determinism contract: schedules, prices and every diagnostic counter
// are identical at any thread count. grain = 1 forces the pool path to split
// even tiny instances, so 2/4 threads genuinely race the merge.
TEST(parallel_auction_properties, bit_identical_across_thread_counts) {
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        auto problem = make_degenerate_instance(seed * 2654435761ull + 101);

        std::vector<auction_result> results;
        for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            parallel_auction_solver solver({.bidding = {bid_policy::epsilon, 1e-3},
                                            .num_threads = threads,
                                            .grain = 1});
            results.push_back(solver.run(problem));
        }
        for (std::size_t i = 1; i < results.size(); ++i) {
            EXPECT_EQ(results[i].sched.choice, results[0].sched.choice)
                << "seed " << seed << " threads run " << i;
            ASSERT_EQ(results[i].prices.size(), results[0].prices.size());
            for (std::size_t u = 0; u < results[0].prices.size(); ++u)
                EXPECT_EQ(results[i].prices[u], results[0].prices[u])
                    << "seed " << seed << " uploader " << u;
            EXPECT_EQ(results[i].bids_submitted, results[0].bids_submitted);
            EXPECT_EQ(results[i].evictions, results[0].evictions);
            EXPECT_EQ(results[i].abstentions, results[0].abstentions);
        }
    }
}

// In-phase ε-CS invariants a snapshot must satisfy with the phase's own ε and
// the phase's initial prices (phase 0 starts cold; later phases start from
// the previous snapshot after the spare-capacity repair).
void check_phase_boundary(const problem_view& problem,
                          const auction_phase_snapshot& snap,
                          const std::vector<double>& initial_prices) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();
    schedule sched;
    sched.choice = snap.choice;
    ASSERT_TRUE(schedule_feasible(problem, sched));

    std::vector<std::int64_t> used(nu, 0);
    for (std::size_t r = 0; r < nr; ++r)
        if (snap.choice[r] != no_candidate)
            ++used[problem.candidates(r)[static_cast<std::size_t>(snap.choice[r])]
                       .uploader];

    for (std::size_t r = 0; r < nr; ++r) {
        double best = -std::numeric_limits<double>::infinity();
        for (const auto& c : problem.candidates(r)) {
            if (problem.uploader(c.uploader).capacity == 0) continue;
            best = std::max(best, problem.request(r).valuation - c.cost -
                                      snap.prices[c.uploader]);
        }
        if (snap.choice[r] == no_candidate) {
            // An exhausted bidder saw every margin go negative; prices only
            // rise within a phase, so no positive margin can remain.
            EXPECT_LE(best, tol) << "request " << r;
        } else {
            const auto& c =
                problem.candidates(r)[static_cast<std::size_t>(snap.choice[r])];
            const double margin =
                problem.request(r).valuation - c.cost - snap.prices[c.uploader];
            EXPECT_GE(margin, best - snap.epsilon - tol) << "request " << r;
            EXPECT_GE(margin, -snap.epsilon - tol) << "request " << r;
        }
    }
    // A price above its phase-initial value was lifted by a full assignment
    // set, and sets never shrink within a phase.
    for (std::size_t u = 0; u < nu; ++u) {
        if (problem.uploader(u).capacity == 0) continue;
        if (snap.prices[u] > initial_prices[u] + tol) {
            EXPECT_EQ(used[u], problem.uploader(u).capacity) << "uploader " << u;
        }
    }
}

// Initial prices of phase k+1 = snapshot k's prices after the spare-capacity
// repair (mirrors the solvers' inter-phase step).
std::vector<double> repaired_prices(const problem_view& problem,
                                    const auction_phase_snapshot& snap) {
    const std::size_t nu = problem.num_uploaders();
    std::vector<std::int64_t> used(nu, 0);
    for (std::size_t r = 0; r < problem.num_requests(); ++r)
        if (snap.choice[r] != no_candidate)
            ++used[problem.candidates(r)[static_cast<std::size_t>(snap.choice[r])]
                       .uploader];
    std::vector<double> prices = snap.prices;
    for (std::size_t u = 0; u < nu; ++u)
        if (used[u] < problem.uploader(u).capacity) prices[u] = 0.0;
    return prices;
}

template <typename Solver>
void run_boundary_property(Solver& solver) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        auto params = family_params(1);  // scarce supply forces a real ladder
        params.seed = seed * 131 + 7;
        auto problem = workload::make_uniform_instance(params);
        auto result = solver.run(problem);
        ASSERT_GE(result.phase_trace.size(), 2u)
            << "ladder must actually descend on a contended instance";
        EXPECT_EQ(result.phase_trace.back().choice, result.sched.choice);

        std::vector<double> initial(problem.num_uploaders(), 0.0);
        for (std::size_t k = 0; k < result.phase_trace.size(); ++k) {
            check_phase_boundary(problem, result.phase_trace[k], initial);
            initial = repaired_prices(problem, result.phase_trace[k]);
        }
    }
}

TEST(epsilon_scaling_properties, serial_phase_boundaries_satisfy_epsilon_cs) {
    auction_solver solver({.bidding = {bid_policy::epsilon, 1e-3},
                           .epsilon_scaling = true,
                           .scaling_initial_epsilon = 2.0,
                           .scaling_factor = 4.0,
                           .record_phase_trace = true});
    run_boundary_property(solver);
}

TEST(epsilon_scaling_properties, parallel_phase_boundaries_satisfy_epsilon_cs) {
    parallel_auction_solver solver({.bidding = {bid_policy::epsilon, 1e-3},
                                    .epsilon_scaling = true,
                                    .adaptive_scaling = false,
                                    .scaling_initial_epsilon = 2.0,
                                    .scaling_factor = 4.0,
                                    .record_phase_trace = true,
                                    .num_threads = 2,
                                    .grain = 1});
    run_boundary_property(solver);
}

TEST(epsilon_scaling_properties, adaptive_ladder_tracks_contention) {
    // Supply-rich: the adaptive ladder collapses to a single target-ε phase.
    auto rich = family_params(2);
    rich.seed = 5;
    auto rich_problem = workload::make_uniform_instance(rich);
    parallel_auction_solver adaptive({.bidding = {bid_policy::epsilon, 1e-3},
                                      .record_phase_trace = true});
    auto rich_result = adaptive.run(rich_problem);
    EXPECT_EQ(rich_result.phase_trace.size(), 1u);
    EXPECT_DOUBLE_EQ(rich_result.phase_trace[0].epsilon, 1e-3);

    // Scarce: the ladder opens near max(v−w)/factor and descends.
    auto scarce = family_params(1);
    scarce.seed = 5;
    auto scarce_problem = workload::make_uniform_instance(scarce);
    auto scarce_result = adaptive.run(scarce_problem);
    EXPECT_GE(scarce_result.phase_trace.size(), 2u);
    EXPECT_GT(scarce_result.phase_trace.front().epsilon, 1e-3);
}

// The emulator builds the auctions' rounds from profitable candidates only
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
    EXPECT_EQ(a.phases_run, b.phases_run) << what;
}

// Non-negative dyadic warm-start prices (k/8, up to 2), one per uploader.
std::vector<double> warm_prices(std::size_t nu, std::uint64_t seed) {
    sim::rng_stream rng(seed);
    std::vector<double> prices(nu);
    for (double& p : prices) p = static_cast<double>(rng.uniform_int(0, 16)) / 8.0;
    return prices;
}

// A candidate with v − w < 0 has margin (v − w) − λ < 0 for every λ ≥ 0, so
// it never wins a bid, and the outside option already floors φ̂ at 0; the
// other candidates keep their order, so the strict-> tie-breaks pick the
// same uploader. Both auctions must therefore produce the same uploaders,
// bit-identical prices and the same counters, cold and warm-started.
TEST(profitable_candidates, stripping_unprofitable_candidates_keeps_auctions_identical) {
    const std::vector<std::pair<std::string, auction_options>> serial = {
        {"epsilon", {.bidding = {bid_policy::epsilon, 0.05}}},
        {"epsilon-adaptive",
         {.bidding = {bid_policy::epsilon, 0.05},
          .epsilon_scaling = true,
          .adaptive_scaling = true}},
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
        const auto warm = warm_prices(problem.num_uploaders(), seed + 1);

        for (const auto& [name, options] : serial) {
            for (const bool warm_start : {false, true}) {
                auction_solver on_full(options);
                auction_solver on_stripped(options);
                const auto a = warm_start ? on_full.run(problem, warm)
                                          : on_full.run(problem);
                const auto b = warm_start ? on_stripped.run(stripped, warm)
                                          : on_stripped.run(stripped);
                expect_same_outcome(problem, a, stripped, b,
                                    "auction " + name + (warm_start ? " warm" : " cold") +
                                        " seed " + std::to_string(seed));
            }
        }
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            for (const bool warm_start : {false, true}) {
                const parallel_auction_options options{
                    .bidding = {bid_policy::epsilon, 0.05},
                    .epsilon_scaling = true,
                    .adaptive_scaling = true,
                    .num_threads = threads,
                    .grain = 1};
                parallel_auction_solver on_full(options);
                parallel_auction_solver on_stripped(options);
                const auto a = warm_start ? on_full.run(problem, warm)
                                          : on_full.run(problem);
                const auto b = warm_start ? on_stripped.run(stripped, warm)
                                          : on_stripped.run(stripped);
                expect_same_outcome(problem, a, stripped, b,
                                    "auction-par t" + std::to_string(threads) +
                                        (warm_start ? " warm" : " cold") + " seed " +
                                        std::to_string(seed));
            }
        }
    }
    EXPECT_GT(stripped_candidates, 0u) << "the corpus must hold unprofitable candidates";
    EXPECT_GT(emptied_rows, 0u) << "the corpus must empty some rows entirely";
}

// Negative control: simple-locality knocks at the cheapest candidate whatever
// its margin, so stripping changes its schedule — which is why the emulator
// keeps full lists for every scheduler but the two auctions.
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
