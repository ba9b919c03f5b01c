// Solve throughput and peak RSS vs. problem size, for every scheduler in the
// built-in registry — the bench behind the CSR/workspace refactor's headline
// number (see docs/REPRODUCING.md for the recorded before/after reference).
//
// Problem sizes are derived from the named scenarios in the scenario
// registry: each selected scenario's population (initial peers, or expected
// Poisson arrivals over the horizon) and ISP count shape an ISP-structured
// instance of the per-round scheduling problem, which every registered
// scheduler then solves repeatedly with long-lived workspaces — the emulator's
// deployment pattern. The exact scheduler (a network simplex) runs on every
// row, so each scenario's welfare column has its optimum to compare against.
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

#include "baseline/registry.h"
#include "core/scheduler_registry.h"
#include "core/welfare.h"
#include "metrics/process_stats.h"
#include "metrics/report.h"
#include "workload/instance_gen.h"
#include "workload/scenario_registry.h"

namespace {

using namespace p2pcd;

// Expected population of a named scenario (static peers + Poisson arrivals
// over the horizon — the shared definition in workload::scenario_config).
std::size_t scenario_population(const workload::scenario_config& cfg) {
    return static_cast<std::size_t>(cfg.expected_viewers());
}

}  // namespace

int main() {
    const bool full = bench::full_scale();

    const auto& schedulers = baseline::builtin_schedulers();
    const auto& scenarios = workload::builtin_scenarios();
    const std::vector<std::string> scenario_names = {"paper_static_500", "metro_5k",
                                                     "flash_crowd_10k", "metro_20k"};

    std::cout << "=== Scheduler scaling: solve throughput & peak RSS vs size ===\n"
              << "scale: " << (full ? "full" : "ci (smoke)") << "  seed: "
              << bench::bench_seed() << "  schedulers:";
    for (const auto& name : schedulers.names()) std::cout << ' ' << name;
    std::cout << "\n\n";

    metrics::table t({"scenario", "peers", "requests", "candidates", "scheduler",
                      "reps", "solves_per_s", "ms_per_solve", "welfare",
                      "peak_rss_mb"});
    metrics::json_report rep("scheduler_scaling");
    rep.add_scalar("scale", full ? "full" : "ci");
    rep.add_scalar("seed", static_cast<double>(bench::bench_seed()));
    double auction_20k_rate = 0.0;

    for (const auto& scenario_name : scenario_names) {
        const auto cfg = scenarios.make(scenario_name);
        std::size_t peers = scenario_population(cfg);
        if (!full) peers = std::max<std::size_t>(20, peers / 20);  // smoke sizes

        // One bidding round's problem, shaped like the scenario: ~2 open
        // chunks per viewer, 8 caching neighbors each, per-round capacities
        // of a few chunks.
        workload::isp_instance_params params;
        params.num_isps = cfg.num_isps;
        params.peers_per_isp = std::max<std::size_t>(1, peers / cfg.num_isps);
        params.requests_per_peer = 2;
        params.candidates_per_request = 8;
        params.capacity_min = 2;
        params.capacity_max = 6;
        params.seed = bench::bench_seed();
        auto inst = workload::make_isp_instance(params);
        const std::size_t total_peers = params.num_isps * params.peers_per_isp;

        // Per-cell budget: enough reps for a stable rate, bounded wall time.
        const double budget_seconds = full ? 2.0 : 0.2;

        // The registry is enumerated dynamically — registering a scheduler
        // adds its rows here with no bench edits.
        for (const auto& name : schedulers.names()) {
            core::scheduler_params sp;
            sp.seed = bench::bench_seed();
            auto solver = schedulers.make(name, sp);

            // Warm-up solve (first-touch allocations land here, the steady
            // state is what the emulator sees round after round).
            using clock = std::chrono::steady_clock;
            auto warmup_start = clock::now();
            solver->reseed(sp.seed);  // keeps seeded schedulers' welfare
                                      // independent of the rep count
            core::schedule last = solver->solve(inst.problem);
            double est_seconds = std::max(
                1e-7, std::chrono::duration<double>(clock::now() - warmup_start).count());

            // Best-of-batches (timeit-style): the budget is split into ~6
            // timed batches and the fastest batch is reported, which filters
            // out co-tenant load spikes that a single long average absorbs.
            constexpr int kBatches = 6;
            const auto batch_reps = static_cast<std::size_t>(std::max(
                1.0, budget_seconds / kBatches / est_seconds));
            std::size_t reps = 0;
            double best_rate = 0.0;
            double elapsed = 0.0;
            for (int batch = 0; batch < kBatches; ++batch) {
                auto t0 = clock::now();
                for (std::size_t i = 0; i < batch_reps; ++i) {
                    solver->reseed(sp.seed);
                    last = solver->solve(inst.problem);
                }
                double batch_seconds =
                    std::chrono::duration<double>(clock::now() - t0).count();
                reps += batch_reps;
                elapsed += batch_seconds;
                best_rate = std::max(
                    best_rate, static_cast<double>(batch_reps) / batch_seconds);
                if (elapsed > 2.0 * budget_seconds) break;  // overloaded box
            }
            double solves_per_s = best_rate;
            const auto stats = core::compute_stats(inst.problem, last);
            // A scheduler that assigns nothing is being benchmarked on a
            // vacuous instance (or silently broke) — fail loudly rather than
            // report a meaningless throughput number.
            if (stats.assigned == 0) {
                std::cerr << "coverage failure: scheduler '" << name
                          << "' assigned 0 of " << inst.problem.num_requests()
                          << " requests on " << scenario_name << '\n';
                return 1;
            }
            double welfare = stats.welfare;
            double rss = metrics::peak_rss_mb();

            t.add_row({scenario_name, std::to_string(total_peers),
                       std::to_string(inst.problem.num_requests()),
                       std::to_string(inst.problem.num_candidates()), name,
                       std::to_string(reps),
                       metrics::format_double(solves_per_s, 2),
                       metrics::format_double(1000.0 / solves_per_s, 3),
                       metrics::format_double(welfare, 1),
                       metrics::format_double(rss, 1)});

            if (scenario_name == "metro_5k" && name == "auction")
                rep.add_scalar("auction_metro_5k_solves_per_s", solves_per_s);
            if (scenario_name == "metro_20k" && name == "auction")
                auction_20k_rate = solves_per_s;
            // "exact" is the transportation simplex; the key keeps the
            // algorithm's name.
            if (scenario_name == "metro_20k" && name == "exact")
                rep.add_scalar("simplex_metro_20k_solves_per_s", solves_per_s);
        }
    }
    t.print(std::cout);

    rep.add_scalar("auction_metro_20k_solves_per_s", auction_20k_rate);
    rep.add_scalar("hardware_concurrency",
                   static_cast<double>(std::thread::hardware_concurrency()));

    // Reference measured at the parent commit (pre-CSR scheduling core) on
    // the same container and instance shape (5000 peers / 20 ISPs / 10000
    // requests / 80000 candidates, seed 7): 606.8 auction solves/s. The
    // acceptance bar for the refactor is ≥ 2x this on the full-scale run.
    rep.add_scalar("pre_refactor_auction_metro_5k_solves_per_s_reference", 606.8);

    rep.add_table("throughput", t);
    bench::write_artifact("scheduler_scaling", rep);
    std::cout << "\npeak_rss_mb is the process high-water mark after the cell "
                 "finished (monotone across rows).\n";
    return 0;
}
