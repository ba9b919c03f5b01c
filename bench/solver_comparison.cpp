// Ablation table: welfare of every registered scheduler relative to the
// exact optimum, across four ISP-structured instance families. Also sweeps
// the locality baseline's retry budget — the knob behind "as much as
// possible".
//
// Schedulers are resolved by name through the built-in registry
// (baseline/registry.h): registering a new algorithm adds a column here with
// no bench edits. Expected ordering per row: exact >= auction >= greedy >>
// locality, with the auction within n·ε of exact.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"

#include "baseline/registry.h"
#include "baseline/simple_locality.h"
#include "core/scheduler_registry.h"
#include "core/welfare.h"
#include "metrics/report.h"
#include "workload/instance_gen.h"

int main() {
    using namespace p2pcd;

    constexpr std::uint64_t seeds_per_family = 5;
    const auto& registry = baseline::builtin_schedulers();
    const auto names = registry.names();

    std::cout << "=== Scheduler welfare relative to the exact optimum ===\n"
              << "(mean over " << seeds_per_family
              << " seeds per family; ISP-structured instances)\n\n";

    struct family {
        const char* name;
        workload::isp_instance_params params;
    };
    std::vector<family> families = {
        {"balanced", {.num_isps = 5, .peers_per_isp = 12, .requests_per_peer = 6,
                      .candidates_per_request = 6, .capacity_min = 3,
                      .capacity_max = 10}},
        {"scarce", {.num_isps = 5, .peers_per_isp = 12, .requests_per_peer = 8,
                    .candidates_per_request = 5, .capacity_min = 1,
                    .capacity_max = 3}},
        {"cheap-isp", {.num_isps = 3, .peers_per_isp = 20, .requests_per_peer = 5,
                       .candidates_per_request = 8, .capacity_min = 2,
                       .capacity_max = 6, .inter_cost_mean = 2.0}},
        {"hostile-isp", {.num_isps = 8, .peers_per_isp = 8, .requests_per_peer = 6,
                         .candidates_per_request = 6, .capacity_min = 2,
                         .capacity_max = 6, .inter_cost_mean = 8.0}},
    };

    core::scheduler_params solver_params;
    solver_params.auction = {.bidding = {core::bid_policy::epsilon, 1e-3}};

    std::vector<std::string> columns = {"family"};
    columns.insert(columns.end(), names.begin(), names.end());
    metrics::table t(columns);
    for (const auto& f : families) {
        // One long-lived scheduler per name: workspaces persist across the
        // family's seeds (the deployment pattern the emulator uses).
        std::vector<std::unique_ptr<core::scheduler>> solvers;
        for (const auto& name : names) solvers.push_back(registry.make(name, solver_params));

        std::vector<double> welfare_sum(names.size(), 0.0);
        std::vector<std::size_t> assigned_sum(names.size(), 0);
        for (std::uint64_t seed = 1; seed <= seeds_per_family; ++seed) {
            auto params = f.params;
            params.seed = seed;
            auto inst = workload::make_isp_instance(params);
            for (std::size_t i = 0; i < solvers.size(); ++i) {
                solvers[i]->reseed(seed);
                auto stats =
                    core::compute_stats(inst.problem, solvers[i]->solve(inst.problem));
                welfare_sum[i] += stats.welfare;
                assigned_sum[i] += stats.assigned;
            }
        }
        // Every registered scheduler must actually serve requests on every
        // family, or its welfare column is a vacuous comparison.
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (assigned_sum[i] == 0) {
                std::cerr << "coverage failure: scheduler '" << names[i]
                          << "' assigned 0 requests across the '" << f.name
                          << "' family\n";
                return 1;
            }
        }
        std::vector<std::string> row = {f.name};
        for (double sum : welfare_sum)
            row.push_back(metrics::format_double(
                sum / static_cast<double>(seeds_per_family), 1));
        t.add_row(row);
    }
    t.print(std::cout);

    std::cout << "\n=== Locality retry-budget sweep (balanced family, welfare) ===\n";
    metrics::table rt({"max_rounds", "locality_welfare", "assigned"});
    for (std::size_t rounds : {1u, 2u, 3u, 5u, 10u, 30u}) {
        double welfare = 0.0;
        double assigned = 0.0;
        core::scheduler_params sweep_params;
        sweep_params.locality_max_rounds = rounds;
        auto locality = registry.make("simple-locality", sweep_params);
        for (std::uint64_t seed = 1; seed <= seeds_per_family; ++seed) {
            auto params = families[0].params;
            params.seed = seed;
            auto inst = workload::make_isp_instance(params);
            auto stats = core::compute_stats(inst.problem, locality->solve(inst.problem));
            welfare += stats.welfare;
            assigned += static_cast<double>(stats.assigned);
        }
        rt.add_row({std::to_string(rounds), metrics::format_double(welfare / static_cast<double>(seeds_per_family), 1),
                    metrics::format_double(assigned / static_cast<double>(seeds_per_family), 1)});
    }
    rt.print(std::cout);
    std::cout << "\nmore retries serve more requests but chase costlier and even "
                 "negative-utility links — welfare is not monotone in rounds.\n";

    metrics::json_report rep("solver_comparison");
    rep.add_scalar("seeds_per_family", static_cast<double>(seeds_per_family));
    rep.add_table("welfare_by_family", t);
    rep.add_table("locality_retry_sweep", rt);
    bench::write_artifact("solver_comparison", rep);
    return 0;
}
