// Ablation: auction convergence effort vs network size and policy.
//
// Reports bids, evictions and wall time per solve as the instance grows, for
// the ε policy at two ε values and the paper-literal policy (core/bidder.h) —
// quantifying what tighter optimality costs in bids and time.
#include <chrono>
#include <iostream>

#include "bench_common.h"

#include "core/auction.h"
#include "core/exact.h"
#include "core/welfare.h"
#include "metrics/report.h"
#include "workload/instance_gen.h"

int main() {
    using namespace p2pcd;

    std::cout << "=== Auction convergence vs instance size and bid policy ===\n\n";

    metrics::table t({"requests", "policy", "bids", "evictions", "welfare_ratio",
                      "solve_ms"});

    for (std::size_t n : {100u, 400u, 1600u, 6400u}) {
        workload::uniform_instance_params params;
        params.num_requests = n;
        params.num_uploaders = n / 8 + 2;
        params.candidates_per_request = 6;
        params.capacity_min = 2;
        params.capacity_max = 8;
        params.seed = 99;
        auto problem = workload::make_uniform_instance(params);

        core::exact_scheduler exact;
        double best = exact.run(problem).welfare;

        struct policy_case {
            const char* name;
            core::bidder_options bidding;
        };
        for (const auto& pc :
             {policy_case{"eps=0.1", {core::bid_policy::epsilon, 0.1}},
              policy_case{"eps=1e-3", {core::bid_policy::epsilon, 1e-3}},
              policy_case{"literal", {core::bid_policy::paper_literal, 0.0}}}) {
            core::auction_solver solver({.bidding = pc.bidding});
            auto start = std::chrono::steady_clock::now();
            auto result = solver.run(problem);
            auto elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
            auto stats = core::compute_stats(problem, result.sched);
            t.add_row({std::to_string(n), pc.name,
                       std::to_string(result.bids_submitted),
                       std::to_string(result.evictions),
                       metrics::format_double(best > 0 ? stats.welfare / best : 1.0, 4),
                       metrics::format_double(elapsed, 2)});
        }
    }
    t.print(std::cout);

    std::cout << "\nsmaller ε buys a welfare ratio closer to 1.0 with more bids; "
                 "the literal policy matches ε→0 on tie-free instances.\n";

    metrics::json_report rep("convergence_scaling");
    rep.add_table("convergence_by_size_and_policy", t);
    bench::write_artifact("convergence_scaling", rep);
    return 0;
}
