// Fig. 6(a,b,c) — "Comparison of social welfare, inter-ISP traffic and chunk
// miss rate under peer dynamics".
//
// Paper setup: Poisson(1/s) arrivals; peers "depart at any time with
// probability 0.6" — modelled (scenario_config::departure_probability) as:
// with probability 0.6 a peer is an early quitter that leaves at a uniformly
// random point of its session.
// All three per-slot series are reported for the auction and the locality
// baseline.
#include <iostream>

#include "bench_common.h"
#include "metrics/report.h"
#include "metrics/time_series.h"

int main() {
    using namespace p2pcd;

    auto cfg = bench::dynamic_network();
    cfg.departure_probability = 0.6;
    bench::print_header("Fig. 6", "welfare / inter-ISP / miss rate under churn", cfg);

    struct run_series {
        metrics::time_series welfare{"welfare"};
        metrics::time_series inter{"inter"};
        metrics::time_series miss{"miss"};
        std::vector<std::size_t> peers;
    };
    run_series auction;
    run_series locality;

    for (bool use_auction : {true, false}) {
        vod::emulator_options opts;
        opts.config = cfg;
        opts.scheduler = use_auction ? "auction"
                                : "simple-locality";
        vod::emulator emu(opts);
        emu.run();
        auto& out = use_auction ? auction : locality;
        for (const auto& s : emu.slots()) {
            out.welfare.record(s.time, s.social_welfare);
            out.inter.record(s.time, s.inter_isp_fraction);
            out.miss.record(s.time, s.miss_rate);
            out.peers.push_back(s.online_peers);
        }
    }

    metrics::table t({"time_s", "peers", "a_welfare", "l_welfare", "a_inter",
                      "l_inter", "a_miss", "l_miss"});
    for (std::size_t k = 0; k < auction.welfare.size(); ++k) {
        t.add_row({metrics::format_double(auction.welfare.points()[k].time, 0),
                   std::to_string(auction.peers[k]),
                   metrics::format_double(auction.welfare.points()[k].value, 1),
                   metrics::format_double(locality.welfare.points()[k].value, 1),
                   metrics::format_double(auction.inter.points()[k].value, 4),
                   metrics::format_double(locality.inter.points()[k].value, 4),
                   metrics::format_double(auction.miss.points()[k].value, 4),
                   metrics::format_double(locality.miss.points()[k].value, 4)});
    }
    t.print(std::cout);

    double h = cfg.horizon_seconds;
    bool welfare_ok = auction.welfare.mean_in_window(0.6 * h, h) >
                      locality.welfare.mean_in_window(0.6 * h, h);
    bool inter_ok = auction.inter.mean_in_window(0.0, h) <
                    locality.inter.mean_in_window(0.0, h);
    bool miss_ok = auction.miss.mean_in_window(cfg.slot_seconds, h) <=
                   locality.miss.mean_in_window(cfg.slot_seconds, h) + 0.01;
    std::cout << "\npaper shape check (Fig. 6): the auction still wins under churn —"
              << "\n  (a) welfare:   " << (welfare_ok ? "YES" : "NO")
              << "\n  (b) inter-ISP: " << (inter_ok ? "YES" : "NO")
              << "\n  (c) miss rate: " << (miss_ok ? "YES" : "NO") << "\n";

    metrics::json_report rep("fig6_peer_dynamics");
    bench::add_config_scalars(rep, cfg);
    rep.add_scalar("departure_probability", cfg.departure_probability);
    rep.add_scalar("welfare_reproduced", welfare_ok);
    rep.add_scalar("inter_isp_reproduced", inter_ok);
    rep.add_scalar("miss_rate_reproduced", miss_ok);
    rep.add_table("series_per_slot", t);
    bench::write_artifact("fig6_peer_dynamics", rep);
    return 0;
}
