#include "workload/fleet_config.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/contracts.h"
#include "sim/distributions.h"
#include "sim/rng.h"

namespace p2pcd::workload {

void fleet_config::validate() const {
    expects(!swarm_scenario.empty(), "fleet needs a base swarm scenario name");
    expects(num_swarms > 0, "fleet needs at least one swarm");
    expects(std::isfinite(popularity_alpha) && popularity_alpha > 0.0,
            "popularity_alpha must be positive and finite");
    expects(std::isfinite(popularity_q) && popularity_q >= 0.0,
            "popularity_q must be non-negative and finite");
    expects(!scheduler.empty(), "fleet needs a scheduler name");
    coupling.validate();
}

fleet_config fleet_config::metro_100x5k() {
    fleet_config config;
    config.swarm_scenario = "metro_5k";
    config.num_swarms = 100;
    config.total_peers = 500'000;
    // A head swarm of a metro-scale catalog is a few times the base scenario,
    // the tail a few hundred viewers — keep even rank 100 a real swarm.
    config.min_swarm_peers = 500;
    return config;
}

fleet_config fleet_config::metro_200x5k() {
    fleet_config config;
    config.swarm_scenario = "metro_5k";
    config.num_swarms = 200;
    config.total_peers = 1'000'000;
    // Same per-swarm floor as the 100-swarm fleet: even rank 200 stays a
    // real swarm after the Zipf split.
    config.min_swarm_peers = 500;
    return config;
}

fleet_config fleet_config::metro_20x20k() {
    fleet_config config;
    config.swarm_scenario = "metro_20k";
    config.num_swarms = 20;
    config.total_peers = 400'000;
    // Head swarms tens of thousands strong, tail still metro-sized.
    config.min_swarm_peers = 2'000;
    return config;
}

fleet_config fleet_config::flash_crowd_fleet() {
    fleet_config config;
    config.swarm_scenario = "flash_crowd_10k";
    config.num_swarms = 20;
    config.total_peers = 200'000;  // expected joins across all crowds
    config.min_swarm_peers = 200;
    return config;
}

fleet_config fleet_config::smoke() {
    fleet_config config;
    config.swarm_scenario = "small_test";
    config.num_swarms = 3;
    config.total_peers = 90;
    config.min_swarm_peers = 8;
    return config;
}

fleet_config fleet_config::economy_fleet() {
    fleet_config config;
    config.swarm_scenario = "metro_economy";
    config.num_swarms = 6;
    config.total_peers = 12'000;
    config.min_swarm_peers = 400;
    return config;
}

fleet_config fleet_config::economy_smoke_fleet() {
    fleet_config config;
    config.swarm_scenario = "economy_smoke";
    config.num_swarms = 2;
    config.total_peers = 60;
    config.min_swarm_peers = 8;
    return config;
}

fleet_config fleet_config::coupled_metro() {
    fleet_config config = economy_fleet();
    // The locality baseline actually loads the managed transit links (the
    // auction routes around them), so halved pools saturate and the coupled
    // surcharge has real traffic to push back on.
    config.scheduler = "simple-locality";
    config.coupling.enabled = true;
    config.coupling.link_capacity_scale = 0.5;
    return config;
}

fleet_config fleet_config::coupled_flash() {
    fleet_config config;
    config.swarm_scenario = "flash_economy";
    config.num_swarms = 8;
    config.total_peers = 32'000;  // expected joins across the crowds
    config.min_swarm_peers = 200;
    config.coupling.enabled = true;
    config.coupling.link_capacity_scale = 0.5;
    return config;
}

fleet_config fleet_config::coupled_smoke_fleet() {
    fleet_config config;
    config.swarm_scenario = "coupled_smoke";
    config.num_swarms = 2;
    config.total_peers = 120;
    config.min_swarm_peers = 8;
    config.coupling.enabled = true;
    // Quartered pools (2 chunks/slot per managed pair): both swarms saturate
    // the tier-1 links within a slot or two, so deferrals are guaranteed.
    config.coupling.link_capacity_scale = 0.25;
    return config;
}

std::uint64_t swarm_seed(std::uint64_t fleet_seed, std::size_t swarm_index) {
    return sim::rng_factory(fleet_seed)
        .derived_seed("fleet/swarm/" + std::to_string(swarm_index));
}

fleet_config fleet_config::with_swarms(std::size_t swarms) const {
    expects(swarms > 0, "fleet needs at least one swarm");
    fleet_config scaled = *this;
    // Keep the per-swarm scale: the fleet-wide viewer target shrinks (or
    // grows) with the swarm count.
    if (scaled.total_peers > 0)
        scaled.total_peers =
            std::max<std::size_t>(1, scaled.total_peers * swarms / scaled.num_swarms);
    scaled.num_swarms = swarms;
    return scaled;
}

std::vector<swarm_spec> expand_fleet(const fleet_config& fleet,
                                     const scenario_config& base) {
    fleet.validate();
    base.validate();
    expects(fleet.total_peers == 0 || base.expected_viewers() > 0.0,
            "population scaling needs a base scenario with viewers");
    // The uplink broker floors each swarm's share of a seeder's shared budget
    // to an int32 capacity, so the budget itself must fit one. This is the
    // product engine::fleet hands the broker, in the same order.
    const capacity::coupling_config& coupling = fleet.coupling;
    if (coupling.enabled && coupling.share_seed_uplinks) {
        const double seed_budget = base.seed_upload_multiple *
                                   static_cast<double>(base.chunks_per_slot()) *
                                   coupling.uplink_budget_multiple;
        expects(seed_budget < 2147483648.0,  // 2^31
                "uplink_budget_multiple * seed_upload_multiple * chunks_per_slot "
                "must fit an int32 upload capacity");
    }

    const sim::zipf_mandelbrot popularity(fleet.num_swarms, fleet.popularity_alpha,
                                          fleet.popularity_q);
    std::vector<swarm_spec> swarms;
    swarms.reserve(fleet.num_swarms);
    for (std::size_t i = 0; i < fleet.num_swarms; ++i) {
        swarm_spec spec;
        spec.swarm_index = i;
        spec.popularity = popularity.pmf(i + 1);
        spec.config = base;
        spec.config.master_seed = swarm_seed(fleet.fleet_seed, i);
        if (fleet.total_peers > 0) {
            const double target = std::max(
                static_cast<double>(fleet.min_swarm_peers),
                std::round(spec.popularity * static_cast<double>(fleet.total_peers)));
            // Scale against the full expected population (static + arrivals)
            // so a mixed base scenario keeps its swarm at the Zipf share.
            const double scale = target / base.expected_viewers();
            if (spec.config.initial_peers > 0)
                spec.config.initial_peers = static_cast<std::size_t>(
                    std::max(1.0, std::round(
                                      static_cast<double>(spec.config.initial_peers) *
                                      scale)));
            spec.config.arrival_rate *= scale;
        }
        spec.config.validate();
        swarms.push_back(std::move(spec));
    }
    return swarms;
}

std::vector<swarm_spec> expand_fleet(const fleet_config& fleet,
                                     const scenario_registry& scenarios) {
    fleet.validate();
    return expand_fleet(fleet, scenarios.make(fleet.swarm_scenario));
}

const fleet_registry& builtin_fleets() {
    static const fleet_registry registry = [] {
        fleet_registry r;
        r.add("fleet_metro_100x5k",
              "100 metro swarms, 500 000 viewers total (bench/fleet_scaling)",
              [] { return fleet_config::metro_100x5k(); });
        r.add("fleet_metro_200x5k",
              "200 metro swarms, 1 000 000 viewers total (the single-process "
              "memory headline)",
              [] { return fleet_config::metro_200x5k(); });
        r.add("fleet_metro_20x20k",
              "20 dense-metro swarms of the metro_20k scenario, 400 000 "
              "viewers total (slot-pipeline scale)",
              [] { return fleet_config::metro_20x20k(); });
        r.add("fleet_flash_crowd",
              "20 flash-crowd swarms, ~200 000 arrival-driven joins total",
              [] { return fleet_config::flash_crowd_fleet(); });
        r.add("fleet_smoke", "seconds-scale 3-swarm fleet for tests and CI",
              [] { return fleet_config::smoke(); });
        r.add("fleet_economy",
              "6 metro swarms with hierarchical ISP economies, 12 000 viewers "
              "(bench/isp_economy)",
              [] { return fleet_config::economy_fleet(); });
        r.add("fleet_economy_smoke",
              "seconds-scale 2-swarm economy fleet, 2 pricing epochs (tests/CI)",
              [] { return fleet_config::economy_smoke_fleet(); });
        r.add("fleet_coupled_metro",
              "6 coupled metro-economy swarms on halved link pools "
              "(bench/fleet_coupling)",
              [] { return fleet_config::coupled_metro(); });
        r.add("fleet_coupled_flash",
              "8 coupled flash-economy swarms, ~32 000 gated joins "
              "(bench/fleet_coupling)",
              [] { return fleet_config::coupled_flash(); });
        r.add("fleet_coupled_smoke",
              "seconds-scale 2-swarm coupled fleet on quartered pools "
              "(tests/CI)",
              [] { return fleet_config::coupled_smoke_fleet(); });
        return r;
    }();
    return registry;
}

}  // namespace p2pcd::workload
