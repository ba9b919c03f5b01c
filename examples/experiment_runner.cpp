// General-purpose experiment driver: run any scenario from the command line
// and get per-slot metrics as a table or CSV. This is the "make your own
// figure" tool — every knob the benches use is exposed as a flag, and both
// the algorithm and the base scenario are resolved by name through the
// registries (core/scheduler_registry, workload/scenario_registry), so newly
// registered algorithms/scenarios are available here with no edits.
//
//   $ ./experiment_runner --algo auction --peers 200 --videos 20 --csv out.csv
//   $ ./experiment_runner --scenario metro_5k --algo greedy-welfare
//   $ ./experiment_runner --fleet fleet_smoke --threads 4
//   $ ./experiment_runner --list
//
// A flag value that is not a whole in-range number, or a configuration the
// emulator or fleet rejects, prints "experiment_runner: <reason>" on stderr
// and exits 2 before anything runs.
//
// Flags (defaults in brackets):
//   --list           print registered schedulers, scenarios and fleets, exit
//   --fleet NAME     run a registered multi-swarm fleet on the engine instead
//                    of a single swarm; prints the merged per-slot metrics.
//                    --algo/--rounds/--epsilon apply per swarm;
//                    --seed sets the fleet seed (per-swarm seeds derive from
//                    it); --csv writes the merged fleet-level series; the
//                    other scenario flags do not apply
//   --threads N      fleet engine thread-pool size; 0 = hardware_concurrency
//                    [1]
//   --swarms N       override the fleet's swarm count (viewer target scales
//                    proportionally)
//   --algo NAME      registered scheduler name                 [auction]
//                    (aliases: locality, greedy)
//   --scenario NAME  registered base scenario; the other flags override it
//                    regardless of argument order
//                    [paper_static_500 scaled to the defaults below]
//   --peers N        static initial peers                      [150]
//   --arrival R      Poisson arrival rate, peers/s             [0]
//   --departure P    early-quitter probability                 [0]
//   --videos N       catalog size                              [12]
//   --isps N         number of ISPs                            [5]
//   --neighbors N    neighbor-set size                         [15]
//   --seeds N        seeds per ISP per video                   [1]
//   --seed-upload X  seed upload multiple of bitrate           [4]
//   --horizon S      emulated seconds                          [250]
//   --seed N         master RNG seed                           [42]
//   --rounds N       bidding rounds per slot                   [5]
//   --epsilon E      auction ε                                 [0.05]
//   --csv FILE       also write per-slot series as CSV
//   --isp-economy    enable the ISP economy (src/isp/): peering graph +
//                    per-ISP-pair traffic ledger + transit billing (+ the
//                    pricing-epoch controller when the scenario, or
//                    --epoch-slots, sets an epoch length); prints the
//                    traffic matrix, per-ISP bill and epoch trajectory.
//                    In --fleet mode applies to every swarm's base scenario
//   --peering NAME   peering generator (flat|tiered|hierarchical|hostile);
//                    implies --isp-economy
//   --epoch-slots N  pricing-epoch length in slots (0 = static prices);
//                    implies --isp-economy
//   --telemetry-out FILE   stream per-slot/per-epoch JSONL records (src/obs/
//                    schema, versioned; see docs/REPRODUCING.md) to FILE; in
//                    --fleet mode streams the merged fleet_slot records
//   --telemetry-every N    emit a slot record every N slots          [1]
//   --trace-out FILE enable the per-phase span recorder and write a Chrome
//                    trace_event JSON (chrome://tracing / Perfetto) to FILE;
//                    in --fleet mode the trace is swarm 0's
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "baseline/registry.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "isp/economy_report.h"
#include "metrics/report.h"
#include "metrics/time_series.h"
#include "obs/jsonl_sink.h"
#include "obs/span_recorder.h"
#include "vod/emulator.h"
#include "workload/fleet_config.h"
#include "workload/scenario_registry.h"

namespace {

using namespace p2pcd;

[[noreturn]] void usage(const std::string& complaint) {
    std::cerr << "experiment_runner: " << complaint
              << "\nsee the header of examples/experiment_runner.cpp for flags\n";
    std::exit(2);
}

// A flag's value as a T, or a usage error: the whole string must be one
// base-10 number (no sign on unsigned flags, nothing trailing) that fits T,
// and a floating-point value must be finite.
template <class T>
T parse_number(const std::string& flag, const std::string& text) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error == std::errc::result_out_of_range)
        usage("flag " + flag + " value '" + text + "' is out of range");
    if (error != std::errc() || stop != end)
        usage("flag " + flag + " needs a " +
              (std::is_unsigned_v<T> ? "non-negative integer" : "number") +
              ", got '" + text + "'");
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            usage("flag " + flag + " value '" + text + "' is not finite");
    }
    return value;
}

// Builds an emulator or fleet; a configuration its constructor rejects is a
// usage error. The message is copied out so usage() runs after the handler.
template <class T, class Options>
T build_or_usage(Options&& options) {
    std::string complaint;
    try {
        return T(std::forward<Options>(options));
    } catch (const contract_violation& broken) {
        complaint = broken.what();
    }
    usage(complaint);
}

std::string canonical_algo(std::string name) {
    // Back-compat aliases for the old enum spellings.
    if (name == "locality") return "simple-locality";
    if (name == "greedy") return "greedy-welfare";
    return name;
}

void print_registries() {
    std::cout << "registered schedulers:\n";
    for (const auto& name : baseline::builtin_schedulers().names())
        std::cout << "  " << name << '\n';
    std::cout << "registered scenarios:\n";
    for (const auto& name : workload::builtin_scenarios().names())
        std::cout << "  " << name << " — "
                  << workload::builtin_scenarios().describe(name) << '\n';
    std::cout << "registered fleets:\n";
    for (const auto& name : workload::builtin_fleets().names())
        std::cout << "  " << name << " — " << workload::builtin_fleets().describe(name)
                  << '\n';
}

// Shared economy printout: traffic matrix, per-ISP bill, pricing epochs.
// `epoch_scope` qualifies the epoch heading — in fleet mode the matrix/bill
// are fleet-wide merges but each swarm prices independently, so only one
// swarm's trajectory is shown and the heading must say so.
void print_economy(const isp::traffic_ledger& ledger,
                   const isp::billing_statement& statement,
                   const std::vector<isp::epoch_summary>& epochs,
                   const std::string& epoch_scope = "") {
    std::cout << "\nISP traffic matrix (chunks shipped from → to):\n";
    isp::traffic_matrix_table(ledger).print(std::cout);
    std::cout << "\nper-ISP billing (transit links only; uploader side pays):\n";
    isp::billing_table(statement).print(std::cout);
    if (!epochs.empty()) {
        std::cout << "\npricing epochs" << epoch_scope << ":\n";
        isp::epoch_table(epochs).print(std::cout);
    }
}

// Multi-swarm path: run the named fleet on the parallel engine and print the
// merged per-slot metrics — the fleet analogue of the single-swarm table.
int run_fleet(workload::fleet_config cfg, std::size_t threads,
              const vod::emulator_options& swarm_options,
              const std::optional<workload::scenario_config>& base_scenario,
              const std::string& csv_path, obs::jsonl_sink* telemetry_sink,
              std::size_t telemetry_every, const std::string& trace_path) {
    engine::fleet_options options;
    options.config = std::move(cfg);
    options.threads = threads;
    options.swarm_options = swarm_options;
    options.base_scenario = base_scenario;
    options.telemetry.sink = telemetry_sink;
    options.telemetry.every_slots = telemetry_every;
    options.telemetry.record_spans = !trace_path.empty();

    engine::fleet fleet = build_or_usage<engine::fleet>(std::move(options));
    std::cout << "fleet: " << fleet.num_swarms() << " swarms, ~"
              << metrics::format_double(fleet.total_expected_viewers(), 0)
              << " viewers, " << fleet.threads() << " thread(s)\n";

    metrics::table t({"slot_start_s", "viewers", "requests", "transfers",
                      "inter_isp_%", "welfare", "miss_%"});
    for (std::size_t k = 0; k < fleet.num_slots(); ++k) {
        const auto& m = fleet.step();
        t.add_row({metrics::format_double(m.time, 0), std::to_string(m.online_peers),
                   std::to_string(m.requests), std::to_string(m.transfers),
                   metrics::format_double(100.0 * m.inter_isp_fraction, 2),
                   metrics::format_double(m.social_welfare, 1),
                   metrics::format_double(100.0 * m.miss_rate, 2)});
    }
    t.print(std::cout);
    std::cout << "\ntotals: welfare=" << metrics::format_double(fleet.total_welfare(), 1)
              << "  inter-ISP="
              << metrics::format_double(100.0 * fleet.overall_inter_isp_fraction(), 2)
              << "%  miss="
              << metrics::format_double(100.0 * fleet.overall_miss_rate(), 2) << "%\n";

    if (fleet.economy_enabled())
        print_economy(fleet.merged_ledger(), fleet.merged_bill(),
                      fleet.shard_at(0).emulator().price_epochs(),
                      " (swarm 0; each swarm prices independently)");

    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out) usage("cannot open CSV path '" + csv_path + "'");
        metrics::write_csv(out, {&fleet.viewers_series(), &fleet.welfare_series(),
                                 &fleet.inter_isp_series(), &fleet.miss_rate_series()});
        std::cout << "per-slot fleet series written to " << csv_path << '\n';
    }
    if (telemetry_sink != nullptr) telemetry_sink->flush();
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) usage("cannot open trace path '" + trace_path + "'");
        fleet.shard_at(0).emulator().spans().export_trace_json(out, /*pid=*/0);
        std::cout << "swarm-0 phase trace written to " << trace_path << '\n';
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    vod::emulator_options opts;
    auto& cfg = opts.config;
    cfg = workload::builtin_scenarios().make("paper_static_500");
    cfg.initial_peers = 150;
    cfg.num_videos = 12;
    cfg.neighbor_count = 15;
    cfg.seeds_per_isp_per_video = 1;
    cfg.seed_upload_multiple = 4.0;
    cfg.initial_position_max_fraction = 0.05;
    cfg.arrival_rate = 0.0;
    std::string csv_path;
    std::string fleet_name;
    std::string telemetry_path;
    std::string trace_path;
    std::size_t telemetry_every = 1;
    std::size_t threads = 1;
    std::size_t swarms_override = 0;
    bool seed_given = false;
    bool economy_requested = false;
    std::string peering_override;
    std::optional<std::size_t> epoch_slots_override;

    // --scenario replaces the whole base config, so it is applied in a
    // pre-pass: the other flags always override it regardless of their
    // position on the command line.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--scenario") {
            if (i + 1 >= argc) usage("flag --scenario needs a value");
            std::string name = argv[i + 1];
            if (!workload::builtin_scenarios().contains(name))
                usage("unknown scenario '" + name + "' (try --list)");
            cfg = workload::builtin_scenarios().make(name);
        }
    }

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage("flag " + flag + " needs a value");
            return argv[++i];
        };
        auto count = [&] { return parse_number<std::size_t>(flag, next()); };
        auto real = [&] { return parse_number<double>(flag, next()); };
        if (flag == "--list") {
            print_registries();
            return 0;
        }
        else if (flag == "--algo") opts.scheduler = canonical_algo(next());
        else if (flag == "--scenario") (void)next();  // applied in the pre-pass
        else if (flag == "--peers") cfg.initial_peers = count();
        else if (flag == "--arrival") cfg.arrival_rate = real();
        else if (flag == "--departure") cfg.departure_probability = real();
        else if (flag == "--videos") cfg.num_videos = count();
        else if (flag == "--isps") cfg.num_isps = count();
        else if (flag == "--neighbors") cfg.neighbor_count = count();
        else if (flag == "--seeds") cfg.seeds_per_isp_per_video = count();
        else if (flag == "--seed-upload") cfg.seed_upload_multiple = real();
        else if (flag == "--horizon") cfg.horizon_seconds = real();
        else if (flag == "--seed") {
            cfg.master_seed = parse_number<std::uint64_t>(flag, next());
            seed_given = true;
        }
        else if (flag == "--fleet") fleet_name = next();
        else if (flag == "--threads") {
            threads = count();
            if (threads == 0) threads = engine::thread_pool::default_thread_count();
        }
        else if (flag == "--swarms") swarms_override = count();
        else if (flag == "--rounds") opts.bid_rounds_per_slot = count();
        else if (flag == "--epsilon") opts.auction.bidding.epsilon = real();
        else if (flag == "--csv") csv_path = next();
        else if (flag == "--telemetry-out") telemetry_path = next();
        else if (flag == "--telemetry-every") telemetry_every = count();
        else if (flag == "--trace-out") trace_path = next();
        else if (flag == "--isp-economy") economy_requested = true;
        else if (flag == "--peering") { peering_override = next(); economy_requested = true; }
        else if (flag == "--epoch-slots") {
            epoch_slots_override = count();
            economy_requested = true;
        }
        else usage("unknown flag '" + flag + "'");
    }
    // The economy overrides compose with whatever the scenario already sets.
    auto apply_economy = [&](workload::scenario_config& config) {
        if (!economy_requested) return;
        config.economy.enabled = true;
        if (!peering_override.empty()) config.economy.peering = peering_override;
        if (epoch_slots_override) config.economy.slots_per_epoch = *epoch_slots_override;
    };
    apply_economy(cfg);

    if (!baseline::builtin_schedulers().contains(opts.scheduler))
        usage("unknown scheduler '" + opts.scheduler + "' (try --list)");

    std::optional<obs::jsonl_sink> telemetry_sink;
    if (!telemetry_path.empty()) telemetry_sink.emplace(telemetry_path);

    if (!fleet_name.empty()) {
        if (!workload::builtin_fleets().contains(fleet_name))
            usage("unknown fleet '" + fleet_name + "' (try --list)");
        auto fleet_cfg = workload::builtin_fleets().make(fleet_name);
        fleet_cfg.scheduler = opts.scheduler;
        if (seed_given) fleet_cfg.fleet_seed = cfg.master_seed;
        if (swarms_override > 0) fleet_cfg = fleet_cfg.with_swarms(swarms_override);
        std::optional<workload::scenario_config> base;
        if (economy_requested) {
            base = workload::builtin_scenarios().make(fleet_cfg.swarm_scenario);
            apply_economy(*base);
        }
        return run_fleet(std::move(fleet_cfg), threads, opts, base, csv_path,
                         telemetry_sink ? &*telemetry_sink : nullptr,
                         telemetry_every, trace_path);
    }

    try {
        cfg.validate();
    } catch (const contract_violation& broken) {
        usage(broken.what());
    }

    opts.telemetry.sink = telemetry_sink ? &*telemetry_sink : nullptr;
    opts.telemetry.every_slots = telemetry_every;
    opts.telemetry.record_spans = !trace_path.empty();

    vod::emulator emu = build_or_usage<vod::emulator>(opts);
    metrics::time_series welfare("welfare");
    metrics::time_series inter("inter_isp_fraction");
    metrics::time_series miss("miss_rate");
    metrics::time_series viewers("viewers");

    metrics::table t({"slot_start_s", "viewers", "requests", "transfers",
                      "inter_isp_%", "welfare", "miss_%"});
    for (std::size_t k = 0; k < cfg.num_slots(); ++k) {
        const auto& m = emu.step();
        welfare.record(m.time, m.social_welfare);
        inter.record(m.time, m.inter_isp_fraction);
        miss.record(m.time, m.miss_rate);
        viewers.record(m.time, static_cast<double>(m.online_peers));
        t.add_row({metrics::format_double(m.time, 0), std::to_string(m.online_peers),
                   std::to_string(m.requests), std::to_string(m.transfers),
                   metrics::format_double(100.0 * m.inter_isp_fraction, 2),
                   metrics::format_double(m.social_welfare, 1),
                   metrics::format_double(100.0 * m.miss_rate, 2)});
    }
    t.print(std::cout);
    std::cout << "\ntotals: welfare=" << metrics::format_double(emu.total_welfare(), 1)
              << "  inter-ISP="
              << metrics::format_double(100.0 * emu.overall_inter_isp_fraction(), 2)
              << "%  miss="
              << metrics::format_double(100.0 * emu.overall_miss_rate(), 2) << "%\n";

    if (emu.economy_enabled())
        print_economy(emu.ledger(), emu.bill(), emu.price_epochs());

    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out) usage("cannot open CSV path '" + csv_path + "'");
        metrics::write_csv(out, {&viewers, &welfare, &inter, &miss});
        std::cout << "per-slot series written to " << csv_path << '\n';
    }
    if (telemetry_sink) {
        telemetry_sink->flush();
        std::cout << "telemetry stream written to " << telemetry_path << " ("
                  << telemetry_sink->lines_written() << " lines)\n";
    }
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) usage("cannot open trace path '" + trace_path + "'");
        emu.spans().export_trace_json(out);
        std::cout << "phase trace written to " << trace_path << '\n';
    }
    return 0;
}
