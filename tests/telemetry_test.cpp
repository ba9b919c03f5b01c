// The observability subsystem's contracts, unit level through end-to-end:
//
//  * obs::counter_registry — registration order is the schema order; merge()
//    sums element-wise in the caller's order; duplicate names are rejected.
//  * obs::span_recorder — the ring drops oldest-first but the per-phase
//    totals stay exact across wrap-around; a disabled recorder is inert and
//    rejects timing calls (callers guard on enabled(), so a violation here
//    means a clock read leaked into a telemetry-off slot loop).
//  * obs::json_line / jsonl_sink — one flat-ish JSON object per line,
//    %.17g doubles (exact text→double round trip), bounded buffering with
//    deterministic flush boundaries.
//  * the determinism contract: every semantic telemetry field is a pure
//    function of (config, seed) — never of thread count or wall clock. Two
//    runs of the same scenario produce byte-identical streams modulo
//    semantic_view(); a fleet's merged stream is byte-identical at
//    --threads 1/4/16.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "engine/fleet.h"
#include "obs/counters.h"
#include "obs/jsonl_sink.h"
#include "obs/span_recorder.h"
#include "vod/emulator.h"
#include "workload/fleet_config.h"
#include "workload/scenario_registry.h"

namespace p2pcd {
namespace {

// --- a minimal JSON parser, just rich enough for the line schema ----------
//
// Top-level object of scalars (number / string / bool) and flat sub-objects
// of scalars. Scalar values are kept as their raw text so stream-level
// comparisons and %.17g round-trip checks stay exact.
struct parsed_line {
    std::map<std::string, std::string> scalars;
    std::map<std::string, std::map<std::string, std::string>> objects;
};

class json_parser {
public:
    explicit json_parser(std::string_view text) : s_(text) {}

    // Parses one complete line-object; returns nullopt on any syntax error.
    std::optional<parsed_line> parse() {
        parsed_line out;
        if (!eat('{')) return std::nullopt;
        if (!parse_members(out)) return std::nullopt;
        if (!eat('}')) return std::nullopt;
        skip_ws();
        if (i_ != s_.size()) return std::nullopt;  // trailing garbage
        return out;
    }

private:
    bool parse_members(parsed_line& out) {
        skip_ws();
        if (peek() == '}') return true;  // empty object
        while (true) {
            std::string key;
            if (!parse_string(key)) return false;
            if (!eat(':')) return false;
            skip_ws();
            if (peek() == '{') {
                ++i_;
                std::map<std::string, std::string> sub;
                skip_ws();
                while (peek() != '}') {
                    std::string sub_key;
                    std::string sub_val;
                    if (!parse_string(sub_key)) return false;
                    if (!eat(':')) return false;
                    if (!parse_scalar(sub_val)) return false;
                    sub.emplace(std::move(sub_key), std::move(sub_val));
                    skip_ws();
                    if (peek() == ',') {
                        ++i_;
                        skip_ws();
                    }
                }
                ++i_;  // '}'
                out.objects.emplace(std::move(key), std::move(sub));
            } else {
                std::string value;
                if (!parse_scalar(value)) return false;
                out.scalars.emplace(std::move(key), std::move(value));
            }
            skip_ws();
            if (peek() != ',') return true;
            ++i_;
        }
    }

    bool parse_string(std::string& out) {
        skip_ws();
        if (peek() != '"') return false;
        ++i_;
        while (i_ < s_.size() && s_[i_] != '"') {
            if (s_[i_] == '\\') {
                if (i_ + 1 >= s_.size()) return false;
                out += s_[i_ + 1];  // keep it simple: unescape as-is
                i_ += 2;
            } else {
                out += s_[i_++];
            }
        }
        if (i_ >= s_.size()) return false;
        ++i_;  // closing quote
        return true;
    }

    bool parse_scalar(std::string& out) {
        skip_ws();
        if (peek() == '"') {
            out += '"';
            std::string inner;
            if (!parse_string(inner)) return false;
            out += inner;
            out += '"';
            return true;
        }
        const std::string_view number_chars = "+-0123456789.eE";
        if (s_.compare(i_, 4, "true") == 0) {
            out = "true";
            i_ += 4;
            return true;
        }
        if (s_.compare(i_, 5, "false") == 0) {
            out = "false";
            i_ += 5;
            return true;
        }
        const std::size_t start = i_;
        while (i_ < s_.size() && number_chars.find(s_[i_]) != std::string_view::npos)
            ++i_;
        out = std::string(s_.substr(start, i_ - start));
        return !out.empty();
    }

    void skip_ws() {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_])) != 0)
            ++i_;
    }
    [[nodiscard]] char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
    bool eat(char c) {
        skip_ws();
        if (peek() != c) return false;
        ++i_;
        return true;
    }

    std::string_view s_;
    std::size_t i_ = 0;
};

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) nl = text.size();
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

// Parses a line and fails the test with context when it is not valid JSON.
parsed_line parse_or_fail(const std::string& line) {
    auto parsed = json_parser(line).parse();
    EXPECT_TRUE(parsed.has_value()) << "unparseable telemetry line: " << line;
    return parsed.value_or(parsed_line{});
}

// --- counter_registry -----------------------------------------------------

TEST(counter_registry, registration_order_is_the_schema_order) {
    obs::counter_registry reg;
    const obs::counter_id c0 = reg.add_counter("solver.rounds");
    const obs::gauge_id g0 = reg.add_gauge("ledger.bytes_peer");
    const obs::counter_id c1 = reg.add_counter("cache.hits");

    reg.inc(c0);
    reg.inc(c0, 41);
    reg.add(g0, 1.5);
    reg.set(c1, 7);

    ASSERT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.entries()[0].name, "solver.rounds");
    EXPECT_EQ(reg.entries()[1].name, "ledger.bytes_peer");
    EXPECT_EQ(reg.entries()[2].name, "cache.hits");
    EXPECT_EQ(reg.entries()[1].kind, obs::metric_kind::gauge);
    EXPECT_EQ(reg.counter_at(0), 42u);
    EXPECT_EQ(reg.gauge_at(1), 1.5);
    EXPECT_EQ(reg.counter_at(2), 7u);
    EXPECT_EQ(reg.counter_named("solver.rounds"), 42u);
    EXPECT_EQ(reg.gauge_named("ledger.bytes_peer"), 1.5);
}

TEST(counter_registry, duplicate_names_rejected_across_kinds) {
    obs::counter_registry reg;
    reg.add_counter("x");
    EXPECT_THROW(reg.add_counter("x"), contract_violation);
    EXPECT_THROW(reg.add_gauge("x"), contract_violation);
}

TEST(counter_registry, unknown_name_lookup_throws) {
    obs::counter_registry reg;
    reg.add_counter("known");
    EXPECT_THROW((void)reg.counter_named("unknown"), contract_violation);
    // Kind mismatch is also a lookup failure: "known" is not a gauge.
    EXPECT_THROW((void)reg.gauge_named("known"), contract_violation);
}

TEST(counter_registry, merge_sums_element_wise_and_reset_zeroes) {
    auto make = [](std::uint64_t c, double g) {
        obs::counter_registry reg;
        reg.inc(reg.add_counter("c"), c);
        reg.add(reg.add_gauge("g"), g);
        return reg;
    };
    obs::counter_registry a = make(10, 0.25);
    const obs::counter_registry b = make(32, 0.5);
    ASSERT_TRUE(a.same_layout(b));
    a.merge(b);
    EXPECT_EQ(a.counter_named("c"), 42u);
    EXPECT_EQ(a.gauge_named("g"), 0.75);
    // Merging never changes the source.
    EXPECT_EQ(b.counter_named("c"), 32u);

    a.reset();
    EXPECT_EQ(a.counter_named("c"), 0u);
    EXPECT_EQ(a.gauge_named("g"), 0.0);
    EXPECT_EQ(a.size(), 2u);  // layout survives reset
}

TEST(counter_registry, layout_mismatch_detected) {
    obs::counter_registry a;
    a.add_counter("one");
    obs::counter_registry order;
    order.add_gauge("one");  // same name, different kind
    EXPECT_FALSE(a.same_layout(order));
    obs::counter_registry longer;
    longer.add_counter("one");
    longer.add_counter("two");
    EXPECT_FALSE(a.same_layout(longer));
}

// --- span_recorder --------------------------------------------------------

TEST(span_recorder, disabled_recorder_is_inert_and_rejects_timing_calls) {
    obs::span_recorder rec;
    EXPECT_FALSE(rec.enabled());
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_EQ(rec.ring_capacity(), 0u);
    EXPECT_EQ(rec.memory_bytes(), 0u);
    // A timing call on a disabled recorder means a caller forgot its
    // enabled() guard — i.e. a clock read leaked into telemetry-off mode.
    EXPECT_THROW(rec.begin_slot(0), contract_violation);
    EXPECT_THROW(rec.lap(obs::phase::build), contract_violation);
    EXPECT_THROW(rec.skip(), contract_violation);
    std::ostringstream out;
    rec.export_trace_json(out);
    EXPECT_NE(out.str().find("\"traceEvents\":[]"), std::string::npos)
        << out.str();
}

TEST(span_recorder, ring_overflow_keeps_newest_and_exact_totals) {
    obs::span_recorder rec(true, 4);
    for (std::uint32_t slot = 0; slot < 5; ++slot) {
        rec.begin_slot(slot);
        rec.lap(obs::phase::build);
        rec.lap(obs::phase::solve);
    }
    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);

    const std::vector<obs::span> live = rec.spans();
    ASSERT_EQ(live.size(), 4u);
    // Oldest-first: slot 3's build + solve, then slot 4's build + solve.
    EXPECT_EQ(live[0].slot, 3u);
    EXPECT_EQ(live[0].which, obs::phase::build);
    EXPECT_EQ(live[1].slot, 3u);
    EXPECT_EQ(live[1].which, obs::phase::solve);
    EXPECT_EQ(live[2].slot, 4u);
    EXPECT_EQ(live[2].which, obs::phase::build);
    EXPECT_EQ(live[3].which, obs::phase::solve);
    for (std::size_t i = 1; i < live.size(); ++i)
        EXPECT_GE(live[i].start_s, live[i - 1].start_s);

    // Totals fold every lap ever recorded, including the 6 dropped ones, so
    // they are at least the sum of the surviving spans per phase.
    double live_build = 0.0;
    for (const auto& s : live)
        if (s.which == obs::phase::build) live_build += s.duration_s;
    EXPECT_GE(rec.total_seconds(obs::phase::build), live_build);
    EXPECT_EQ(rec.total_seconds(obs::phase::arrivals), 0.0);
}

TEST(span_recorder, skip_attributes_nothing) {
    obs::span_recorder rec(true, 8);
    rec.begin_slot(0);
    rec.skip();
    rec.lap(obs::phase::apply);
    EXPECT_EQ(rec.recorded(), 1u);
    EXPECT_EQ(rec.spans()[0].which, obs::phase::apply);
}

TEST(span_recorder, trace_export_is_valid_json_with_one_event_per_span) {
    obs::span_recorder rec(true, 8);
    rec.begin_slot(7);
    rec.lap(obs::phase::neighbor_refresh);
    rec.lap(obs::phase::solve);
    std::ostringstream out;
    rec.export_trace_json(out, 3);
    const std::string doc = out.str();
    // The trace document nests deeper than the line schema, so check its
    // shape textually instead of reusing the flat-line parser.
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"name\":\"neighbor_refresh\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"solve\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"slot\":7"), std::string::npos);
}

// --- json_line / semantic_view --------------------------------------------

TEST(json_line, builds_one_flat_object_with_typed_fields) {
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("n", std::uint64_t{18446744073709551615ull})
        .field("i", std::int64_t{-3})
        .field("s", "quote\" slash\\ nl\n")
        .field("b", true);
    line.begin_object("wall").field("step_s", 0.5).end_object();
    const std::string text = line.finish();
    EXPECT_EQ(text, "{\"v\":" + std::to_string(obs::jsonl_schema_version) +
                        ",\"n\":18446744073709551615,\"i\":-3,"
                        "\"s\":\"quote\\\" slash\\\\ nl\\n\",\"b\":true,"
                        "\"wall\":{\"step_s\":0.5}}\n");
    const parsed_line parsed = parse_or_fail(text.substr(0, text.size() - 1));
    EXPECT_EQ(parsed.scalars.at("v"), std::to_string(obs::jsonl_schema_version));
    EXPECT_EQ(parsed.objects.at("wall").at("step_s"), "0.5");
}

TEST(json_line, nesting_and_double_finish_rejected) {
    obs::json_line nested;
    nested.begin_object("wall");
    EXPECT_THROW(nested.begin_object("env"), contract_violation);
    EXPECT_THROW((void)nested.finish(), contract_violation);

    obs::json_line done;
    done.field("v", 1);
    (void)done.finish();
    EXPECT_THROW((void)done.finish(), contract_violation);
}

TEST(json_line, doubles_round_trip_exactly_through_text) {
    for (double v : {0.1, 1.0 / 3.0, 12345.6789e-7, -0.0, 2.5e300}) {
        obs::json_line line;
        line.field("x", v);
        const std::string text = line.finish();
        const std::size_t colon = text.find(':');
        ASSERT_NE(colon, std::string::npos);
        const double back = std::strtod(text.c_str() + colon + 1, nullptr);
        EXPECT_EQ(back, v) << text;
    }
}

TEST(semantic_view, strips_wall_and_env_only) {
    EXPECT_EQ(obs::semantic_view("{\"a\":1,\"wall\":{\"t\":0.5}}\n"),
              "{\"a\":1}\n");
    EXPECT_EQ(obs::semantic_view("{\"a\":1,\"env\":{\"threads\":4},\"b\":2}\n"),
              "{\"a\":1,\"b\":2}\n");
    EXPECT_EQ(obs::semantic_view("{\"wall\":{\"t\":0.5},\"a\":1}\n"),
              "{\"a\":1}\n");
    EXPECT_EQ(obs::semantic_view(
                  "{\"a\":1,\"wall\":{\"t\":0.5},\"env\":{\"threads\":4}}\n"),
              "{\"a\":1}\n");
    EXPECT_EQ(obs::semantic_view("{\"a\":1,\"b\":2}\n"), "{\"a\":1,\"b\":2}\n");
}

// --- jsonl_sink -----------------------------------------------------------

TEST(jsonl_sink, buffers_until_the_bound_then_flushes) {
    std::ostringstream out;
    obs::jsonl_sink sink(out, 32);
    const std::string line = "{\"v\":1,\"k\":0}\n";  // 14 bytes
    sink.write_line(line);
    sink.write_line(line);
    // 28 bytes buffered, under the bound: nothing written through yet.
    EXPECT_EQ(out.str().size(), 0u);
    EXPECT_EQ(sink.buffered_bytes(), 28u);
    EXPECT_EQ(sink.flushes(), 0u);
    // The third line would overflow — the buffer flushes first.
    sink.write_line(line);
    EXPECT_EQ(out.str().size(), 28u);
    EXPECT_EQ(sink.buffered_bytes(), 14u);
    EXPECT_EQ(sink.flushes(), 1u);
    EXPECT_EQ(sink.lines_written(), 3u);
    EXPECT_EQ(sink.bytes_written(), 42u);
    sink.flush();
    EXPECT_EQ(out.str(), line + line + line);
    EXPECT_EQ(sink.flushes(), 2u);
    sink.flush();  // empty buffer: a no-op, not a counted flush
    EXPECT_EQ(sink.flushes(), 2u);
}

TEST(jsonl_sink, line_larger_than_the_bound_passes_through) {
    std::ostringstream out;
    obs::jsonl_sink sink(out, 8);
    const std::string big = "{\"payload\":\"0123456789\"}\n";
    sink.write_line(big);
    // Appended whole, then flushed because the buffer now exceeds the bound.
    EXPECT_EQ(out.str(), big);
    EXPECT_EQ(sink.buffered_bytes(), 0u);
}

TEST(jsonl_sink, destructor_flushes_buffered_lines) {
    std::ostringstream out;
    const std::string line = "{\"v\":1}\n";
    {
        obs::jsonl_sink sink(out);
        sink.write_line(line);
        EXPECT_EQ(out.str().size(), 0u);
    }
    EXPECT_EQ(out.str(), line);
}

TEST(jsonl_sink, missing_newline_rejected) {
    std::ostringstream out;
    obs::jsonl_sink sink(out);
    EXPECT_THROW(sink.write_line("{\"v\":1}"), contract_violation);
}

TEST(jsonl_sink, file_sink_round_trips_through_disk) {
    const std::string path = testing::TempDir() + "p2pcd_telemetry_test.jsonl";
    const std::string line = "{\"v\":1,\"kind\":\"header\"}\n";
    {
        obs::jsonl_sink sink(path);
        sink.write_line(line);
        sink.flush();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string read_back;
    std::getline(in, read_back);
    EXPECT_EQ(read_back + "\n", line);
    std::remove(path.c_str());
}

// --- emulator stream: schema + determinism --------------------------------

// Runs `economy_smoke` (6 slots, 3-slot price epochs — exercises header,
// slot and epoch records) and returns the raw stream.
std::string run_emulator_stream(bool record_spans, std::size_t every_slots = 1) {
    std::ostringstream out;
    obs::jsonl_sink sink(out);
    vod::emulator_options opts;
    opts.config = workload::builtin_scenarios().make("economy_smoke");
    opts.telemetry.sink = &sink;
    opts.telemetry.record_spans = record_spans;
    opts.telemetry.every_slots = every_slots;
    const std::size_t slots = opts.config.num_slots();
    vod::emulator emu(std::move(opts));
    for (std::size_t k = 0; k < slots; ++k) (void)emu.step();
    sink.flush();
    return out.str();
}

TEST(telemetry_schema, every_line_parses_with_version_and_kind) {
    const std::vector<std::string> lines =
        split_lines(run_emulator_stream(true));
    ASSERT_FALSE(lines.empty());
    std::size_t slot_records = 0;
    std::size_t epoch_records = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const parsed_line parsed = parse_or_fail(lines[i]);
        ASSERT_TRUE(parsed.scalars.contains("v")) << lines[i];
        EXPECT_EQ(parsed.scalars.at("v"),
                  std::to_string(obs::jsonl_schema_version));
        const std::string kind = parsed.scalars.at("kind");
        if (i == 0) {
            EXPECT_EQ(kind, "\"header\"");
        }
        if (kind == "\"slot\"") {
            ++slot_records;
            // The registry's metrics ride on every slot record by name.
            EXPECT_TRUE(parsed.scalars.contains("solver.bids")) << lines[i];
            EXPECT_TRUE(parsed.scalars.contains("cost.cache_hits"));
            EXPECT_TRUE(parsed.scalars.contains("tracker.repairs"));
            EXPECT_TRUE(parsed.scalars.contains("social_welfare"));
            // Spans were on, so the wall section exists — and stays out of
            // the semantic projection.
            EXPECT_TRUE(parsed.objects.contains("wall"));
            EXPECT_FALSE(obs::semantic_view(lines[i] + "\n").find("wall") !=
                         std::string::npos);
        } else if (kind == "\"epoch\"") {
            ++epoch_records;
            EXPECT_TRUE(parsed.scalars.contains("mean_inter_price"));
        }
    }
    // economy_smoke: 6 slots, slots_per_epoch = 3 → 6 slot + 2 epoch records.
    EXPECT_EQ(slot_records, 6u);
    EXPECT_EQ(epoch_records, 2u);
}

TEST(telemetry_schema, header_declares_the_metric_schema) {
    const std::vector<std::string> lines =
        split_lines(run_emulator_stream(false));
    ASSERT_FALSE(lines.empty());
    const parsed_line header = parse_or_fail(lines[0]);
    EXPECT_EQ(header.scalars.at("kind"), "\"header\"");
    EXPECT_TRUE(header.scalars.contains("master_seed"));
    EXPECT_TRUE(header.scalars.contains("scheduler"));
    // The metric list names every counter/gauge in registration order —
    // consumers can validate columns before reading a single slot record.
    const std::string metrics = header.scalars.at("metrics");
    for (const char* name : {"peers.arrivals", "solver.bids", "cost.cache_hits",
                             "tracker.inversions", "ledger.bytes_transit"})
        EXPECT_NE(metrics.find(name), std::string::npos) << metrics;
    // Environment facts live in "env", outside the semantic projection.
    EXPECT_TRUE(header.objects.contains("env"));
}

TEST(telemetry_schema, slot_doubles_round_trip_to_the_exact_ieee_value) {
    std::ostringstream out;
    obs::jsonl_sink sink(out);
    vod::emulator_options opts;
    opts.config = workload::builtin_scenarios().make("economy_smoke");
    opts.telemetry.sink = &sink;
    const std::size_t slots = opts.config.num_slots();
    vod::emulator emu(std::move(opts));
    for (std::size_t k = 0; k < slots; ++k) (void)emu.step();
    sink.flush();

    std::size_t slot_index = 0;
    for (const std::string& line : split_lines(out.str())) {
        const parsed_line parsed = parse_or_fail(line);
        if (parsed.scalars.at("kind") != "\"slot\"") continue;
        const auto& m = emu.slots().at(slot_index++);
        EXPECT_EQ(std::strtod(parsed.scalars.at("social_welfare").c_str(), nullptr),
                  m.social_welfare);
        EXPECT_EQ(std::strtod(parsed.scalars.at("miss_rate").c_str(), nullptr),
                  m.miss_rate);
    }
    EXPECT_EQ(slot_index, slots);
}

TEST(telemetry_schema, every_slots_thins_slot_records_only) {
    std::size_t slot_records = 0;
    std::size_t epoch_records = 0;
    for (const std::string& line : split_lines(run_emulator_stream(false, 2))) {
        const parsed_line parsed = parse_or_fail(line);
        if (parsed.scalars.at("kind") == "\"slot\"") {
            ++slot_records;
            // Only even slots survive every_slots = 2.
            EXPECT_EQ(std::strtoull(parsed.scalars.at("slot").c_str(), nullptr,
                                    10) %
                          2,
                      0u);
        }
        if (parsed.scalars.at("kind") == "\"epoch\"") ++epoch_records;
    }
    EXPECT_EQ(slot_records, 3u);  // slots 0, 2, 4 of 6
    EXPECT_EQ(epoch_records, 2u);  // epochs are never thinned
}

TEST(telemetry_determinism, identical_runs_produce_identical_streams) {
    // Telemetry off-spans: no wall section anywhere, so the *raw* streams
    // must already be byte-identical.
    EXPECT_EQ(run_emulator_stream(false), run_emulator_stream(false));

    // With spans on, wall-clock fields differ run to run — but the semantic
    // projection may not.
    const std::vector<std::string> a = split_lines(run_emulator_stream(true));
    const std::vector<std::string> b = split_lines(run_emulator_stream(true));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(obs::semantic_view(a[i]), obs::semantic_view(b[i])) << i;
}

TEST(telemetry_determinism, span_recording_never_changes_semantic_fields) {
    const std::vector<std::string> off = split_lines(run_emulator_stream(false));
    const std::vector<std::string> on = split_lines(run_emulator_stream(true));
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i)
        EXPECT_EQ(obs::semantic_view(off[i]), obs::semantic_view(on[i])) << i;
}

// --- fleet stream: merged telemetry is thread-count invariant -------------

struct fleet_capture {
    std::string stream;
    std::unique_ptr<engine::fleet> fleet;
};

fleet_capture run_fleet_stream(engine::fleet_options options,
                               std::size_t threads) {
    std::ostringstream out;
    obs::jsonl_sink sink(out);
    options.threads = threads;
    options.telemetry.sink = &sink;
    auto fleet = std::make_unique<engine::fleet>(std::move(options));
    fleet->run();
    sink.flush();
    return {out.str(), std::move(fleet)};
}

engine::fleet_options smoke_fleet_options() {
    engine::fleet_options options;
    options.config = workload::fleet_config::smoke();
    return options;
}

// Heavy churn: every slot sees arrivals and coin-flip departures, so the
// merged stream exercises the tracker-repair and peer-slot-recycling
// counters, not just steady-state scheduling.
engine::fleet_options churn_fleet_options() {
    engine::fleet_options options;
    options.config = workload::fleet_config::smoke();
    options.config.num_swarms = 3;
    options.config.total_peers = 60;
    workload::scenario_config base = workload::scenario_config::small_test();
    base.initial_peers = 20;
    base.arrival_rate = 2.0;
    base.departure_probability = 0.5;
    base.horizon_seconds = 30.0;
    options.base_scenario = base;
    return options;
}

void expect_fleet_stream_thread_invariant(
    const engine::fleet_options& options) {
    const fleet_capture ref = run_fleet_stream(options, 1);
    const std::vector<std::string> ref_lines = split_lines(ref.stream);
    ASSERT_FALSE(ref_lines.empty());
    // The comparison is vacuous unless the fleet actually counted work.
    const obs::counter_registry ref_counters = ref.fleet->merged_counters();
    EXPECT_GT(ref_counters.counter_named("solver.bids"), 0u);

    for (std::size_t threads : {std::size_t{4}, std::size_t{16}}) {
        const fleet_capture run = run_fleet_stream(options, threads);
        const std::vector<std::string> lines = split_lines(run.stream);
        ASSERT_EQ(lines.size(), ref_lines.size()) << threads << " threads";
        for (std::size_t i = 0; i < lines.size(); ++i)
            EXPECT_EQ(obs::semantic_view(lines[i]),
                      obs::semantic_view(ref_lines[i]))
                << threads << " threads, line " << i;

        const obs::counter_registry merged = run.fleet->merged_counters();
        ASSERT_TRUE(merged.same_layout(ref_counters));
        for (std::size_t e = 0; e < merged.entries().size(); ++e) {
            if (merged.entries()[e].kind == obs::metric_kind::counter) {
                EXPECT_EQ(merged.counter_at(e), ref_counters.counter_at(e))
                    << merged.entries()[e].name << " @" << threads;
            } else {
                EXPECT_EQ(merged.gauge_at(e), ref_counters.gauge_at(e))
                    << merged.entries()[e].name << " @" << threads;
            }
        }
    }
}

TEST(telemetry_determinism, fleet_stream_identical_at_1_4_and_16_threads) {
    expect_fleet_stream_thread_invariant(smoke_fleet_options());
}

TEST(telemetry_determinism, churn_fleet_stream_identical_across_threads) {
    const engine::fleet_options options = churn_fleet_options();
    // The churn config must actually churn, or this collapses into the
    // smoke-fleet case.
    const fleet_capture probe = run_fleet_stream(options, 1);
    const obs::counter_registry counters = probe.fleet->merged_counters();
    EXPECT_GT(counters.counter_named("peers.departures"), 0u);
    EXPECT_GT(counters.counter_named("tracker.repairs"), 0u);
    expect_fleet_stream_thread_invariant(options);
}

// Schema v2 added the coupled-fleet sub-objects *additively*: a v1 consumer
// of scalar fields keeps working, and recorded v1 streams still parse with
// today's tooling. These literal lines are frozen from a v1 (PR 8) run — do
// not regenerate them.
TEST(telemetry_schema, v1_lines_still_parse) {
    const std::string v1_slot =
        "{\"v\":1,\"kind\":\"slot\",\"slot\":3,\"time\":30,\"online_peers\":42,"
        "\"social_welfare\":1287.5,\"miss_rate\":0.03125,"
        "\"solver.bids\":911,\"cost.cache_hits\":100,"
        "\"wall\":{\"step_s\":0.25}}";
    const parsed_line slot = parse_or_fail(v1_slot);
    EXPECT_EQ(slot.scalars.at("v"), "1");
    EXPECT_EQ(slot.scalars.at("kind"), "\"slot\"");
    EXPECT_EQ(slot.scalars.at("social_welfare"), "1287.5");
    EXPECT_EQ(slot.objects.at("wall").at("step_s"), "0.25");
    // The semantic projection of a v1 line is unchanged by the v2 tooling.
    EXPECT_EQ(obs::semantic_view(v1_slot + "\n"),
              "{\"v\":1,\"kind\":\"slot\",\"slot\":3,\"time\":30,"
              "\"online_peers\":42,\"social_welfare\":1287.5,"
              "\"miss_rate\":0.03125,\"solver.bids\":911,"
              "\"cost.cache_hits\":100}\n");

    const std::string v1_header =
        "{\"v\":1,\"kind\":\"header\",\"master_seed\":42,"
        "\"scheduler\":\"auction\",\"env\":{\"threads\":4}}";
    const parsed_line header = parse_or_fail(v1_header);
    EXPECT_EQ(header.scalars.at("v"), "1");
    EXPECT_TRUE(header.objects.contains("env"));
}

TEST(telemetry_schema, schema_version_is_2) {
    EXPECT_EQ(obs::jsonl_schema_version, 2);
}

// The delta pipeline's counters (dirty/reused rows, early-exit slots) ride
// the slot record like every other registered metric — and additively: they
// are registered after every v1-era counter, so a v1 consumer's column
// prefix is byte-stable and recorded v1 streams keep parsing (the frozen
// lines above). Every run drives them: the delta build is the emulator's
// only builder, so each slot's first round reports its rows as dirty and the
// later rounds report them as reused.
TEST(telemetry_schema, slot_records_carry_delta_counters_additively) {
    std::ostringstream out;
    obs::jsonl_sink sink(out);
    vod::emulator_options opts;
    opts.config = workload::builtin_scenarios().make("economy_smoke");
    opts.telemetry.sink = &sink;
    const std::size_t slots = opts.config.num_slots();
    vod::emulator emu(std::move(opts));
    for (std::size_t k = 0; k < slots; ++k) (void)emu.step();
    sink.flush();

    std::uint64_t dirty = 0;
    std::uint64_t reused = 0;
    std::size_t slot_records = 0;
    for (const std::string& line : split_lines(out.str())) {
        const parsed_line parsed = parse_or_fail(line);
        if (parsed.scalars.at("kind") == "\"header\"") {
            // Registered → declared up front, after every v1-era metric.
            const std::string metrics = parsed.scalars.at("metrics");
            for (const char* name : {"delta.dirty_rows", "delta.reused_rows"})
                EXPECT_GT(metrics.find(name), metrics.find("ledger.bytes_transit"))
                    << metrics;
            // The build's candidate counters append after the delta ones.
            for (const char* name : {"build.candidates", "build.pruned_candidates"}) {
                ASSERT_NE(metrics.find(name), std::string::npos) << metrics;
                EXPECT_GT(metrics.find(name), metrics.find("delta.reused_rows"))
                    << metrics;
            }
            continue;
        }
        if (parsed.scalars.at("kind") != "\"slot\"") continue;
        ++slot_records;
        ASSERT_TRUE(parsed.scalars.contains("delta.dirty_rows")) << line;
        ASSERT_TRUE(parsed.scalars.contains("delta.reused_rows")) << line;
        EXPECT_GT(line.find("delta.dirty_rows"), line.find("ledger.bytes_transit"))
            << "delta columns must append after the v1 columns";
        dirty = std::max<std::uint64_t>(
            dirty, std::strtoull(parsed.scalars.at("delta.dirty_rows").c_str(),
                                 nullptr, 10));
        reused = std::max<std::uint64_t>(
            reused, std::strtoull(parsed.scalars.at("delta.reused_rows").c_str(),
                                  nullptr, 10));
    }
    EXPECT_EQ(slot_records, slots);
    EXPECT_GT(dirty, 0u) << "every run must report dirty rows";
    EXPECT_GT(reused, 0u) << "every run must report reused rows";
}

// The v2 additions: a coupled fleet's merged stream carries "admission" and
// "link_saturation" sub-objects on every fleet_slot record, plus
// "fleet_epoch" records for the fleet-global pricing loop. Both sub-objects
// are semantic (pure functions of config and seed), so semantic_view keeps
// them and the thread-invariance tests above cover them automatically.
TEST(telemetry_schema, coupled_fleet_stream_has_admission_and_saturation) {
    engine::fleet_options options;
    options.config = workload::builtin_fleets().make("fleet_coupled_smoke");
    const fleet_capture run = run_fleet_stream(std::move(options), 2);
    ASSERT_TRUE(run.fleet->coupling_enabled());
    const std::vector<std::string> lines = split_lines(run.stream);
    ASSERT_FALSE(lines.empty());
    std::size_t slot_records = 0;
    std::size_t epoch_records = 0;
    std::uint64_t deferred_seen = 0;
    for (const std::string& line : lines) {
        const parsed_line parsed = parse_or_fail(line);
        EXPECT_EQ(parsed.scalars.at("v"),
                  std::to_string(obs::jsonl_schema_version));
        const std::string kind = parsed.scalars.at("kind");
        if (kind == "\"fleet_slot\"") {
            ++slot_records;
            ASSERT_TRUE(parsed.objects.contains("admission")) << line;
            const auto& admission = parsed.objects.at("admission");
            EXPECT_TRUE(admission.contains("admitted"));
            EXPECT_TRUE(admission.contains("deferred"));
            EXPECT_TRUE(admission.contains("abandoned"));
            EXPECT_TRUE(admission.contains("queued"));
            deferred_seen = std::strtoull(admission.at("deferred").c_str(),
                                          nullptr, 10);
            ASSERT_TRUE(parsed.objects.contains("link_saturation")) << line;
            const auto& saturation = parsed.objects.at("link_saturation");
            EXPECT_TRUE(saturation.contains("managed_pairs"));
            EXPECT_TRUE(saturation.contains("saturated_pairs"));
            EXPECT_TRUE(saturation.contains("max_utilization"));
            // Both sub-objects survive the semantic projection: they are
            // results, not environment.
            const std::string semantic = obs::semantic_view(line + "\n");
            EXPECT_NE(semantic.find("\"admission\""), std::string::npos);
            EXPECT_NE(semantic.find("\"link_saturation\""), std::string::npos);
            EXPECT_EQ(semantic.find("\"wall\""), std::string::npos);
        } else if (kind == "\"fleet_epoch\"") {
            ++epoch_records;
            EXPECT_TRUE(parsed.scalars.contains("cross_chunks"));
            EXPECT_TRUE(parsed.scalars.contains("mean_inter_price"));
        }
    }
    EXPECT_EQ(slot_records, run.fleet->num_slots());
    EXPECT_EQ(epoch_records, run.fleet->fleet_price_epochs().size());
    EXPECT_GT(epoch_records, 0u);
    // The quartered smoke pools actually gate: the final cumulative
    // deferral count on the last slot record is positive.
    EXPECT_GT(deferred_seen, 0u);
}

TEST(telemetry_determinism, coupled_fleet_stream_identical_across_threads) {
    engine::fleet_options options;
    options.config = workload::builtin_fleets().make("fleet_coupled_smoke");
    expect_fleet_stream_thread_invariant(options);
}

TEST(telemetry_schema, fleet_stream_parses_with_fleet_slot_records) {
    const fleet_capture run = run_fleet_stream(smoke_fleet_options(), 2);
    const std::vector<std::string> lines = split_lines(run.stream);
    ASSERT_FALSE(lines.empty());
    const parsed_line header = parse_or_fail(lines[0]);
    EXPECT_EQ(header.scalars.at("kind"), "\"header\"");
    EXPECT_TRUE(header.scalars.contains("num_swarms"));
    // Thread count is environment, never semantics.
    EXPECT_EQ(header.objects.at("env").at("threads"), "2");
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const parsed_line parsed = parse_or_fail(lines[i]);
        EXPECT_EQ(parsed.scalars.at("kind"), "\"fleet_slot\"");
        EXPECT_TRUE(parsed.scalars.contains("social_welfare"));
        EXPECT_TRUE(parsed.scalars.contains("solver.bids"));
        EXPECT_TRUE(parsed.objects.contains("wall"));
    }
    EXPECT_EQ(lines.size(), 1 + run.fleet->num_slots());
}

}  // namespace
}  // namespace p2pcd
