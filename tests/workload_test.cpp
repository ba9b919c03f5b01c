#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/contracts.h"
#include "workload/instance_gen.h"
#include "workload/scenario.h"

namespace p2pcd::workload {
namespace {

TEST(scenario, paper_defaults_derive_correctly) {
    auto cfg = scenario_config::paper_dynamic();
    cfg.validate();
    // 20 MB / 8 KB = 2560 chunks; 640 Kbps / 8 KB = 10 chunks/s.
    EXPECT_EQ(cfg.chunks_per_video(), 2560u);
    EXPECT_DOUBLE_EQ(cfg.chunks_per_second(), 10.0);
    EXPECT_EQ(cfg.chunks_per_slot(), 100u);
    EXPECT_DOUBLE_EQ(cfg.video_duration_seconds(), 256.0);
    EXPECT_EQ(cfg.num_slots(), 25u);
    EXPECT_EQ(cfg.num_videos, 100u);
    EXPECT_EQ(cfg.num_isps, 5u);
    EXPECT_EQ(cfg.neighbor_count, 30u);
    EXPECT_EQ(cfg.prefetch_chunks, 100u);
}

TEST(scenario, named_configs_differ_in_dynamics) {
    auto dynamic = scenario_config::paper_dynamic();
    EXPECT_DOUBLE_EQ(dynamic.arrival_rate, 1.0);
    EXPECT_EQ(dynamic.initial_peers, 0u);

    auto fixed = scenario_config::paper_static_500();
    EXPECT_DOUBLE_EQ(fixed.arrival_rate, 0.0);
    EXPECT_EQ(fixed.initial_peers, 500u);

    auto churn = scenario_config::paper_churn();
    EXPECT_DOUBLE_EQ(churn.departure_probability, 0.6);
}

TEST(scenario, validation_rejects_nonsense) {
    auto cfg = scenario_config::paper_dynamic();
    cfg.num_videos = 0;
    EXPECT_THROW(cfg.validate(), contract_violation);
    cfg = scenario_config::paper_dynamic();
    cfg.departure_probability = 1.5;
    EXPECT_THROW(cfg.validate(), contract_violation);
    cfg = scenario_config::paper_dynamic();
    cfg.horizon_seconds = 1.0;
    EXPECT_THROW(cfg.validate(), contract_violation);
    cfg = scenario_config::paper_dynamic();
    cfg.arrival_rate = -5.0;
    EXPECT_THROW(cfg.validate(), contract_violation);
    cfg = scenario_config::paper_dynamic();
    cfg.arrival_rate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(cfg.validate(), contract_violation);
    cfg = scenario_config::paper_dynamic();
    cfg.seed_upload_multiple = 0.0;
    EXPECT_THROW(cfg.validate(), contract_violation);
    cfg = scenario_config::paper_dynamic();
    cfg.seed_upload_multiple = -1.0;
    EXPECT_THROW(cfg.validate(), contract_violation);
    // Non-finite sizes, durations and rates would reach the derived counts'
    // casts to std::size_t; each is named in the message.
    constexpr double inf = std::numeric_limits<double>::infinity();
    const auto rejects = [](const scenario_config& bad, const std::string& field) {
        try {
            bad.validate();
            ADD_FAILURE() << field << " was accepted";
        } catch (const contract_violation& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    };
    cfg = scenario_config::paper_dynamic();
    cfg.horizon_seconds = inf;
    rejects(cfg, "horizon_seconds");
    cfg = scenario_config::paper_dynamic();
    cfg.horizon_seconds = std::numeric_limits<double>::quiet_NaN();
    rejects(cfg, "horizon_seconds");
    cfg = scenario_config::paper_dynamic();
    cfg.slot_seconds = inf;
    rejects(cfg, "slot_seconds");
    cfg = scenario_config::paper_dynamic();
    cfg.slot_seconds = inf;
    cfg.horizon_seconds = inf;
    rejects(cfg, "slot_seconds");
    cfg = scenario_config::paper_dynamic();
    cfg.arrival_rate = inf;
    rejects(cfg, "arrival_rate");
    cfg = scenario_config::paper_dynamic();
    cfg.bitrate_kbps = inf;
    rejects(cfg, "bitrate_kbps");
    cfg = scenario_config::paper_dynamic();
    cfg.video_size_mb = inf;
    rejects(cfg, "video_size_mb");
    cfg = scenario_config::paper_dynamic();
    cfg.chunk_size_kb = inf;
    rejects(cfg, "chunk_size_kb");
    // Finite but huge: each derived count must fit the integer type it is
    // converted to (std::size_t slot and chunk counts, a u32 buffer-map size,
    // int32 upload capacities).
    cfg = scenario_config::paper_dynamic();
    cfg.horizon_seconds = 1e300;
    rejects(cfg, "horizon_seconds");
    cfg = scenario_config::paper_dynamic();
    cfg.video_size_mb = 1e300;
    rejects(cfg, "video_size_mb");
    cfg = scenario_config::paper_dynamic();
    cfg.video_size_mb = 32.0 * 1024.0 * 1024.0;  // 2^32 chunks of 8 KB
    rejects(cfg, "video_size_mb");
    cfg = scenario_config::paper_dynamic();
    cfg.chunk_size_kb = 1e-300;
    rejects(cfg, "chunk_size_kb");
    cfg = scenario_config::paper_dynamic();
    cfg.bitrate_kbps = 1e300;
    rejects(cfg, "bitrate_kbps");
    cfg = scenario_config::paper_dynamic();
    cfg.slot_seconds = 1e300;
    cfg.horizon_seconds = 1e300;
    rejects(cfg, "slot_seconds");
    cfg = scenario_config::paper_dynamic();
    cfg.seed_upload_multiple = inf;
    rejects(cfg, "seed_upload_multiple");
    cfg = scenario_config::paper_dynamic();
    cfg.seed_upload_multiple = 1e300;
    rejects(cfg, "seed_upload_multiple");
    cfg = scenario_config::paper_dynamic();
    cfg.seed_upload_multiple = 21474837.0;  // 100 chunks/slot: just past 2^31
    rejects(cfg, "seed_upload_multiple");
    cfg = scenario_config::paper_dynamic();
    cfg.peer_upload_max_multiple = inf;
    rejects(cfg, "peer_upload_max_multiple");
    cfg = scenario_config::paper_dynamic();
    cfg.peer_upload_min_multiple = inf;
    cfg.peer_upload_max_multiple = inf;
    rejects(cfg, "peer_upload_max_multiple");
    cfg = scenario_config::paper_dynamic();
    cfg.peer_upload_max_multiple = 1e300;
    rejects(cfg, "peer_upload_max_multiple");
    // Just below the int32 bound is accepted.
    cfg = scenario_config::paper_dynamic();
    cfg.seed_upload_multiple = 21474836.0;
    cfg.peer_upload_max_multiple = 21474836.0;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(instance_gen, respects_shape_parameters) {
    uniform_instance_params params;
    params.num_requests = 17;
    params.num_uploaders = 5;
    params.candidates_per_request = 3;
    auto p = make_uniform_instance(params);
    EXPECT_EQ(p.num_requests(), 17u);
    EXPECT_EQ(p.num_uploaders(), 5u);
    for (std::size_t r = 0; r < p.num_requests(); ++r) {
        EXPECT_EQ(p.candidates(r).size(), 3u);
        // Candidates must be distinct uploaders.
        auto c = p.candidates(r);
        for (std::size_t i = 0; i < c.size(); ++i)
            for (std::size_t j = i + 1; j < c.size(); ++j)
                EXPECT_NE(c[i].uploader, c[j].uploader);
    }
}

TEST(instance_gen, candidate_count_capped_by_uploaders) {
    uniform_instance_params params;
    params.num_uploaders = 2;
    params.candidates_per_request = 10;
    auto p = make_uniform_instance(params);
    for (std::size_t r = 0; r < p.num_requests(); ++r)
        EXPECT_LE(p.candidates(r).size(), 2u);
}

TEST(instance_gen, integer_mode_produces_integers) {
    uniform_instance_params params;
    params.integer_values = true;
    params.valuation_min = 0;
    params.valuation_max = 10;
    params.cost_min = 0;
    params.cost_max = 10;
    auto p = make_uniform_instance(params);
    for (std::size_t r = 0; r < p.num_requests(); ++r) {
        EXPECT_DOUBLE_EQ(p.request(r).valuation, std::round(p.request(r).valuation));
        for (const auto& c : p.candidates(r))
            EXPECT_DOUBLE_EQ(c.cost, std::round(c.cost));
    }
}

TEST(instance_gen, deterministic_per_seed) {
    auto a = make_uniform_instance({.seed = 77});
    auto b = make_uniform_instance({.seed = 77});
    ASSERT_EQ(a.num_requests(), b.num_requests());
    for (std::size_t r = 0; r < a.num_requests(); ++r)
        EXPECT_DOUBLE_EQ(a.request(r).valuation, b.request(r).valuation);
}

TEST(instance_gen, isp_instances_have_two_tier_costs) {
    auto inst = make_isp_instance({.num_isps = 3, .peers_per_isp = 5, .seed = 4});
    EXPECT_EQ(inst.problem.num_uploaders(), 15u);
    EXPECT_EQ(inst.uploader_isp.size(), 15u);
    EXPECT_EQ(inst.request_isp.size(), inst.problem.num_requests());

    double intra_sum = 0.0;
    double inter_sum = 0.0;
    std::size_t intra_n = 0;
    std::size_t inter_n = 0;
    for (std::size_t r = 0; r < inst.problem.num_requests(); ++r) {
        for (const auto& c : inst.problem.candidates(r)) {
            bool same = inst.uploader_isp[c.uploader] == inst.request_isp[r];
            (same ? intra_sum : inter_sum) += c.cost;
            ++(same ? intra_n : inter_n);
        }
    }
    ASSERT_GT(intra_n, 0u);
    ASSERT_GT(inter_n, 0u);
    EXPECT_LT(intra_sum / static_cast<double>(intra_n),
              inter_sum / static_cast<double>(inter_n))
        << "crossing an ISP boundary must cost more on average";
}

}  // namespace
}  // namespace p2pcd::workload
