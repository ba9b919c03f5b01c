#include "workload/scenario.h"

#include <cmath>

#include "common/contracts.h"

namespace p2pcd::workload {

void scenario_config::validate() const {
    expects(num_videos > 0, "scenario needs at least one video");
    expects(num_isps > 0, "scenario needs at least one ISP");
    // The derived counts (chunks_per_video(), chunks_per_slot(), num_slots())
    // cast these to std::size_t, so an infinite or NaN value must not get
    // that far.
    expects(std::isfinite(chunk_size_kb) && chunk_size_kb > 0.0,
            "chunk_size_kb must be positive and finite");
    expects(std::isfinite(video_size_mb) && video_size_mb > 0.0,
            "video_size_mb must be positive and finite");
    expects(std::isfinite(bitrate_kbps) && bitrate_kbps > 0.0,
            "bitrate_kbps must be positive and finite");
    expects(std::isfinite(slot_seconds) && slot_seconds > 0.0,
            "slot_seconds must be positive and finite");
    expects(std::isfinite(horizon_seconds), "horizon_seconds must be finite");
    expects(horizon_seconds >= slot_seconds, "horizon must cover at least one slot");
    expects(peer_upload_min_multiple > 0.0 &&
                peer_upload_max_multiple >= peer_upload_min_multiple,
            "peer upload range must be positive and ordered");
    expects(seed_upload_multiple > 0.0, "seed_upload_multiple must be positive");
    expects(std::isfinite(arrival_rate) && arrival_rate >= 0.0,
            "arrival_rate must be non-negative and finite");
    expects(departure_probability >= 0.0 && departure_probability <= 1.0,
            "departure probability must be in [0,1]");
    expects(valuation_min <= valuation_max, "valuation clamp range must be ordered");
    // Finite is not enough: each derived count must also fit the integer
    // type it is converted to, since converting a larger double is
    // undefined. NaN fails every `<` below.
    constexpr double size_limit = 18446744073709551616.0;  // 2^64: std::size_t
    constexpr double u32_limit = 4294967296.0;             // 2^32
    constexpr double i32_limit = 2147483648.0;             // 2^31
    expects(horizon_seconds / slot_seconds < size_limit,
            "num_slots (horizon_seconds / slot_seconds) must fit std::size_t");
    // buffer_map stores a video's chunk count as u32.
    expects(video_size_mb * 1024.0 / chunk_size_kb < u32_limit,
            "chunks_per_video (video_size_mb * 1024 / chunk_size_kb) must fit "
            "32 bits");
    expects(chunks_per_second() * slot_seconds < size_limit,
            "chunks_per_slot (bitrate_kbps / 8 / chunk_size_kb * slot_seconds) "
            "must fit std::size_t");
    // Upload capacities are int32 chunk counts per slot.
    const auto per_slot = static_cast<double>(chunks_per_slot());
    expects(seed_upload_multiple * per_slot < i32_limit,
            "seed_upload_multiple * chunks_per_slot must fit an int32 upload "
            "capacity");
    expects(peer_upload_max_multiple * per_slot < i32_limit,
            "peer_upload_max_multiple * chunks_per_slot must fit an int32 upload "
            "capacity");
    expects(chunks_per_video() > 0, "videos must contain at least one chunk");
    expects(prefetch_chunks >= chunks_per_slot(),
            "prefetch window must cover one slot of playback, or the window "
            "itself caps throughput");
    expects(initial_position_max_fraction > 0.0 && initial_position_max_fraction <= 1.0,
            "initial position fraction must be in (0, 1]");
    economy.validate();
}

scenario_config scenario_config::paper_dynamic() {
    scenario_config config;  // defaults are the paper's numbers
    config.arrival_rate = 1.0;
    config.initial_peers = 0;
    config.departure_probability = 0.0;
    return config;
}

scenario_config scenario_config::paper_static_500() {
    scenario_config config;
    config.arrival_rate = 0.0;
    config.initial_peers = 500;
    config.departure_probability = 0.0;
    return config;
}

scenario_config scenario_config::paper_churn() {
    scenario_config config;
    config.arrival_rate = 1.0;
    config.initial_peers = 0;
    config.departure_probability = 0.6;
    return config;
}

scenario_config scenario_config::metro_5k() {
    scenario_config config;
    config.num_isps = 20;
    config.arrival_rate = 0.0;
    config.initial_peers = 5000;
    config.departure_probability = 0.0;
    // Like the paper's static network: everyone joined recently and stays
    // online through the horizon.
    config.initial_position_max_fraction = 0.05;
    // One seed per ISP per video (2 000 seeds) — supply stays scarce relative
    // to the 5 000 viewers, so schedulers keep facing real contention.
    config.seeds_per_isp_per_video = 1;
    return config;
}

scenario_config scenario_config::metro_20k() {
    // Four stacked metros: the population the pre-refactor tracker made
    // impractical (its per-peer stable_sort re-scanned every pool once per
    // peer per slot). Same supply ratio knobs as metro_5k, 4x the viewers.
    scenario_config config = metro_5k();
    config.initial_peers = 20000;
    return config;
}

scenario_config scenario_config::flash_crowd_10k() {
    scenario_config config;
    // A small hot catalog is what makes it a flash crowd: demand concentrates
    // instead of spreading over 100 titles.
    config.num_videos = 10;
    config.num_isps = 10;
    config.arrival_rate = 40.0;  // ~10 000 joins over the 250 s horizon
    config.initial_peers = 0;
    config.departure_probability = 0.0;
    return config;
}

scenario_config scenario_config::metro_economy() {
    scenario_config config = metro_5k();
    config.economy.enabled = true;
    config.economy.peering = "hierarchical";
    config.economy.region_size = 5;  // 20 metro ISPs → 4 regions
    config.economy.capacity_hint = 40.0;
    config.economy.slots_per_epoch = 5;  // 25 slots → 5 pricing epochs
    return config;
}

scenario_config scenario_config::economy_smoke() {
    scenario_config config = small_test();
    config.economy.enabled = true;
    config.economy.peering = "tiered";
    config.economy.tier1_fraction = 0.3;  // 3 ISPs → 1 tier-1 core ISP
    config.economy.capacity_hint = 8.0;
    config.economy.slots_per_epoch = 3;  // 6 slots → 2 pricing epochs
    return config;
}

scenario_config scenario_config::coupled_smoke() {
    // economy_smoke plus a live arrival process — admission gating needs
    // arrivals to gate. ~2 joins/s over the 60 s horizon stays seconds-scale
    // while still pressuring a capacity-constrained peering pair.
    scenario_config config = economy_smoke();
    config.arrival_rate = 2.0;
    config.initial_peers = 20;
    return config;
}

scenario_config scenario_config::flash_economy() {
    // The flash crowd with an ISP economy underneath: 10 ISPs in 2 regions
    // and per-pair capacity hints, so simultaneous arrival-driven swarms
    // contend for the same managed links — the cross-swarm coupling topology.
    scenario_config config = flash_crowd_10k();
    config.economy.enabled = true;
    config.economy.peering = "hierarchical";
    config.economy.region_size = 5;  // 10 ISPs → 2 regions
    config.economy.capacity_hint = 60.0;
    config.economy.slots_per_epoch = 5;
    return config;
}

scenario_config scenario_config::small_test() {
    scenario_config config;
    config.num_videos = 5;
    config.video_size_mb = 1.0;   // 128 chunks ≈ 12.8 s of video
    config.num_isps = 3;
    config.neighbor_count = 10;
    // Must cover at least one slot of consumption (chunks_per_slot = 100),
    // otherwise the window itself caps throughput and misses are structural.
    config.prefetch_chunks = 110;
    config.seeds_per_isp_per_video = 1;
    config.horizon_seconds = 60.0;
    config.arrival_rate = 0.0;
    config.initial_peers = 30;
    return config;
}

}  // namespace p2pcd::workload
