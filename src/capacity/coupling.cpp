#include "capacity/coupling.h"

#include <cmath>

#include "common/contracts.h"

namespace p2pcd::capacity {

void coupling_config::validate() const {
    if (!enabled) return;
    // Non-finite values would reach the surcharge and budget arithmetic and
    // the uplink broker's int32 casts, so each is rejected by name.
    expects(std::isfinite(link_capacity_scale) && link_capacity_scale > 0.0,
            "link_capacity_scale must be positive and finite");
    expects(std::isfinite(surcharge_gain) && surcharge_gain >= 0.0,
            "surcharge_gain must be non-negative and finite");
    expects(std::isfinite(max_surcharge) && max_surcharge >= 1.0,
            "max_surcharge must be finite and at least 1");
    expects(surcharge_relax >= 0.0 && surcharge_relax < 1.0,
            "surcharge relax must lie in [0, 1)");
    expects(std::isfinite(uplink_budget_multiple) && uplink_budget_multiple > 0.0,
            "uplink_budget_multiple must be positive and finite");
    expects(uplink_min_share >= 0.0 && uplink_min_share <= 1.0,
            "uplink min share must lie in [0, 1]");
    expects(std::isfinite(admission_gain) && admission_gain > 0.0,
            "admission_gain must be positive and finite");
    expects(std::isfinite(viewer_demand_chunks) && viewer_demand_chunks > 0.0,
            "viewer_demand_chunks must be positive and finite");
    expects(admission_retry_slots > 0, "retry delay must be at least one slot");
}

}  // namespace p2pcd::capacity
