#include "core/scheduler_registry.h"

#include "common/contracts.h"
#include "core/exact.h"

namespace p2pcd::core {

void scheduler_registry::add(std::string name, factory make) {
    expects(!name.empty(), "scheduler name must not be empty");
    expects(make != nullptr, "scheduler factory must not be null");
    auto [it, inserted] = factories_.emplace(std::move(name), std::move(make));
    if (!inserted)
        throw contract_violation("scheduler '" + it->first + "' is already registered");
}

bool scheduler_registry::contains(std::string_view name) const {
    return factories_.find(name) != factories_.end();
}

std::vector<std::string> scheduler_registry::names() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, make] : factories_) out.push_back(name);
    return out;  // std::map iterates sorted
}

std::unique_ptr<scheduler> scheduler_registry::make(
    std::string_view name, const scheduler_params& params) const {
    auto it = factories_.find(name);
    if (it == factories_.end()) {
        std::string known;
        for (const auto& [n, make] : factories_) {
            if (!known.empty()) known += ", ";
            known += n;
        }
        throw contract_violation("no scheduler named '" + std::string(name) +
                                 "'; registered: [" + known + "]");
    }
    auto made = it->second(params);
    ensures(made != nullptr, "scheduler factory returned null");
    return made;
}

void register_core_schedulers(scheduler_registry& registry) {
    registry.add("auction", [](const scheduler_params& params) {
        return std::make_unique<auction_solver>(params.auction);
    });
    registry.add("auction-par", [](const scheduler_params& params) {
        return std::make_unique<parallel_auction_solver>(params.parallel_auction);
    });
    registry.add("exact", [](const scheduler_params&) {
        return std::make_unique<exact_scheduler>();
    });
}

}  // namespace p2pcd::core
