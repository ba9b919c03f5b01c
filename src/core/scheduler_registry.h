// String → factory registry of scheduling algorithms.
//
// The emulator, the figure benches, the scaling bench and the experiment
// runner all resolve their scheduler by name through one of these, so adding
// an algorithm means registering a factory — no emulator or bench edits.
//
// `scheduler_params` is the plain-data bag of knobs the built-in factories
// read; custom factories are free to ignore it (capture your own options in
// the closure instead). The registry is a value type: copy the built-in one
// (baseline/registry.h) and `add()` your own algorithms on top.
#ifndef P2PCD_CORE_SCHEDULER_REGISTRY_H
#define P2PCD_CORE_SCHEDULER_REGISTRY_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/auction.h"
#include "core/problem.h"

namespace p2pcd::core {

struct scheduler_params {
    // "auction": full option set (ε policy, iteration budget, dual recovery).
    auction_options auction{.bidding = {bid_policy::epsilon, 0.05}};
    // "simple-locality": retry budget ("as much as possible" knob).
    std::size_t locality_max_rounds = 3;
    // Seeded schedulers ("random"): initial seed; the emulator re-keys it
    // every bidding round through scheduler::reseed().
    std::uint64_t seed = 1;
};

class scheduler_registry {
public:
    using factory =
        std::function<std::unique_ptr<scheduler>(const scheduler_params& params)>;

    // Registers `make` under `name`. Throws contract_violation when the name
    // is empty or already taken.
    void add(std::string name, factory make);

    [[nodiscard]] bool contains(std::string_view name) const;

    // Registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const;

    // Instantiates the named scheduler. Unknown names throw contract_violation
    // with a message listing every registered name.
    [[nodiscard]] std::unique_ptr<scheduler> make(
        std::string_view name, const scheduler_params& params = {}) const;

private:
    std::map<std::string, factory, std::less<>> factories_;
};

// Registers the schedulers implemented in core: "auction" and "exact".
// (baseline/registry.h adds the comparison baselines and provides the
// fully-populated built-in registry.)
void register_core_schedulers(scheduler_registry& registry);

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_SCHEDULER_REGISTRY_H
