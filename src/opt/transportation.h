// The transportation form of the paper's chunk-scheduling problem (Sec. IV-A).
//
// Sources are chunk requests (Id, c), each demanding at most one unit; sinks
// are upstream peers offering B(u) interchangeable units of upload bandwidth;
// an edge's profit is the request's net utility v − w for that upstream peer.
// "Unassigned" is always allowed (a request can simply stay unserved at zero
// utility), matching the ≤ constraints and η ≥ 0 duals of the paper's LP.
//
// Three solvers live here:
//  * solve_transportation_simplex — primal network simplex; what core's
//                         "exact" scheduler runs, and so the yardstick
//                         against which Theorem 1 (auction optimality) is
//                         verified;
//  * solve_exact        — min-cost max-flow; the independently-derived
//                         reference optimum the tests hold the simplex
//                         against;
//  * solve_brute_force  — exponential enumeration for tiny instances, used to
//                         validate solve_exact itself.
#ifndef P2PCD_OPT_TRANSPORTATION_H
#define P2PCD_OPT_TRANSPORTATION_H

#include <cstdint>
#include <vector>

namespace p2pcd::opt {

struct transportation_edge {
    std::size_t source = 0;
    std::size_t sink = 0;
    double profit = 0.0;  // v^{(c)}(d) − w_{u→d}
};

struct transportation_instance {
    std::size_t num_sources = 0;
    std::vector<std::int64_t> sink_capacity;  // B(u), one per sink
    std::vector<transportation_edge> edges;

    [[nodiscard]] std::size_t num_sinks() const noexcept { return sink_capacity.size(); }
    void validate() const;  // throws contract_violation on malformed input
};

inline constexpr std::ptrdiff_t unassigned = -1;

struct transportation_solution {
    // For each source: index into instance.edges, or `unassigned`.
    std::vector<std::ptrdiff_t> edge_of_source;
    double welfare = 0.0;
    // Dual prices: λ per sink (bandwidth price), η per source (request utility).
    std::vector<double> sink_price;
    std::vector<double> source_utility;
    // Simplex pivots performed (0 for solve_exact): a deterministic measure
    // of how hard the instance fought, surfaced through obs::counters.
    std::uint64_t pivots = 0;
};

[[nodiscard]] transportation_solution solve_exact(const transportation_instance& instance);

// Primal network simplex on the transportation form (transportation_simplex.cpp).
// Same contract as solve_exact — optimal primal, feasible duals — via a
// different algorithm: a strongly feasible spanning-tree basis (Cunningham)
// pivoted until no arc prices out. core's "exact" scheduler runs it; the
// solver-equivalence property suite holds its optima against solve_exact's.
[[nodiscard]] transportation_solution solve_transportation_simplex(
    const transportation_instance& instance);

// Exhaustive search; precondition: instance.num_sources <= 12.
[[nodiscard]] transportation_solution solve_brute_force(
    const transportation_instance& instance);

}  // namespace p2pcd::opt

#endif  // P2PCD_OPT_TRANSPORTATION_H
