// Min-cost max-flow with successive shortest paths and Johnson potentials.
//
// Behind opt::solve_exact, the reference optimum for the paper's
// transportation-form scheduling problem: the LP relaxation of problem (1) is
// integral, and an SSP min-cost flow on the bipartite request/bandwidth
// network produces the optimal binary schedule plus node potentials from
// which the optimal dual prices λ_u are recovered (see transportation.h).
#ifndef P2PCD_OPT_MCMF_H
#define P2PCD_OPT_MCMF_H

#include <cstdint>
#include <limits>
#include <vector>

namespace p2pcd::opt {

class min_cost_flow {
public:
    using node = std::size_t;
    using edge_id = std::size_t;

    // Adds `count` nodes, returns the first new node index.
    node add_nodes(std::size_t count);

    // Adds a directed edge; returns its id for later flow queries.
    edge_id add_edge(node from, node to, std::int64_t capacity, double cost);

    struct result {
        std::int64_t flow = 0;
        double cost = 0.0;
    };

    // Pushes up to `max_flow` units from s to t along successive shortest
    // (reduced-cost) paths. Supports negative edge costs on the initial graph
    // (one Bellman-Ford pass seeds the potentials).
    result solve(node s, node t,
                 std::int64_t max_flow = std::numeric_limits<std::int64_t>::max());

    [[nodiscard]] std::int64_t flow_on(edge_id e) const;
    [[nodiscard]] double potential(node v) const;
    [[nodiscard]] std::size_t num_nodes() const noexcept { return adjacency_.size(); }

private:
    struct arc {
        node to;
        std::int64_t capacity;  // residual capacity
        double cost;
        edge_id reverse;  // index of the paired reverse arc
    };

    void bellman_ford(node s);
    bool dijkstra(node s, node t, std::vector<edge_id>& parent_arc);

    std::vector<arc> arcs_;
    std::vector<std::vector<edge_id>> adjacency_;
    std::vector<double> potential_;
    std::vector<edge_id> user_edge_;  // user edge id -> forward arc index
};

}  // namespace p2pcd::opt

#endif  // P2PCD_OPT_MCMF_H
