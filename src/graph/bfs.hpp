// Depth-limited BFS and ball extraction — the CPU-side "sub-graph
// preparation" step of the paper's co-design (Fig. 4: "BFS from seed",
// "BFS from v_i1", ...). Its wall-clock share of a query is the light-blue
// "BFS time percentage" bar in Fig. 7.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"

namespace meloppr::graph {

/// Statistics of one extraction, fed to latency/memory accounting.
struct BfsStats {
  std::size_t nodes_visited = 0;
  std::size_t arcs_scanned = 0;  ///< adjacency entries touched by the BFS
};

/// Extracts the induced sub-graph of the depth-`radius` BFS ball around
/// `seed`. The ball's arrays are allocated at exactly its size. Global ids
/// map to local ids through the calling thread's VisitTable
/// (graph/visit_table.hpp): 8 B × |V| per extracting thread, allocated once
/// and reused, so one extraction touches only the ball's entries of it.
///
/// Throws std::invalid_argument for an out-of-range or isolated seed.
Subgraph extract_ball(const Graph& g, NodeId seed, unsigned radius,
                      BfsStats* stats = nullptr);

/// Plain depth-limited BFS returning the global ids reachable within
/// `radius` (including the seed), in BFS order. Used by callers that only
/// need reachability, and by tests as an oracle: it stays hash-based on
/// purpose, independent of extract_ball's visit table.
std::vector<NodeId> bfs_nodes(const Graph& g, NodeId seed, unsigned radius);

/// Eccentricity-bounded distance: hops from `from` to `to`, or -1 if `to`
/// is farther than `max_radius`. Reference implementation for tests.
int bounded_distance(const Graph& g, NodeId from, NodeId to,
                     unsigned max_radius);

}  // namespace meloppr::graph
