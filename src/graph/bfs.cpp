#include "graph/bfs.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "graph/visit_table.hpp"
#include "util/assert.hpp"

namespace meloppr::graph {

Subgraph extract_ball(const Graph& g, NodeId seed, unsigned radius,
                      BfsStats* stats) {
  if (seed >= g.num_nodes()) {
    throw std::invalid_argument("extract_ball: seed " + std::to_string(seed) +
                                " out of range");
  }
  if (g.degree(seed) == 0) {
    throw std::invalid_argument("extract_ball: seed " + std::to_string(seed) +
                                " is isolated");
  }

  // `locals` doubles as the BFS queue: nodes are appended in discovery
  // order and scanned with a cursor. The visit table maps each member's
  // global id to its local id.
  VisitTable& seen = VisitTable::for_thread(g.num_nodes());
  std::vector<NodeId> locals;           // local -> global
  std::vector<std::uint16_t> depth;     // local -> BFS depth
  seen.visit(seed, 0);
  locals.push_back(seed);
  depth.push_back(0);

  std::size_t arcs_scanned = 0;
  for (std::size_t cursor = 0; cursor < locals.size(); ++cursor) {
    const std::uint16_t d = depth[cursor];
    if (d >= radius) continue;  // frontier: do not expand further
    const NodeId u_global = locals[cursor];
    for (NodeId w : g.neighbors(u_global)) {
      ++arcs_scanned;
      if (seen.visit(w, static_cast<NodeId>(locals.size()))) {
        locals.push_back(w);
        depth.push_back(static_cast<std::uint16_t>(d + 1));
      }
    }
  }

  const std::size_t n = locals.size();

  // Induced arcs: for each member, keep the neighbors that are members.
  // Interior nodes keep everything (the BFS expanded them, so all their
  // neighbors are in the ball); frontier nodes get truncated, which
  // diffusion never observes. Counting first sizes every array exactly:
  // Subgraph::bytes() counts capacity, and the cache budgets by it.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<std::uint32_t> global_degree(n);
  for (NodeId lu = 0; lu < n; ++lu) {
    const NodeId gu = locals[lu];
    global_degree[lu] = static_cast<std::uint32_t>(g.degree(gu));
    std::uint64_t kept = global_degree[lu];
    if (depth[lu] >= radius) {
      kept = 0;
      for (NodeId gw : g.neighbors(gu)) {
        if (seen.slot(gw) != kInvalidNode) ++kept;
      }
    }
    offsets[lu + 1] = offsets[lu] + kept;
  }
  std::vector<NodeId> targets(offsets[n]);
  for (NodeId lu = 0; lu < n; ++lu) {
    std::uint64_t pos = offsets[lu];
    for (NodeId gw : g.neighbors(locals[lu])) {
      const NodeId lw = seen.slot(gw);
      if (lw != kInvalidNode) targets[pos++] = lw;
    }
    // Local ids are assigned in BFS order, not global order, so the induced
    // adjacency must be re-sorted to satisfy the Subgraph invariant.
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[lu]),
              targets.begin() + static_cast<std::ptrdiff_t>(offsets[lu + 1]));
  }

  if (stats != nullptr) {
    stats->nodes_visited = n;
    stats->arcs_scanned = arcs_scanned;
  }
  return Subgraph(std::move(offsets), std::move(targets), std::move(locals),
                  std::move(global_degree), std::move(depth), radius);
}

std::vector<NodeId> bfs_nodes(const Graph& g, NodeId seed, unsigned radius) {
  MELO_CHECK(seed < g.num_nodes());
  std::unordered_map<NodeId, std::uint16_t> dist;
  std::vector<NodeId> order;
  dist.emplace(seed, 0);
  order.push_back(seed);
  for (std::size_t cursor = 0; cursor < order.size(); ++cursor) {
    const NodeId u = order[cursor];
    const std::uint16_t d = dist.at(u);
    if (d >= radius) continue;
    for (NodeId w : g.neighbors(u)) {
      if (dist.emplace(w, static_cast<std::uint16_t>(d + 1)).second) {
        order.push_back(w);
      }
    }
  }
  return order;
}

int bounded_distance(const Graph& g, NodeId from, NodeId to,
                     unsigned max_radius) {
  MELO_CHECK(from < g.num_nodes() && to < g.num_nodes());
  if (from == to) return 0;
  std::unordered_map<NodeId, std::uint16_t> dist;
  std::vector<NodeId> queue;
  dist.emplace(from, 0);
  queue.push_back(from);
  for (std::size_t cursor = 0; cursor < queue.size(); ++cursor) {
    const NodeId u = queue[cursor];
    const std::uint16_t d = dist.at(u);
    if (d >= max_radius) continue;
    for (NodeId w : g.neighbors(u)) {
      if (dist.emplace(w, static_cast<std::uint16_t>(d + 1)).second) {
        if (w == to) return d + 1;
        queue.push_back(w);
      }
    }
  }
  return -1;
}

}  // namespace meloppr::graph
