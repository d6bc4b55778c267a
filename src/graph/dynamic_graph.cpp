#include "graph/dynamic_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "graph/visit_table.hpp"

namespace meloppr::graph {
namespace {

/// Inserts `v` into a sorted vector if absent; returns true when inserted.
bool sorted_insert(std::vector<NodeId>& vec, NodeId v) {
  const auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it != vec.end() && *it == v) return false;
  vec.insert(it, v);
  return true;
}

/// Removes `v` from a sorted vector if present; returns true when removed.
bool sorted_erase(std::vector<NodeId>& vec, NodeId v) {
  const auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it == vec.end() || *it != v) return false;
  vec.erase(it);
  return true;
}

bool sorted_contains(const std::vector<NodeId>& vec, NodeId v) {
  return std::binary_search(vec.begin(), vec.end(), v);
}

}  // namespace

DynamicGraph::DynamicGraph(Graph base, DynamicGraphConfig config)
    : base_(std::move(base)),
      config_(config),
      num_nodes_(base_.num_nodes()),
      num_edges_(base_.num_edges()) {
  if (config_.compaction_fraction < 0.0) {
    throw std::invalid_argument(
        "DynamicGraph: compaction_fraction must be >= 0");
  }
}

std::uint64_t DynamicGraph::apply(const EdgeUpdate& update) {
  util::WriterLock lock(mu_);
  const std::size_t n = num_nodes_;
  if (update.u >= n || update.v >= n) {
    throw std::invalid_argument("DynamicGraph::apply: endpoint out of range");
  }
  if (update.u == update.v) {
    throw std::invalid_argument("DynamicGraph::apply: self-loop");
  }
  const bool present = has_edge_locked(update.u, update.v);
  if (update.insert && present) {
    throw std::invalid_argument(
        "DynamicGraph::apply: insert of edge already present {" +
        std::to_string(update.u) + ", " + std::to_string(update.v) + "}");
  }
  if (!update.insert && !present) {
    throw std::invalid_argument(
        "DynamicGraph::apply: delete of absent edge {" +
        std::to_string(update.u) + ", " + std::to_string(update.v) + "}");
  }

  // Listeners (cache invalidation) run BEFORE the mutation, on a view of
  // the pre-update graph, and before the version bump publishes: a thread
  // observing version >= next also observes the purged cache.
  const std::uint64_t next = version_.load(std::memory_order_relaxed) + 1;
  const View before(*this);
  for (const ListenerSlot& slot : listeners_) slot.fn(update, next, before);

  // Mutate both half-edges. An insert that undoes a prior delete shrinks
  // the overlay instead of growing it, and vice versa.
  const auto apply_half = [&](NodeId from, NodeId to) {
    VertexDelta& delta = deltas_[from];
    if (update.insert) {
      if (sorted_erase(delta.removed, to)) {
        --delta_half_edges_;
      } else {
        sorted_insert(delta.added, to);
        ++delta_half_edges_;
      }
    } else {
      if (sorted_erase(delta.added, to)) {
        --delta_half_edges_;
      } else {
        sorted_insert(delta.removed, to);
        ++delta_half_edges_;
      }
    }
    if (delta.added.empty() && delta.removed.empty()) deltas_.erase(from);
  };
  apply_half(update.u, update.v);
  apply_half(update.v, update.u);
  num_edges_ += update.insert ? 1 : static_cast<std::size_t>(-1);

  history_.push_back({update, next});
  while (history_.size() > config_.history_capacity) history_.pop_front();
  version_.store(next, std::memory_order_release);

  if (config_.compaction_fraction > 0.0) {
    const std::size_t threshold = std::max<std::size_t>(
        64, static_cast<std::size_t>(config_.compaction_fraction *
                                     static_cast<double>(base_.num_arcs())));
    if (delta_half_edges_ >= threshold) compact_locked();
  }
  return next;
}

std::size_t DynamicGraph::num_nodes() const {
  // The node universe is fixed at construction; no lock needed.
  return num_nodes_;
}

std::size_t DynamicGraph::num_edges() const {
  util::ReaderLock lock(mu_);
  return num_edges_;
}

std::size_t DynamicGraph::degree(NodeId v) const {
  util::ReaderLock lock(mu_);
  if (v >= num_nodes_) {
    throw std::invalid_argument("DynamicGraph::degree: node out of range");
  }
  return degree_locked(v);
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const {
  util::ReaderLock lock(mu_);
  if (u >= num_nodes_ || v >= num_nodes_) return false;
  return has_edge_locked(u, v);
}

std::size_t DynamicGraph::delta_edges() const {
  util::ReaderLock lock(mu_);
  return delta_half_edges_;
}

std::size_t DynamicGraph::compactions() const {
  util::ReaderLock lock(mu_);
  return compactions_;
}

bool DynamicGraph::has_edge_locked(NodeId u, NodeId v) const {
  const auto it = deltas_.find(u);
  if (it != deltas_.end()) {
    if (sorted_contains(it->second.added, v)) return true;
    if (sorted_contains(it->second.removed, v)) return false;
  }
  return base_.has_edge(u, v);
}

std::size_t DynamicGraph::degree_locked(NodeId v) const {
  std::size_t d = base_.degree(v);
  const auto it = deltas_.find(v);
  if (it != deltas_.end()) {
    d += it->second.added.size();
    d -= it->second.removed.size();
  }
  return d;
}

std::span<const NodeId> DynamicGraph::row_locked(
    NodeId v, std::vector<NodeId>& buf) const {
  const std::span<const NodeId> base = base_.neighbors(v);
  const auto it = deltas_.find(v);
  if (it == deltas_.end()) return base;
  const std::vector<NodeId>& added = it->second.added;
  const std::vector<NodeId>& removed = it->second.removed;
  buf.clear();
  // One sorted pass: base minus removed, merged with added. `removed` is a
  // subset of base and `added` is disjoint from it, so plain merge keeps
  // the output sorted and duplicate-free — the GraphBuilder invariant a
  // from-scratch rebuild would produce, which is what makes incremental
  // BFS discovery order identical to the rebuilt graph's.
  std::size_t bi = 0;
  std::size_t ai = 0;
  std::size_t ri = 0;
  while (bi < base.size() || ai < added.size()) {
    if (bi < base.size() && ri < removed.size() && base[bi] == removed[ri]) {
      ++bi;
      ++ri;
      continue;
    }
    if (ai >= added.size() || (bi < base.size() && base[bi] < added[ai])) {
      buf.push_back(base[bi++]);
    } else {
      buf.push_back(added[ai++]);
    }
  }
  return buf;
}

Subgraph DynamicGraph::extract_ball(NodeId root, unsigned radius,
                                    std::uint64_t* version_out) const {
  util::ReaderLock lock(mu_);
  if (version_out != nullptr) {
    *version_out = version_.load(std::memory_order_relaxed);
  }
  if (root >= num_nodes_) {
    throw std::invalid_argument("DynamicGraph::extract_ball: seed " +
                                std::to_string(root) + " out of range");
  }
  if (degree_locked(root) == 0) {
    throw std::invalid_argument("DynamicGraph::extract_ball: seed " +
                                std::to_string(root) + " is isolated");
  }

  // The same BFS and the same count-then-fill passes as
  // graph::extract_ball, over merged adjacency. Base rows are read in
  // place; only overlay vertices are merged, into the one reused `buf`.
  VisitTable& seen = VisitTable::for_thread(num_nodes_);
  std::vector<NodeId> locals;
  std::vector<std::uint16_t> depth;
  std::vector<NodeId> buf;
  seen.visit(root, 0);
  locals.push_back(root);
  depth.push_back(0);

  for (std::size_t cursor = 0; cursor < locals.size(); ++cursor) {
    const std::uint16_t d = depth[cursor];
    if (d >= radius) continue;
    for (NodeId w : row_locked(locals[cursor], buf)) {
      if (seen.visit(w, static_cast<NodeId>(locals.size()))) {
        locals.push_back(w);
        depth.push_back(static_cast<std::uint16_t>(d + 1));
      }
    }
  }
  const std::size_t n = locals.size();

  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<std::uint32_t> global_degree(n);
  for (NodeId lu = 0; lu < n; ++lu) {
    const std::span<const NodeId> row = row_locked(locals[lu], buf);
    global_degree[lu] = static_cast<std::uint32_t>(row.size());
    std::uint64_t kept = row.size();
    if (depth[lu] >= radius) {  // frontier: keep only member neighbors
      kept = 0;
      for (NodeId gw : row) {
        if (seen.slot(gw) != kInvalidNode) ++kept;
      }
    }
    offsets[lu + 1] = offsets[lu] + kept;
  }
  std::vector<NodeId> targets(offsets[n]);
  for (NodeId lu = 0; lu < n; ++lu) {
    std::uint64_t pos = offsets[lu];
    for (NodeId gw : row_locked(locals[lu], buf)) {
      const NodeId lw = seen.slot(gw);
      if (lw != kInvalidNode) targets[pos++] = lw;
    }
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[lu]),
              targets.begin() + static_cast<std::ptrdiff_t>(offsets[lu + 1]));
  }
  return Subgraph(std::move(offsets), std::move(targets), std::move(locals),
                  std::move(global_degree), std::move(depth), radius);
}

std::vector<DynamicGraph::Reached> DynamicGraph::View::within(
    NodeId a, NodeId b, unsigned radius) const {
  graph_.assert_held_by_apply();
  return graph_.within_locked(a, b, radius);
}

std::vector<DynamicGraph::Reached> DynamicGraph::within_locked(
    NodeId a, NodeId b, unsigned radius) const {
  // One BFS seeded with both endpoints at hop 0 gives every vertex its
  // distance to the nearer one.
  VisitTable& seen = VisitTable::for_thread(num_nodes_);
  std::vector<Reached> reached;
  std::vector<NodeId> buf;
  for (const NodeId source : {a, b}) {
    if (seen.visit(source, 0)) reached.push_back({source, 0});
  }
  for (std::size_t cursor = 0; cursor < reached.size(); ++cursor) {
    const Reached from = reached[cursor];  // copy: push_back may reallocate
    if (from.hops >= radius) continue;
    for (NodeId w : row_locked(from.node, buf)) {
      if (seen.visit(w, 0)) {
        reached.push_back({w, static_cast<std::uint16_t>(from.hops + 1)});
      }
    }
  }
  return reached;
}

Graph DynamicGraph::materialize() const {
  util::ReaderLock lock(mu_);
  return materialize_locked();
}

Graph DynamicGraph::materialize_locked() const {
  GraphBuilder builder(num_nodes_);
  builder.reserve(num_edges_);
  const std::size_t n = num_nodes_;
  for (NodeId u = 0; u < n; ++u) {
    const auto it = deltas_.find(u);
    const std::vector<NodeId>* removed =
        it != deltas_.end() ? &it->second.removed : nullptr;
    for (NodeId w : base_.neighbors(u)) {
      if (w <= u) continue;  // each undirected edge once
      if (removed != nullptr && sorted_contains(*removed, w)) continue;
      builder.add_edge(u, w);
    }
  }
  for (const auto& [u, delta] : deltas_) {
    for (NodeId w : delta.added) {
      if (w > u) builder.add_edge(u, w);
    }
  }
  return builder.build();
}

bool DynamicGraph::touched_since(const Subgraph& ball,
                                 std::uint64_t since_version,
                                 std::uint64_t* checked_version_out) const {
  util::ReaderLock lock(mu_);
  const std::uint64_t now = version_.load(std::memory_order_relaxed);
  if (checked_version_out != nullptr) *checked_version_out = now;
  if (since_version >= now) return false;
  // The window must reach back to since_version + 1, else be conservative.
  if (history_.empty() || history_.front().version > since_version + 1) {
    return true;
  }
  for (auto it = history_.rbegin();
       it != history_.rend() && it->version > since_version; ++it) {
    if (ball.contains(it->update.u) || ball.contains(it->update.v)) {
      return true;
    }
  }
  return false;
}

std::size_t DynamicGraph::add_update_listener(UpdateListener listener) {
  util::WriterLock lock(mu_);
  const std::size_t id = next_listener_id_++;
  listeners_.push_back({id, std::move(listener)});
  return id;
}

void DynamicGraph::remove_listener(std::size_t id) {
  util::WriterLock lock(mu_);
  std::erase_if(listeners_,
                [id](const ListenerSlot& slot) { return slot.id == id; });
}

void DynamicGraph::compact_locked() {
  base_ = materialize_locked();
  deltas_.clear();
  delta_half_edges_ = 0;
  ++compactions_;
}

}  // namespace meloppr::graph
