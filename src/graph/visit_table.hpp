// Per-thread dense visited table for BFS over global vertex ids.
//
// Ball extraction (graph::extract_ball, DynamicGraph::extract_ball) and the
// cache's update-time invalidation BFS map global ids to slots: a ball's
// local id, or a hop count. A hash map keyed by global id pays a node
// allocation per member and a probe per scanned arc; this table is one
// interleaved {stamp, slot} entry per vertex, indexed directly. Starting a
// traversal bumps the epoch, which retires every entry at once; when the
// 32-bit epoch wraps, every stamp is zeroed so an entry from 2^32
// traversals ago can never read as current.
//
// Cost: 8 B × |V| of the largest graph the thread has traversed (2.7 MB on
// amazon), per traversing thread, held for the thread's lifetime. The
// table grows to the largest graph seen and never shrinks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace meloppr::graph {

class VisitTable {
 public:
  /// `epoch` is the stamp of the most recent traversal; tests start near
  /// the wrap to exercise the reset.
  explicit VisitTable(std::uint32_t epoch = 0) : epoch_(epoch) {}

  /// The calling thread's table, reset for a new traversal over ids
  /// [0, num_nodes). Traversals on one thread must not nest: the next
  /// for_thread() call retires every entry of the previous one.
  static VisitTable& for_thread(std::size_t num_nodes);

  /// Starts a new traversal over ids [0, num_nodes): grows the table if
  /// needed and retires every entry.
  void reset(std::size_t num_nodes);

  /// Marks `v` visited with `slot`. Returns false, changing nothing, if `v`
  /// was already visited in this traversal.
  bool visit(NodeId v, NodeId slot) {
    Entry& e = entries_[v];
    if (e.stamp == epoch_) return false;
    e = {epoch_, slot};
    return true;
  }

  /// The slot `v` was visited with in this traversal, or kInvalidNode.
  [[nodiscard]] NodeId slot(NodeId v) const {
    const Entry& e = entries_[v];
    return e.stamp == epoch_ ? e.slot : kInvalidNode;
  }

 private:
  struct Entry {
    std::uint32_t stamp = 0;  ///< epoch of the visit; 0 = never visited
    NodeId slot = 0;
  };
  std::vector<Entry> entries_;
  std::uint32_t epoch_;
};

}  // namespace meloppr::graph
