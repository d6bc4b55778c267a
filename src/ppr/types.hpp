// Shared score types for PPR computations.
#pragma once

#include "graph/graph.hpp"

namespace meloppr::ppr {

using graph::NodeId;

/// A (global node, PPR score) pair.
struct ScoredNode {
  NodeId node = graph::kInvalidNode;
  double score = 0.0;

  friend bool operator==(const ScoredNode&, const ScoredNode&) = default;
};

}  // namespace meloppr::ppr
