// Top-k selection R(S, k) and the precision metric Prec(s, k) of Sec. II.
//
// Ties are broken deterministically by ascending node id so that every
// method (CPU float, FPGA integer, baselines) ranks identically-scored nodes
// the same way — without this, precision comparisons would be noisy.
#pragma once

#include <cstddef>
#include <vector>

#include "ppr/types.hpp"

namespace meloppr::ppr {

/// Returns the k highest-scored nodes in descending score order (ties by
/// ascending id). If fewer than k nodes are present, returns all of them.
std::vector<ScoredNode> top_k(std::vector<ScoredNode> scores, std::size_t k);

/// Prec(s,k) = |approx ∩ truth| / k  (Sec. II "Measurement"). `truth` and
/// `approx` are top-k lists; only node identities matter. The divisor is
/// `k`, not |truth|, matching the paper.
double precision_at_k(const std::vector<ScoredNode>& truth,
                      const std::vector<ScoredNode>& approx, std::size_t k);

}  // namespace meloppr::ppr
