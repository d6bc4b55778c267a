#include "ppr/topk.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/assert.hpp"

namespace meloppr::ppr {

std::vector<ScoredNode> top_k(std::vector<ScoredNode> scores, std::size_t k) {
  const auto better = [](const ScoredNode& a, const ScoredNode& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  };
  if (scores.size() > k) {
    std::nth_element(scores.begin(),
                     scores.begin() + static_cast<std::ptrdiff_t>(k),
                     scores.end(), better);
    scores.resize(k);
  }
  std::sort(scores.begin(), scores.end(), better);
  // Release the rest of the score table: a QueryResult keeps its top-k
  // alive until the client collects it.
  scores.shrink_to_fit();
  return scores;
}

double precision_at_k(const std::vector<ScoredNode>& truth,
                      const std::vector<ScoredNode>& approx, std::size_t k) {
  MELO_CHECK(k > 0);
  std::unordered_set<NodeId> truth_set;
  truth_set.reserve(truth.size());
  for (const auto& sn : truth) truth_set.insert(sn.node);
  std::size_t hits = 0;
  for (const auto& sn : approx) {
    if (truth_set.count(sn.node) != 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace meloppr::ppr
