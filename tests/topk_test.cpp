#include "ppr/topk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_support.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace meloppr::ppr {
namespace {

TEST(TopK, OrdersByScoreThenId) {
  std::vector<ScoredNode> scores = {
      {5, 0.1}, {3, 0.5}, {9, 0.5}, {1, 0.3}};
  auto top = top_k(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 3u);  // 0.5, lower id first
  EXPECT_EQ(top[1].node, 9u);  // 0.5
  EXPECT_EQ(top[2].node, 1u);  // 0.3
}

TEST(TopK, FewerThanKReturnsAllSorted) {
  std::vector<ScoredNode> scores = {{2, 0.2}, {1, 0.9}};
  auto top = top_k(scores, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1u);
}

TEST(TopK, EmptyInput) {
  auto top = top_k(std::vector<ScoredNode>{}, 5);
  EXPECT_TRUE(top.empty());
}

TEST(TopK, ResultDoesNotKeepTheInputsCapacity) {
  // A query's score table holds thousands of entries; its top-k must not
  // pin that allocation for as long as the result lives.
  Rng rng(3);
  std::vector<ScoredNode> scores;
  for (NodeId v = 0; v < 10000; ++v) scores.push_back({v, rng.uniform()});
  constexpr std::size_t k = 200;
  const auto top = top_k(std::move(scores), k);
  ASSERT_EQ(top.size(), k);
  EXPECT_LE(top.capacity(), k);
}

TEST(TopK, DeterministicUnderPermutation) {
  std::vector<ScoredNode> a = {{4, 0.4}, {2, 0.4}, {7, 0.4}, {1, 0.4}};
  std::vector<ScoredNode> b = {{1, 0.4}, {7, 0.4}, {2, 0.4}, {4, 0.4}};
  auto ta = top_k(a, 2);
  auto tb = top_k(b, 2);
  ASSERT_EQ(ta.size(), 2u);
  EXPECT_EQ(ta[0].node, tb[0].node);
  EXPECT_EQ(ta[1].node, tb[1].node);
  EXPECT_EQ(ta[0].node, 1u);
  EXPECT_EQ(ta[1].node, 2u);
}

// --- randomized property tests (seed via --seed / MELOPPR_TEST_SEED) ---

TEST(TopKProperty, AgreesWithFullSortOnRandomInputs) {
  Rng base(meloppr::test::test_seed());
  const std::size_t rounds = meloppr::test::stress_iters(50);
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng = base.fork(round);
    const std::size_t n = 1 + rng.below(400);
    std::vector<ScoredNode> scores;
    scores.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Pinning 30% of scores at 0.5 forces the tie-breaking path.
      scores.push_back({static_cast<graph::NodeId>(rng.below(n)),
                        rng.uniform(0.0, 1.0) < 0.3
                            ? 0.5
                            : rng.uniform(-1.0, 1.0)});
    }
    std::vector<ScoredNode> reference = scores;
    std::sort(reference.begin(), reference.end(),
              [](const ScoredNode& a, const ScoredNode& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.node < b.node;
              });
    const std::size_t k = 1 + rng.below(n + 8);
    const auto got = top_k(scores, k);
    ASSERT_EQ(got.size(), std::min(k, n)) << "seed round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].node, reference[i].node)
          << "rank " << i << " in round " << round;
      ASSERT_EQ(got[i].score, reference[i].score)
          << "rank " << i << " in round " << round;
    }
  }
}

TEST(TopKProperty, SmallerKIsAPrefixOfLargerK) {
  // Rank stability: top_k(k1) must be exactly the first k1 rows of
  // top_k(k2) for k1 < k2 — the property the bounded-table comparisons
  // (and every precision measurement) lean on.
  Rng base(meloppr::test::test_seed() ^ 0x70b);
  const std::size_t rounds = meloppr::test::stress_iters(30);
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng = base.fork(round);
    const std::size_t n = 2 + rng.below(300);
    std::vector<ScoredNode> scores;
    for (std::size_t i = 0; i < n; ++i) {
      scores.push_back({static_cast<graph::NodeId>(i),
                        rng.chance(0.25) ? 0.25 : rng.uniform(0.0, 1.0)});
    }
    const std::size_t k2 = 1 + rng.below(n);
    const std::size_t k1 = 1 + rng.below(k2);
    const auto big = top_k(scores, k2);
    const auto small = top_k(scores, k1);
    ASSERT_EQ(small.size(), std::min(k1, n));
    for (std::size_t i = 0; i < small.size(); ++i) {
      ASSERT_EQ(small[i].node, big[i].node) << "round " << round;
      ASSERT_EQ(small[i].score, big[i].score) << "round " << round;
    }
  }
}

TEST(Precision, ExactMatchIsOne) {
  std::vector<ScoredNode> truth = {{1, 0.9}, {2, 0.8}, {3, 0.7}};
  EXPECT_DOUBLE_EQ(precision_at_k(truth, truth, 3), 1.0);
}

TEST(Precision, DisjointIsZero) {
  std::vector<ScoredNode> truth = {{1, 0.9}, {2, 0.8}};
  std::vector<ScoredNode> approx = {{3, 0.9}, {4, 0.8}};
  EXPECT_DOUBLE_EQ(precision_at_k(truth, approx, 2), 0.0);
}

TEST(Precision, PartialOverlap) {
  std::vector<ScoredNode> truth = {{1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}};
  std::vector<ScoredNode> approx = {{1, 0.9}, {3, 0.8}, {9, 0.7}, {8, 0.6}};
  EXPECT_DOUBLE_EQ(precision_at_k(truth, approx, 4), 0.5);
}

TEST(Precision, DividesByKNotByListSize) {
  // The paper's definition divides by k even if the approximation returned
  // fewer nodes.
  std::vector<ScoredNode> truth = {{1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}};
  std::vector<ScoredNode> approx = {{1, 0.9}};
  EXPECT_DOUBLE_EQ(precision_at_k(truth, approx, 4), 0.25);
}

TEST(Precision, ScoresAreIrrelevantOnlyIdentity) {
  std::vector<ScoredNode> truth = {{1, 1.0}, {2, 0.5}};
  std::vector<ScoredNode> approx = {{2, 123.0}, {1, -5.0}};
  EXPECT_DOUBLE_EQ(precision_at_k(truth, approx, 2), 1.0);
}

TEST(Precision, ZeroKThrows) {
  EXPECT_THROW(precision_at_k({}, {}, 0), InvariantViolation);
}

}  // namespace
}  // namespace meloppr::ppr

// Custom main: --seed flag + failure reproduction line for the property
// tests above.
int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
