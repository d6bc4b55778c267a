// MeLoPPR engine tests — most importantly the stage-decomposition exactness
// identity (Eq. 8): with all next-stage nodes selected, multi-stage MeLoPPR
// must reproduce single-stage GD_L to floating-point accuracy.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <map>

#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "ppr/local_ppr.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

MelopprConfig exact_config(std::vector<unsigned> lengths, std::size_t k) {
  MelopprConfig cfg;
  cfg.alpha = 0.85;
  cfg.stage_lengths = std::move(lengths);
  cfg.k = k;
  cfg.selection = Selection::all();
  return cfg;
}

/// Full score map from the baseline for exact comparisons.
std::map<graph::NodeId, double> baseline_scores(const Graph& g,
                                                graph::NodeId seed,
                                                unsigned length) {
  ppr::LocalPprResult base = ppr::local_ppr(g, seed, {0.85, length, 1});
  std::map<graph::NodeId, double> out;
  for (const auto& sn : base.scores) out.emplace(sn.node, sn.score);
  return out;
}

TEST(Engine, ConfigValidationAtConstruction) {
  Graph g = graph::fixtures::path(4);
  MelopprConfig bad;
  bad.alpha = 1.5;
  EXPECT_THROW(Engine(g, bad), std::invalid_argument);
  MelopprConfig no_stages;
  no_stages.stage_lengths.clear();
  EXPECT_THROW(Engine(g, no_stages), std::invalid_argument);
  MelopprConfig zero_stage;
  zero_stage.stage_lengths = {3, 0};
  EXPECT_THROW(Engine(g, zero_stage), std::invalid_argument);
  MelopprConfig zero_k;
  zero_k.k = 0;
  EXPECT_THROW(Engine(g, zero_k), std::invalid_argument);
}

TEST(Engine, SingleStageEqualsBaselineExactly) {
  Rng rng(61);
  Graph g = graph::barabasi_albert(200, 2, 2, rng);
  Engine engine(g, exact_config({4}, 20));
  QueryResult r = engine.query(7);
  auto base = baseline_scores(g, 7, 4);
  ExactAggregator agg;
  CpuBackend backend(0.85);
  QueryResult r2 = engine.query(7, backend, agg);
  for (const auto& [node, score] : agg.scores()) {
    ASSERT_TRUE(base.count(node) != 0) << "extra node " << node;
    EXPECT_NEAR(score, base.at(node), 1e-12);
  }
  EXPECT_EQ(r.top.size(), r2.top.size());
}

TEST(Engine, TwoStageExactnessIdentity) {
  // DESIGN.md invariant 1 — Eq. 8 is an identity, not an approximation.
  Rng rng(62);
  Graph g = graph::barabasi_albert(300, 2, 3, rng);
  const graph::NodeId seed = 11;
  auto base = baseline_scores(g, seed, 6);

  Engine engine(g, exact_config({3, 3}, 50));
  CpuBackend backend(0.85);
  ExactAggregator agg;
  engine.query(seed, backend, agg);

  ASSERT_FALSE(agg.scores().empty());
  for (const auto& [node, score] : agg.scores()) {
    const double truth = base.count(node) ? base.at(node) : 0.0;
    EXPECT_NEAR(score, truth, 1e-9) << "node " << node;
  }
  // And no baseline mass was missed.
  const auto scores = test::score_map(agg.scores());
  for (const auto& [node, truth] : base) {
    const auto it = scores.find(node);
    const double got = it == scores.end() ? 0.0 : it->second;
    EXPECT_NEAR(got, truth, 1e-9) << "node " << node;
  }
}

TEST(Engine, AsymmetricSplitsAreAlsoExact) {
  Rng rng(63);
  Graph g = graph::erdos_renyi(150, 450, rng);
  graph::NodeId seed = 0;
  while (g.degree(seed) == 0) ++seed;
  auto base = baseline_scores(g, seed, 5);
  for (const auto& lengths :
       std::vector<std::vector<unsigned>>{{1, 4}, {2, 3}, {4, 1}}) {
    Engine engine(g, exact_config(lengths, 30));
    CpuBackend backend(0.85);
    ExactAggregator agg;
    engine.query(seed, backend, agg);
    const auto scores = test::score_map(agg.scores());
    for (const auto& [node, truth] : base) {
      const auto it = scores.find(node);
      const double got = it == scores.end() ? 0.0 : it->second;
      EXPECT_NEAR(got, truth, 1e-9)
          << "split {" << lengths[0] << "," << lengths[1] << "} node "
          << node;
    }
  }
}

TEST(Engine, ThreeStageRecursionIsExact) {
  Rng rng(64);
  Graph g = graph::barabasi_albert(200, 2, 2, rng);
  const graph::NodeId seed = 5;
  auto base = baseline_scores(g, seed, 6);
  Engine engine(g, exact_config({2, 2, 2}, 30));
  CpuBackend backend(0.85);
  ExactAggregator agg;
  engine.query(seed, backend, agg);
  const auto scores = test::score_map(agg.scores());
  for (const auto& [node, truth] : base) {
    const auto it = scores.find(node);
    const double got = it == scores.end() ? 0.0 : it->second;
    EXPECT_NEAR(got, truth, 1e-9) << "node " << node;
  }
}

TEST(Engine, SelectiveModeUnderestimatesButRanksWell) {
  Rng rng(65);
  Graph g = graph::barabasi_albert(500, 2, 2, rng);
  const graph::NodeId seed = 3;
  ppr::LocalPprResult base = ppr::local_ppr(g, seed, {0.85, 6, 20});

  MelopprConfig cfg = exact_config({3, 3}, 20);
  cfg.selection = Selection::top_ratio(0.10);
  Engine engine(g, cfg);
  QueryResult r = engine.query(seed);
  const double prec = ppr::precision_at_k(base.top, r.top, 20);
  EXPECT_GE(prec, 0.5);  // 10% of next-stage nodes already ranks decently
}

TEST(Engine, PrecisionImprovesWithSelectionRatio) {
  Rng rng(66);
  Graph g = graph::barabasi_albert(600, 2, 2, rng);
  double prev_avg = -1.0;
  for (double ratio : {0.01, 0.20, 1.0}) {
    double prec_sum = 0.0;
    for (graph::NodeId seed : {3u, 41u, 99u}) {
      ppr::LocalPprResult base = ppr::local_ppr(g, seed, {0.85, 6, 20});
      MelopprConfig cfg = exact_config({3, 3}, 20);
      cfg.selection =
          ratio >= 1.0 ? Selection::all() : Selection::top_ratio(ratio);
      Engine engine(g, cfg);
      QueryResult r = engine.query(seed);
      prec_sum += ppr::precision_at_k(base.top, r.top, 20);
    }
    EXPECT_GE(prec_sum + 1e-9, prev_avg) << "ratio " << ratio;
    prev_avg = prec_sum;
  }
  // Exact mode must reach precision 1.
  EXPECT_NEAR(prev_avg, 3.0, 1e-9);
}

TEST(Engine, StatsDescribeTheRecursion) {
  Rng rng(67);
  Graph g = graph::barabasi_albert(400, 2, 2, rng);
  MelopprConfig cfg = exact_config({3, 3}, 10);
  cfg.selection = Selection::top_count(5);
  Engine engine(g, cfg);
  QueryResult r = engine.query(9);
  ASSERT_EQ(r.stats.stages.size(), 2u);
  EXPECT_EQ(r.stats.stages[0].balls, 1u);
  EXPECT_EQ(r.stats.stages[0].selected, 5u);
  EXPECT_EQ(r.stats.stages[1].balls, 5u);
  EXPECT_EQ(r.stats.stages[1].selected, 0u);  // last stage never selects
  EXPECT_GT(r.stats.peak_bytes, 0u);
  EXPECT_GT(r.stats.edge_ops(), 0u);
  EXPECT_GT(r.stats.total_seconds, 0.0);
  EXPECT_GE(r.stats.bfs_fraction(), 0.0);
  EXPECT_LE(r.stats.bfs_fraction(), 1.0);
  EXPECT_EQ(r.stats.total_balls(), 6u);
}

TEST(Engine, PeakMemoryIsOneBallAtATime) {
  // The defining memory property: the engine's peak must be far below the
  // sum of all ball footprints it processed.
  Rng rng(68);
  Graph g = graph::barabasi_albert(800, 3, 3, rng);
  MelopprConfig cfg = exact_config({3, 3}, 20);
  cfg.selection = Selection::top_count(20);
  Engine engine(g, cfg);
  QueryResult r = engine.query(17);

  std::size_t sum_of_balls = 0;
  for (const auto& st : r.stats.stages) {
    sum_of_balls += st.total_ball_nodes;  // proxy: nodes ever held
  }
  EXPECT_GT(r.stats.total_balls(), 10u);
  // Peak is bounded by max ball + aggregator, not by the 21-ball total.
  EXPECT_LT(r.stats.peak_bytes,
            sum_of_balls * 50);  // generous constant per node
}

TEST(Engine, MemorySmallerThanBaselineBall) {
  // On locality-rich graphs the depth-3 ball stays inside the community
  // while the depth-6 ball escapes across the whole graph — the regime
  // where the paper reports its largest savings (denser community graphs
  // G4/G5: 9.5×/13.4× average reduction). Note BA-style small-world graphs
  // can invert this for hub seeds; the paper's own Table II minima are
  // below 1×, so no universal claim is made there.
  Rng rng(69);
  Graph g = graph::community_graph(30000, 1500, 4.0, 0.8, rng);
  const graph::NodeId seed = 77;
  ppr::LocalPprResult base = ppr::local_ppr(g, seed, {0.85, 6, 20});
  MelopprConfig cfg = exact_config({3, 3}, 20);
  cfg.selection = Selection::top_ratio(0.05);
  Engine engine(g, cfg);
  QueryResult r = engine.query(seed);
  EXPECT_LT(r.stats.peak_bytes * 3, base.peak_bytes);
}

TEST(Engine, TopCKAggregatorPluggable) {
  Rng rng(70);
  Graph g = graph::barabasi_albert(300, 2, 2, rng);
  MelopprConfig cfg = exact_config({3, 3}, 10);
  cfg.selection = Selection::top_count(10);
  Engine engine(g, cfg);

  CpuBackend backend(0.85);
  TopCKAggregator table(10 * 10);  // c = 10
  QueryResult r = engine.query(4, backend, table);
  EXPECT_EQ(r.top.size(), 10u);
  EXPECT_LE(table.entries(), 100u);
  EXPECT_EQ(r.stats.aggregator_bytes, table.bytes());
}

TEST(Engine, QueryIsDeterministic) {
  Rng rng(71);
  Graph g = graph::barabasi_albert(300, 2, 2, rng);
  MelopprConfig cfg = exact_config({3, 3}, 15);
  cfg.selection = Selection::top_ratio(0.05);
  Engine engine(g, cfg);
  QueryResult a = engine.query(8);
  QueryResult b = engine.query(8);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].node, b.top[i].node);
    EXPECT_DOUBLE_EQ(a.top[i].score, b.top[i].score);
  }
}

}  // namespace
}  // namespace meloppr::core
