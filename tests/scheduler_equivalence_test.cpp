// The contract of the stage schedulers: the iterative engine is a
// re-expression of the original recursive engine, not a reinterpretation,
// and the concurrent pipeline is a re-expression of the serial engine. A
// faithful recursive reference lives in this file; the serial engine must
// reproduce it bit-for-bit (same DFS aggregation order), and every
// pipeline entry point must reproduce Engine::query bit-for-bit at any
// thread count, in exact and bounded (top-c·k) aggregation — including
// under forced stealing skew, where the reduction replays stolen,
// out-of-order outcomes.
//
// Randomized tests derive from test_support.hpp's --seed / MELOPPR_TEST_SEED
// (fixed default; the reproduction line prints on failure).
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

/// The pre-scheduler engine, verbatim: blind recursion, aggregating in DFS
/// order with the Eq. 8 subtraction applied immediately before each child.
void reference_recurse(const Graph& g, const MelopprConfig& cfg,
                       DiffusionBackend& backend, ScoreAggregator& agg,
                       graph::NodeId root, double mass, std::size_t stage) {
  const unsigned length = cfg.stage_lengths[stage];
  const graph::Subgraph ball = graph::extract_ball(g, root, length);
  const BackendResult diff = backend.run(ball, mass, length);
  for (graph::NodeId local = 0; local < ball.num_nodes(); ++local) {
    if (diff.accumulated[local] != 0.0) {
      agg.add(ball.to_global(local), diff.accumulated[local]);
    }
  }
  if (stage + 1 >= cfg.num_stages()) return;
  const std::vector<SelectedNode> selected =
      select_next_stage(diff.inflight, cfg.selection);
  std::vector<std::pair<graph::NodeId, double>> children;
  children.reserve(selected.size());
  for (const SelectedNode& sn : selected) {
    children.emplace_back(ball.to_global(sn.local), sn.residual);
  }
  for (const auto& [child, r] : children) {
    agg.add(child, -r);
    reference_recurse(g, cfg, backend, agg, child, r, stage + 1);
  }
}

std::map<graph::NodeId, double> reference_scores(const Graph& g,
                                                 const MelopprConfig& cfg,
                                                 graph::NodeId seed) {
  CpuBackend backend(cfg.alpha);
  ExactAggregator agg;
  reference_recurse(g, cfg, backend, agg, seed, 1.0, 0);
  return meloppr::test::score_map(agg.scores());
}

MelopprConfig two_stage_config(Selection selection, std::size_t k = 50) {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = k;
  cfg.selection = selection;
  return cfg;
}

/// The same query in exact mode (every aggregated node exposed) and in
/// bounded mode with c=2 on k=20 — small enough that the table evicts, so
/// bit-identity must hold *through* the lossy path.
std::vector<MelopprConfig> exact_and_bounded(MelopprConfig cfg,
                                             std::size_t exact_k) {
  MelopprConfig exact = cfg;
  exact.k = exact_k;
  MelopprConfig bounded = cfg;
  bounded.aggregation = AggregationMode::kBounded;
  bounded.topck_c = 2;
  bounded.k = 20;
  return {exact, bounded};
}

std::string describe(const MelopprConfig& cfg) {
  std::string stages;
  for (unsigned l : cfg.stage_lengths) {
    stages += (stages.empty() ? "" : ",") + std::to_string(l);
  }
  return "stages={" + stages + "} " +
         (cfg.aggregation == AggregationMode::kBounded
              ? "bounded c=" + std::to_string(cfg.topck_c)
              : std::string("exact"));
}

void expect_bit_identical(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(want.top.size(), got.top.size());
  for (std::size_t i = 0; i < want.top.size(); ++i) {
    EXPECT_EQ(want.top[i].node, got.top[i].node) << "rank " << i;
    // EXPECT_EQ on doubles: bit-identical is the contract, not "near".
    EXPECT_EQ(want.top[i].score, got.top[i].score) << "rank " << i;
  }
}

MelopprConfig small_config(AggregationMode mode = AggregationMode::kExact,
                           std::size_t c = 10) {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = 20;
  cfg.selection = Selection::top_count(12);
  cfg.aggregation = mode;
  cfg.topck_c = c;
  return cfg;
}

class SchedulerEquivalence : public ::testing::Test {
 protected:
  static const Graph& paper_graph(int which) {
    static Rng rng(123);
    static const Graph g1 =
        graph::make_paper_graph(graph::PaperGraphId::kG1Citeseer, rng);
    static const Graph g2 =
        graph::make_paper_graph(graph::PaperGraphId::kG2Cora, rng);
    return which == 0 ? g1 : g2;
  }
};

TEST_F(SchedulerEquivalence, IterativeMatchesRecursiveBitwise) {
  // The 1-thread scheduler must reproduce the recursion's floating-point
  // operation order exactly — not approximately.
  for (int which : {0, 1}) {
    const Graph& g = paper_graph(which);
    const MelopprConfig cfg = two_stage_config(Selection::top_ratio(0.05));
    Engine engine(g, cfg);
    CpuBackend backend(cfg.alpha);
    ExactAggregator agg;
    engine.query(17, backend, agg);
    const auto reference = reference_scores(g, cfg, 17);
    ASSERT_EQ(agg.scores().size(), reference.size());
    for (const auto& [node, score] : agg.scores()) {
      const auto it = reference.find(node);
      ASSERT_TRUE(it != reference.end()) << "node " << node;
      EXPECT_DOUBLE_EQ(score, it->second) << "node " << node;
    }
  }
}

TEST_F(SchedulerEquivalence, IterativeMatchesRecursiveInExactMode) {
  const Graph& g = paper_graph(0);
  const MelopprConfig cfg = two_stage_config(Selection::all(), 100);
  Engine engine(g, cfg);
  CpuBackend backend(cfg.alpha);
  ExactAggregator agg;
  engine.query(3, backend, agg);
  const auto reference = reference_scores(g, cfg, 3);
  ASSERT_EQ(agg.scores().size(), reference.size());
  for (const auto& [node, score] : agg.scores()) {
    EXPECT_DOUBLE_EQ(score, reference.at(node)) << "node " << node;
  }
}

TEST_F(SchedulerEquivalence, SingleQueryMatchesSerialBitwise) {
  // pipeline.query(seed) at 1/2/4/8 workers is bit-identical to the serial
  // engine on paper graphs — two- and three-stage decompositions, exact
  // and bounded aggregation. The three-stage tree gives stealing a second
  // level of out-of-order subtrees to replay.
  std::size_t bounded_evictions = 0;
  for (int which : {0, 1}) {
    const Graph& g = paper_graph(which);
    MelopprConfig two = two_stage_config(Selection::top_ratio(0.05));
    MelopprConfig three = two;
    three.stage_lengths = {2, 2, 2};
    for (const MelopprConfig& base : {two, three}) {
      for (const MelopprConfig& cfg : exact_and_bounded(base, g.num_nodes())) {
        Engine engine(g, cfg);
        const QueryResult serial = engine.query(29);
        bounded_evictions += serial.stats.aggregator_evictions;
        CpuBackend backend(cfg.alpha);
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
          SCOPED_TRACE("graph " + std::to_string(which) + " " +
                       describe(cfg) + " threads=" + std::to_string(threads));
          PipelineConfig pcfg;
          pcfg.threads = threads;
          QueryPipeline pipeline(engine, backend, pcfg);
          const QueryResult parallel = pipeline.query(29);
          expect_bit_identical(serial, parallel);
          EXPECT_EQ(parallel.stats.aggregator_evictions,
                    serial.stats.aggregator_evictions);
        }
      }
    }
  }
  EXPECT_GT(bounded_evictions, 0u) << "c too large to exercise eviction";
}

TEST_F(SchedulerEquivalence, QueryIsThreadCountInvariant) {
  // The same query at every pool size gives one answer — the serial
  // engine's — not merely a close one.
  const Graph& g = paper_graph(1);
  MelopprConfig two = two_stage_config(Selection::top_ratio(0.08));
  MelopprConfig three = two;
  three.stage_lengths = {2, 2, 2};
  for (const MelopprConfig& base : {two, three}) {
    for (const MelopprConfig& cfg : exact_and_bounded(base, base.k)) {
      Engine engine(g, cfg);
      const QueryResult serial = engine.query(41);
      CpuBackend backend(cfg.alpha);
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(describe(cfg) + " threads=" + std::to_string(threads));
        PipelineConfig pcfg;
        pcfg.threads = threads;
        QueryPipeline pipeline(engine, backend, pcfg);
        expect_bit_identical(serial, pipeline.query(41));
        // A single-seed batch and a repeated seed take the same route.
        const std::vector<graph::NodeId> seeds{41, 41};
        for (const QueryResult& r : pipeline.query_batch(seeds)) {
          expect_bit_identical(serial, r);
        }
      }
    }
  }
}

TEST_F(SchedulerEquivalence, BatchMatchesSerialBitwise) {
  // query_batch runs tasks of many queries out of order, then replays each
  // query's outcomes in the serial DFS order, so scores are bit-identical
  // to Engine::query.
  const Graph& g = paper_graph(1);
  const MelopprConfig cfg = two_stage_config(Selection::top_ratio(0.05), 30);
  Engine engine(g, cfg);
  CpuBackend backend(cfg.alpha);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);

  const std::vector<graph::NodeId> seeds{3, 17, 29, 41, 55, 67, 79, 91};
  const std::vector<QueryResult> batch = pipeline.query_batch(seeds);
  ASSERT_EQ(batch.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult serial = engine.query(seeds[i]);
    ASSERT_EQ(batch[i].top.size(), serial.top.size()) << "seed " << seeds[i];
    expect_bit_identical(serial, batch[i]);
  }
}

TEST_F(SchedulerEquivalence, SerialStatsUnchangedShape) {
  // The scheduler reports the same per-stage accounting the recursion did.
  const Graph& g = paper_graph(0);
  MelopprConfig cfg = two_stage_config(Selection::top_count(5), 10);
  Engine engine(g, cfg);
  const QueryResult r = engine.query(9);
  ASSERT_EQ(r.stats.stages.size(), 2u);
  EXPECT_EQ(r.stats.stages[0].balls, 1u);
  EXPECT_EQ(r.stats.stages[0].selected, 5u);
  EXPECT_EQ(r.stats.stages[1].balls, 5u);
  EXPECT_EQ(r.stats.total_balls(), 6u);
  EXPECT_EQ(r.stats.threads_used, 1u);
  EXPECT_EQ(r.stats.stolen_tasks, 0u);
  EXPECT_DOUBLE_EQ(r.stats.diffusion_serial_seconds,
                   r.stats.compute_seconds() + r.stats.transfer_seconds());
}


// ---------------------------------------------------------------------------
// Bounded (top-c·k) aggregation through the engine and the pipeline
// ---------------------------------------------------------------------------

TEST(BoundedAggregation, RecallDegradesMonotonicallyAsCShrinks) {
  // Fig. 6's story: precision vs the exact aggregation falls as the table
  // shrinks. Averaged over several seeds; the small slack absorbs rank
  // ties at the top-k boundary.
  Rng rng(meloppr::test::test_seed() ^ 0xfeed);
  Graph g = graph::barabasi_albert(1500, 2, 3, rng);
  Engine exact_engine(g, small_config());
  std::vector<graph::NodeId> seeds;
  for (int i = 0; i < 6; ++i) {
    seeds.push_back(static_cast<graph::NodeId>(rng.below(g.num_nodes())));
  }
  std::vector<std::vector<ppr::ScoredNode>> truth;
  truth.reserve(seeds.size());
  for (graph::NodeId s : seeds) truth.push_back(exact_engine.query(s).top);

  const std::size_t k = small_config().k;
  std::vector<double> recall_by_c;
  for (const std::size_t c : {1u, 2u, 4u, 8u}) {
    Engine bounded(g, small_config(AggregationMode::kBounded, c));
    double sum = 0.0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      sum += ppr::precision_at_k(truth[i], bounded.query(seeds[i]).top, k);
    }
    recall_by_c.push_back(sum / static_cast<double>(seeds.size()));
  }
  for (std::size_t i = 1; i < recall_by_c.size(); ++i) {
    EXPECT_GE(recall_by_c[i] + 0.05, recall_by_c[i - 1])
        << "recall fell when c grew from rank " << i - 1 << " to " << i
        << " (seed " << meloppr::test::test_seed() << ")";
  }
  // The paper's headline: ample c is near-lossless, starved c is not.
  EXPECT_GE(recall_by_c.back(), 0.9);
}

TEST(BoundedAggregation, SerialQueryReportsTableStats) {
  Rng rng(meloppr::test::test_seed() ^ 0xbead);
  Graph g = graph::barabasi_albert(1200, 2, 3, rng);
  // c=1: the table holds only k entries, so evictions are guaranteed on
  // any query touching more than k nodes.
  Engine engine(g, small_config(AggregationMode::kBounded, 1));
  const QueryResult r = engine.query(17);
  EXPECT_LE(r.stats.aggregator_entries, engine.config().table_capacity());
  EXPECT_GT(r.stats.aggregator_evictions, 0u);
  EXPECT_EQ(r.stats.aggregator_bytes, engine.config().table_capacity() * 8u);
  EXPECT_LE(r.top.size(), engine.config().k);
}

TEST(BoundedAggregation, BatchBitIdenticalToSerialAtEveryThreadCount) {
  // The acceptance contract: query_batch + bounded aggregation reproduces
  // Engine::query with a TopCKAggregator entry-for-entry at 1, 2, 4, and
  // 8 workers.
  Rng rng(meloppr::test::test_seed() ^ 0xabcd);
  Graph g = graph::barabasi_albert(1200, 2, 3, rng);
  // c=2 on k=20: small enough that evictions demonstrably happen (the
  // equivalence must hold *through* the lossy path, not vacuously).
  Engine engine(g, small_config(AggregationMode::kBounded, 2));

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 12; ++s) seeds.push_back(s * 97 % 1200);
  std::vector<QueryResult> want;
  want.reserve(seeds.size());
  std::size_t total_evictions = 0;
  for (graph::NodeId s : seeds) {
    want.push_back(engine.query(s));
    total_evictions += want.back().stats.aggregator_evictions;
  }
  ASSERT_GT(total_evictions, 0u) << "c too large to exercise eviction";

  CpuBackend backend(0.85);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    PipelineConfig pcfg;
    pcfg.threads = threads;
    QueryPipeline pipeline(engine, backend, pcfg);
    QueryPipeline::BatchStats batch;
    const auto results = pipeline.query_batch(seeds, &batch);
    ASSERT_EQ(results.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " query=" + std::to_string(i));
      expect_bit_identical(want[i], results[i]);
      EXPECT_EQ(results[i].stats.aggregator_evictions,
                want[i].stats.aggregator_evictions);
    }
    EXPECT_EQ(batch.aggregator_evictions, total_evictions);
    EXPECT_LE(batch.peak_aggregator_entries,
              engine.config().table_capacity());
  }
}

TEST(BoundedAggregation, BatchBitIdenticalUnderForcedStealingSkew) {
  // One hub query with a huge stage-2 fan-out plus periphery queries: the
  // light workers finish and steal the hub's tasks, so the reduction runs
  // over stolen, out-of-order outcomes — and must still replay the serial
  // bounded semantics exactly.
  Rng rng(meloppr::test::test_seed() ^ 0x5ca1ed);
  Graph g = graph::barabasi_albert(2500, 2, 3, rng);
  MelopprConfig cfg = small_config(AggregationMode::kBounded, 2);
  cfg.selection = Selection::top_ratio(0.08);
  Engine engine(g, cfg);

  graph::NodeId hub = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  std::vector<graph::NodeId> seeds{hub};
  for (graph::NodeId v = 0; v < g.num_nodes() && seeds.size() < 4; ++v) {
    if (g.degree(v) <= 2) seeds.push_back(v);
  }
  ASSERT_EQ(seeds.size(), 4u);

  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  QueryPipeline::BatchStats batch;
  const auto results = pipeline.query_batch(seeds, &batch);
  // The skew must actually engage stealing for the test to mean anything
  // (single-core runners can legitimately drain without steals — then the
  // equivalence still holds, but flag the vacuous case loudly in CI logs).
  if (batch.stolen_tasks == 0) {
    std::cout << "note: no steals occurred (oversubscribed runner?); "
                 "equivalence checked but skew not exercised\n";
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("query=" + std::to_string(i));
    expect_bit_identical(engine.query(seeds[i]), results[i]);
  }
}

}  // namespace
}  // namespace meloppr::core

// Custom main (the linker prefers this over gtest_main's): --seed flag +
// failure reproduction line.
int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
