// The concurrent serving layer on top of the QueryPipeline: sharded cache
// integration, work-stealing scheduling (bit-identical scores, skew
// behavior), batch accounting, per-query memory accounting next to a
// shared cache, and aggregator pooling.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/generators.hpp"
#include "hw/farm.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

MelopprConfig small_config() {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = 20;
  cfg.selection = Selection::top_count(12);
  return cfg;
}

void expect_bit_identical(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(want.top.size(), got.top.size());
  for (std::size_t i = 0; i < want.top.size(); ++i) {
    EXPECT_EQ(want.top[i].node, got.top[i].node) << "rank " << i;
    // EXPECT_EQ on doubles: bit-identical is the contract, not "near".
    EXPECT_EQ(want.top[i].score, got.top[i].score) << "rank " << i;
  }
}

TEST(ServingLayer, SharedCacheAcceptedInParallelMode) {
  Rng rng(91);
  Graph g = graph::barabasi_albert(500, 2, 2, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 64u << 20);
  engine.set_shared_ball_cache(&cache);

  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  EXPECT_NO_THROW(pipeline.query(5));            // shared by every worker
  EXPECT_GT(cache.hits() + cache.misses(), 0u);  // extractions went through
  engine.set_shared_ball_cache(nullptr);
}

TEST(ServingLayer, StealingBatchBitIdenticalToSerialEngine) {
  Rng rng(92);
  Graph g = graph::barabasi_albert(1200, 2, 3, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 128u << 20);
  engine.set_shared_ball_cache(&cache);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 24; ++s) seeds.push_back(s * 49 % 1200);

  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  const std::vector<QueryResult> results = pipeline.query_batch(seeds);
  engine.set_shared_ball_cache(nullptr);

  ASSERT_EQ(results.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult want = engine.query(seeds[i]);
    expect_bit_identical(want, results[i]);
    // Stage accounting survives out-of-order execution: the DFS-order
    // reduction must reproduce the serial ball counts exactly.
    EXPECT_EQ(results[i].stats.total_balls(), want.stats.total_balls());
  }
}

TEST(ServingLayer, WorkStealingSpreadsHeavyQuery) {
  Rng rng(95);
  Graph g = graph::barabasi_albert(2500, 2, 3, rng);
  MelopprConfig cfg = small_config();
  // Ratio selection: the hub's big ball yields many stage-2 tasks, a
  // periphery ball few — the skew the stealing scheduler exists for.
  cfg.selection = Selection::top_ratio(0.08);
  Engine engine(g, cfg);

  // Heaviest seed: the max-degree hub.
  graph::NodeId hub = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  ASSERT_GT(engine.query(hub).stats.stages[1].balls, 16u);

  // Light seeds: low-degree periphery nodes.
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
  const std::vector<QueryResult> results =
      pipeline.query_batch(seeds, &batch);

  // The three light workers drain their queries and must steal from the
  // heavy one's deque — the heavy query ends up executed by several
  // workers instead of idling them.
  EXPECT_GT(batch.stolen_tasks, 0u);
  EXPECT_GT(results[0].stats.stolen_tasks, 0u);
  EXPECT_GE(results[0].stats.threads_used, 2u);
  // Scores unaffected by who ran what.
  expect_bit_identical(engine.query(hub), results[0]);
}

TEST(ServingLayer, BatchStatsAreCoherent) {
  Rng rng(96);
  Graph g = graph::barabasi_albert(800, 2, 2, rng);
  MelopprConfig cfg = small_config();
  Engine engine(g, cfg);

  // Popular-seed skew: repeats must show up as cache hits.
  std::vector<graph::NodeId> seeds;
  for (int rep = 0; rep < 4; ++rep) {
    for (graph::NodeId s : {5u, 77u, 300u}) seeds.push_back(s);
  }

  // Two stacks: a CPU backend over a plain LRU cache, and a shared device
  // farm over a tight TinyLFU cache (the shape of bench_e2e's farm_offload
  // stack).
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  hw::FpgaFarm farm(2, acfg, hw::Quantizer(0.85, 10, 50'000'000));
  CpuBackend cpu(0.85);
  struct Stack {
    const char* name;
    DiffusionBackend* backend;
    std::size_t cache_bytes;
    CacheAdmission admission;
  };
  for (const Stack& stack :
       {Stack{"cpu+lru", &cpu, 64u << 20, CacheAdmission::kAlways},
        Stack{"farm+tinylfu", &farm, 512u << 10, CacheAdmission::kTinyLFU}}) {
    SCOPED_TRACE(stack.name);
    ShardedBallCache cache(g, stack.cache_bytes, 4, stack.admission);
    engine.set_shared_ball_cache(&cache);
    PipelineConfig pcfg;
    pcfg.threads = 4;
    QueryPipeline pipeline(engine, *stack.backend, pcfg);
    QueryPipeline::BatchStats batch;
    const auto results = pipeline.query_batch(seeds, &batch);
    engine.set_shared_ball_cache(nullptr);

    EXPECT_EQ(batch.queries, seeds.size());
    EXPECT_GT(batch.wall_seconds, 0.0);
    std::size_t balls = 0;
    for (const auto& r : results) balls += r.stats.total_balls();
    EXPECT_EQ(batch.executed_tasks, balls);
    // Every extraction went through the cache: hits + misses == balls.
    EXPECT_EQ(batch.cache_hits + batch.cache_misses, balls);
    EXPECT_GT(batch.cache_hits, 0u);  // repeated seeds share balls
    EXPECT_GT(batch.cache_hit_rate(), 0.0);
    // Per-query stats expose the same counters.
    std::size_t per_query_hits = 0;
    for (const auto& r : results) per_query_hits += r.stats.cache_hits();
    EXPECT_EQ(per_query_hits, batch.cache_hits);
    // There is no lookahead layer: the fields bench_e2e still reads have
    // no writer on any stack, the farm included.
    EXPECT_EQ(batch.prefetch_issued, 0u);
    EXPECT_EQ(batch.prefetch_hidden_seconds, 0.0);
    EXPECT_EQ(batch.root_reextractions, 0u);
    EXPECT_EQ(cache.stats().pin_hits, 0u);
    // Scores are bit-identical to the serial engine through the same
    // numerics (a fresh clone of the backend: farm quantization differs
    // from the CPU kernel).
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const std::unique_ptr<ScoreAggregator> agg =
          make_serial_aggregator(cfg.aggregation, cfg.k, cfg.topck_c);
      const std::unique_ptr<DiffusionBackend> reference =
          stack.backend->clone();
      expect_bit_identical(engine.query(seeds[i], *reference, *agg),
                           results[i]);
    }

    // A long-lived server reuses one BatchStats across batches: each call
    // must overwrite, never accumulate.
    engine.set_shared_ball_cache(&cache);
    pipeline.query_batch(seeds, &batch);
    engine.set_shared_ball_cache(nullptr);
    EXPECT_EQ(batch.queries, seeds.size());
    EXPECT_EQ(batch.executed_tasks, balls);
  }
  EXPECT_EQ(farm.active_dispatches(), 0u);  // the gauge returns to idle
}

TEST(ServingLayer, QueryPeakExcludesSharedCacheFootprint) {
  // A query's peak_bytes charges the balls its tasks hold, not the whole
  // shared cache: with the cache warmed far past one query's footprint,
  // no query may report a peak anywhere near the resident cache — neither
  // through the stealing scheduler (which sums every worker's peak into
  // each query) nor through the serial engine.
  Rng rng(105);
  Graph g = graph::barabasi_albert(3000, 2, 2, rng);
  Engine engine(g, small_config());
  const std::vector<graph::NodeId> probe{11, 1400, 2900};
  std::size_t cacheless_peak = 0;
  for (const graph::NodeId seed : probe) {
    cacheless_peak =
        std::max(cacheless_peak, engine.query(seed).stats.peak_bytes);
  }

  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 256u << 20);
  engine.set_shared_ball_cache(&cache);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  std::vector<graph::NodeId> warm;
  for (graph::NodeId s = 0; s < 3000; s += 5) warm.push_back(s);
  (void)pipeline.query_batch(warm);
  // Warm well past what four workers' balls plus one aggregator can hold.
  ASSERT_GT(cache.bytes(), 16 * pcfg.threads * cacheless_peak);

  const std::vector<QueryResult> results = pipeline.query_batch(probe);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(probe[i]));
    EXPECT_GT(results[i].stats.peak_bytes, 0u);
    EXPECT_LT(results[i].stats.peak_bytes, cache.bytes());
  }
  const QueryResult serial = engine.query(probe.front());
  engine.set_shared_ball_cache(nullptr);
  EXPECT_GT(serial.stats.cache_hits(), 0u);
  EXPECT_GT(serial.stats.peak_bytes, 0u);
  EXPECT_LT(serial.stats.peak_bytes, cache.bytes());
}

TEST(AggregatorPool, LeasesPreferSlotAndReuseArenas) {
  AggregatorPool pool(3);
  EXPECT_THROW(AggregatorPool(0), std::invalid_argument);
  {
    AggregatorPool::Lease lease = pool.acquire(1);
    lease->add(7, 0.5);
    EXPECT_EQ(lease->entries(), 1u);
  }
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  {
    // Same preferred slot: the arena comes back cleared (warm buckets,
    // empty content).
    AggregatorPool::Lease lease = pool.acquire(1);
    EXPECT_EQ(lease->entries(), 0u);
  }
  EXPECT_EQ(pool.reuses(), 1u);
  {
    // Distinct concurrent leases never alias.
    AggregatorPool::Lease a = pool.acquire(0);
    AggregatorPool::Lease b = pool.acquire(0);  // slot 0 busy → falls back
    a->add(1, 1.0);
    EXPECT_EQ(b->entries(), 0u);
    EXPECT_NE(&*a, &*b);
  }
}

TEST(AggregatorPool, ConcurrentAcquireReleaseIsSafe) {
  AggregatorPool pool(4);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        AggregatorPool::Lease lease =
            pool.acquire(static_cast<std::size_t>(t));
        lease->add(static_cast<graph::NodeId>(i), 1.0);
        ASSERT_GE(lease->entries(), 1u);  // exclusive: only our own adds
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.acquires(), static_cast<std::size_t>(kThreads * kIters));
  EXPECT_GE(pool.reuses(), pool.acquires() - 4);
}

}  // namespace
}  // namespace meloppr::core
