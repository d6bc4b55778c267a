// Micro-benchmarks (google-benchmark) for the kernels every experiment is
// built from: BFS ball extraction, the graph-diffusion kernel, selection,
// aggregation, and the simulated accelerator — per paper graph G1–G3, plus
// G4 amazon and G5 dblp for extraction, whose CSRs outgrow the caches.
#include <benchmark/benchmark.h>

#include <memory>

#include "common.hpp"
#include "graph/bfs.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/update_streams.hpp"
#include "ppr/diffusion.hpp"
#include "ppr/diffusion_kernels.hpp"

namespace meloppr::bench {
namespace {

/// Paper graph G(index + 1). G1–G3 (0–2) serve every kernel; G4 amazon
/// and G5 dblp (3, 4) only the extraction rows. Each group is built on
/// first use, so a filtered run skips the large graphs.
const graph::Graph& cached_graph(int index) {
  if (index >= 3) {
    static const std::vector<graph::Graph> large = [] {
      Rng rng(bench_rng_seed());
      std::vector<graph::Graph> out;
      for (graph::PaperGraphId id :
           {graph::PaperGraphId::kG4Amazon, graph::PaperGraphId::kG5Dblp}) {
        out.push_back(graph::make_paper_graph(id, rng, bench_scale()));
      }
      return out;
    }();
    return large[static_cast<std::size_t>(index - 3)];
  }
  static const std::vector<graph::Graph> graphs = [] {
    Rng rng(bench_rng_seed());
    std::vector<graph::Graph> out;
    for (graph::PaperGraphId id : graph::small_paper_graphs()) {
      out.push_back(graph::make_paper_graph(id, rng, bench_scale()));
    }
    return out;
  }();
  return graphs[static_cast<std::size_t>(index)];
}

/// Seeds the extraction rows rotate through: enough that the balls' CSR
/// rows do not all stay cached between visits.
std::vector<graph::NodeId> extraction_seeds(const graph::Graph& g) {
  Rng rng(7);
  std::vector<graph::NodeId> seeds;
  for (int i = 0; i < 4000; ++i) {
    seeds.push_back(graph::random_seed_node(g, rng));
  }
  return seeds;
}

template <typename Extract>
void run_extraction(benchmark::State& state,
                    const std::vector<graph::NodeId>& seeds,
                    Extract extract) {
  std::size_t i = 0;
  std::size_t nodes = 0;
  for (auto _ : state) {
    const graph::Subgraph ball = extract(seeds[i++ % seeds.size()]);
    nodes += ball.num_nodes();
    benchmark::DoNotOptimize(ball);
  }
  state.counters["ball_nodes/iter"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
}

void BM_ExtractBall(benchmark::State& state) {
  const graph::Graph& g = cached_graph(static_cast<int>(state.range(0)));
  const auto radius = static_cast<unsigned>(state.range(1));
  run_extraction(state, extraction_seeds(g), [&](graph::NodeId seed) {
    return graph::extract_ball(g, seed, radius);
  });
}
BENCHMARK(BM_ExtractBall)
    ->ArgsProduct({{0, 1, 2}, {3, 6}})
    ->Args({3, 3})
    ->Args({4, 3})
    ->Unit(benchmark::kMicrosecond);

/// G4 amazon under a 2k-update recommender-churn overlay (below the
/// compaction threshold, so extraction merges overlay rows).
void BM_DynamicExtractBall(benchmark::State& state) {
  const graph::Graph& g = cached_graph(3);
  static const std::unique_ptr<graph::DynamicGraph> dyn = [&] {
    auto out = std::make_unique<graph::DynamicGraph>(g);
    graph::UpdateStreamConfig ucfg;
    ucfg.count = 2000;
    Rng rng(bench_rng_seed() ^ 0xd1);
    for (const graph::EdgeUpdate& u : graph::make_update_stream(
             g, graph::UpdateWorkload::kRecommenderChurn, ucfg, rng)) {
      out->apply(u);
    }
    return out;
  }();
  const auto radius = static_cast<unsigned>(state.range(0));
  run_extraction(state, extraction_seeds(g), [&](graph::NodeId seed) {
    return dyn->extract_ball(seed, radius);
  });
  state.counters["delta_half_edges"] =
      static_cast<double>(dyn->delta_edges());
}
BENCHMARK(BM_DynamicExtractBall)->Arg(3)->Unit(benchmark::kMicrosecond);

void BM_Diffusion(benchmark::State& state) {
  const graph::Graph& g = cached_graph(static_cast<int>(state.range(0)));
  Rng rng(11);
  const graph::Subgraph ball =
      graph::extract_ball(g, graph::random_seed_node(g, rng), 3);
  for (auto _ : state) {
    auto r = ppr::diffuse_from(ball, 0, 1.0, {0.85, 3});
    benchmark::DoNotOptimize(r);
  }
  state.counters["edges"] = static_cast<double>(ball.num_edges());
}
BENCHMARK(BM_Diffusion)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Scalar-vs-SIMD diffusion throughput, pinned per tier (the dispatched
// BM_Diffusion above measures whatever tier CPUID picked). Rotates through
// a pool of balls so the numbers average over ball shapes the way a query
// does, and reports edge_ops/s — compare the tier:0 and tier:1 rows of the
// same (graph, radius) to read the SIMD speedup.
void BM_DiffusionTier(benchmark::State& state) {
  const graph::Graph& g = cached_graph(static_cast<int>(state.range(0)));
  const auto radius = static_cast<unsigned>(state.range(1));
  const auto tier = static_cast<ppr::KernelTier>(state.range(2));
  if (!ppr::kernel_tier_available(tier)) {
    state.SkipWithError("kernel tier unavailable on this machine");
    return;
  }
  Rng rng(11);
  std::vector<graph::Subgraph> balls;
  for (int i = 0; i < 16; ++i) {
    balls.push_back(
        graph::extract_ball(g, graph::random_seed_node(g, rng), radius));
  }
  ppr::set_kernel_tier_override(tier);
  std::size_t i = 0;
  std::uint64_t edge_ops = 0;
  for (auto _ : state) {
    auto r = ppr::diffuse_from(balls[i++ % balls.size()], 0, 1.0,
                               {0.85, radius});
    edge_ops += r.edge_ops;
    benchmark::DoNotOptimize(r);
  }
  ppr::set_kernel_tier_override(std::nullopt);
  state.counters["edge_ops/s"] = benchmark::Counter(
      static_cast<double>(edge_ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DiffusionTier)
    ->ArgsProduct({{0, 1, 2}, {2, 3}, {0, 1}})
    ->ArgNames({"graph", "radius", "tier"})
    ->Unit(benchmark::kMicrosecond);

void BM_AcceleratorDiffusion(benchmark::State& state) {
  const graph::Graph& g = cached_graph(0);
  Rng rng(13);
  const graph::Subgraph ball =
      graph::extract_ball(g, graph::random_seed_node(g, rng), 3);
  hw::FpgaBackend backend =
      make_fpga_backend(g, static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto r = backend.run(ball, 1.0, 3);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AcceleratorDiffusion)
    ->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_Selection(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> residual(static_cast<std::size_t>(state.range(0)));
  for (double& r : residual) {
    r = rng.chance(0.1) ? rng.uniform() : 0.0;  // sparse, like real PPR
  }
  const auto policy = core::Selection::top_ratio(0.05);
  for (auto _ : state) {
    auto sel = core::select_next_stage(residual, policy);
    benchmark::DoNotOptimize(sel);
  }
}
BENCHMARK(BM_Selection)->Arg(1000)->Arg(100000)->Unit(benchmark::kMicrosecond);

/// The 10k-update stream both aggregation rows replay: ids over 50k nodes.
const std::vector<std::pair<graph::NodeId, double>>& aggregation_stream() {
  static const auto stream = [] {
    Rng rng(19);
    std::vector<std::pair<graph::NodeId, double>> s;
    for (std::size_t i = 0; i < 10000; ++i) {
      s.emplace_back(static_cast<graph::NodeId>(rng.below(50000)),
                     rng.uniform() * 1e-3);
    }
    return s;
  }();
  return stream;
}

void BM_TopCkAggregation(benchmark::State& state) {
  const auto& stream = aggregation_stream();
  for (auto _ : state) {
    core::TopCKAggregator agg(static_cast<std::size_t>(state.range(0)));
    for (const auto& [node, delta] : stream) agg.add(node, delta);
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_TopCkAggregation)->Arg(400)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_ExactAggregation(benchmark::State& state) {
  const auto& stream = aggregation_stream();
  for (auto _ : state) {
    core::ExactAggregator agg;
    for (const auto& [node, delta] : stream) agg.add(node, delta);
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ExactAggregation)->Unit(benchmark::kMillisecond);

void BM_EndToEndQuery(benchmark::State& state) {
  const graph::Graph& g = cached_graph(static_cast<int>(state.range(0)));
  core::MelopprConfig cfg = default_config(200);
  cfg.selection = core::Selection::top_ratio(0.02);
  core::Engine engine(g, cfg);
  Rng rng(23);
  std::vector<graph::NodeId> seeds;
  for (int i = 0; i < 32; ++i) {
    seeds.push_back(graph::random_seed_node(g, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = engine.query(seeds[i++ % seeds.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EndToEndQuery)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace meloppr::bench

BENCHMARK_MAIN();
