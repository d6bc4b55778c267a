// Dynamic-graph serving A/B — surgical cache invalidation vs clear().
//
// PR 2's sharded ball cache assumed a frozen graph; under streaming edge
// updates the naive way to stay correct is to clear() the whole cache on
// every update, which throws away every ball the update did NOT touch.
// Surgical invalidation (ShardedBallCache::bind_dynamic_graph: one BFS
// from the endpoints per update) instead invalidates exactly the balls
// containing an updated endpoint, so a warm cache survives churn.
//
// Two stacks over the same base graph, same seed batch, same update
// stream:
//
//   surgical — DynamicGraph + bind_dynamic_graph cache + versioned engine:
//              updates invalidate only the balls containing an endpoint.
//   clear()  — DynamicGraph serving extraction through set_extractor, with
//              the cache fully cleared after every update (the baseline
//              coherence protocol).
//
// Both stacks re-run the identical query batch after the update phase;
// the post-update demand hit rate is the retention metric. Scores in every
// cell are asserted bit-identical to the serial engine on a from-scratch
// CSR rebuild at the same version — invalidation changes retention, never
// results.
//
//   --smoke          CI mode: small sizes + hard assertions (exit 1 when
//                    scores diverge from the rebuild reference, when the
//                    surgical stack invalidated nothing, or when its
//                    post-update hit rate is below 2x the clear()
//                    baseline's)
//   MELOPPR_SEEDS    queries in the batch           (default 96; smoke 48)
//   MELOPPR_SCALE    graph-size multiplier          (default 1)
//   MELOPPR_THREADS  worker threads                 (default 4)
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/update_streams.hpp"

namespace meloppr::bench {
namespace {

using core::Engine;
using core::QueryPipeline;
using core::QueryResult;
using core::ShardedBallCache;
using graph::DynamicGraph;
using graph::EdgeUpdate;
using graph::Graph;
using graph::NodeId;

struct Stack {
  DynamicGraph dyn;
  ShardedBallCache cache;
  Engine engine;
  std::unique_ptr<core::DiffusionBackend> backend;
  std::unique_ptr<QueryPipeline> pipeline;

  Stack(const Graph& base, const core::MelopprConfig& mcfg,
        std::size_t threads, bool surgical)
      : dyn(base), cache(base, 64u << 20, 8), engine(base, mcfg) {
    if (surgical) {
      cache.bind_dynamic_graph(dyn);
      engine.set_dynamic_graph(&dyn);
    } else {
      // Baseline: extraction still serves the CURRENT graph (anything else
      // would be wrong, not just slow); coherence comes from clear().
      cache.set_extractor(
          [this](const Graph&, NodeId root, unsigned radius) {
            return dyn.extract_ball(root, radius);
          });
    }
    engine.set_shared_ball_cache(&cache);
    backend = core::make_cpu_backend(base, mcfg);
    core::PipelineConfig pcfg;
    pcfg.threads = threads;
    pipeline = std::make_unique<QueryPipeline>(engine, *backend, pcfg);
  }
};

struct Phase {
  double hit_rate = 0.0;
  double wall_seconds = 0.0;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

Phase run_batch(Stack& s, const std::vector<NodeId>& seeds,
                std::vector<QueryResult>* results_out = nullptr) {
  const auto before = s.cache.stats();
  Timer t;
  std::vector<QueryResult> results = s.pipeline->query_batch(seeds);
  Phase p;
  p.wall_seconds = t.elapsed_seconds();
  const auto after = s.cache.stats();
  p.hits = after.hits - before.hits;
  p.misses = after.misses - before.misses;
  p.hit_rate = p.hits + p.misses == 0
                   ? 0.0
                   : static_cast<double>(p.hits) /
                         static_cast<double>(p.hits + p.misses);
  if (results_out != nullptr) *results_out = std::move(results);
  return p;
}

bool same_scores(const std::vector<QueryResult>& got,
                 const std::vector<QueryResult>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].top.size() != want[i].top.size()) return false;
    for (std::size_t r = 0; r < got[i].top.size(); ++r) {
      if (got[i].top[r].node != want[i].top[r].node) return false;
      if (got[i].top[r].score != want[i].top[r].score) return false;
    }
  }
  return true;
}

int run(bool smoke) {
  Rng rng = banner("dynamic graph serving: surgical invalidation vs clear()");
  const std::size_t threads = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("MELOPPR_THREADS", 4)));
  const std::size_t batch = bench_seed_count(smoke ? 48 : 96);
  const std::size_t n =
      std::max<std::size_t>(1200, static_cast<std::size_t>(
                                      (smoke ? 2400 : 4800) * bench_scale()));
  const std::size_t update_rounds = smoke ? 1 : 3;
  const std::size_t updates_per_round = smoke ? 12 : 48;

  core::MelopprConfig mcfg = default_config(100);
  mcfg.stage_lengths = {2, 2};  // short stages keep the A/B about caching

  Timer build;
  Rng grng = rng.fork(1);
  // ER keeps balls small and nearly disjoint, so the A/B actually measures
  // the coherence protocols: each update touches a handful of cached balls
  // (surgical keeps the rest), and within-batch ball sharing — the clear()
  // baseline's only retention — stays honest. On clique-like graphs every
  // ball covers its whole community and ANY update in it kills them all,
  // which the full-mode table of bench runs on other families can show,
  // but which makes a retention gate meaningless.
  const Graph base =
      graph::erdos_renyi(n, (n * 5) / 2, grng);
  std::cout << "[erdos-renyi] " << base.summary() << "  built in "
            << fmt_fixed(build.elapsed_seconds(), 2) << "s  threads="
            << threads << "\n\n";

  // Distinct spread seeds: within-batch ball sharing is the clear()
  // baseline's only retention, so the batch must not be a single hot spot.
  std::vector<NodeId> seeds;
  Rng seed_rng = rng.fork(2);
  std::vector<bool> used(base.num_nodes(), false);
  while (seeds.size() < batch) {
    const NodeId s = static_cast<NodeId>(seed_rng.below(base.num_nodes()));
    if (used[s] || base.degree(s) == 0) continue;
    used[s] = true;
    seeds.push_back(s);
  }

  Rng urng = rng.fork(3);
  graph::UpdateStreamConfig ucfg;
  ucfg.count = update_rounds * updates_per_round;
  const std::vector<EdgeUpdate> stream = graph::make_update_stream(
      base, graph::UpdateWorkload::kRecommenderChurn, ucfg, urng);

  Stack surgical(base, mcfg, threads, /*surgical=*/true);
  Stack baseline(base, mcfg, threads, /*surgical=*/false);

  // Warm both caches with the same traffic.
  const Phase warm_s = run_batch(surgical, seeds);
  const Phase warm_b = run_batch(baseline, seeds);

  TablePrinter table({"phase", "stack", "hit rate", "hits", "misses",
                      "invalidated", "wall (s)"});
  const auto add = [&](const std::string& phase, const std::string& stack,
                       const Phase& p, std::size_t invalidated) {
    table.add_row({phase, stack, fmt_percent(p.hit_rate),
                   std::to_string(p.hits), std::to_string(p.misses),
                   std::to_string(invalidated),
                   fmt_fixed(p.wall_seconds, 3)});
  };
  add("warm", "surgical", warm_s, 0);
  add("warm", "clear()", warm_b, 0);
  table.add_separator();

  bool all_identical = true;
  double last_rate_s = 0.0;
  double last_rate_b = 0.0;
  std::size_t total_invalidated = 0;
  for (std::size_t round = 0; round < update_rounds; ++round) {
    const std::size_t begin = round * updates_per_round;
    const std::size_t end =
        std::min(stream.size(), begin + updates_per_round);
    const std::size_t inv_before = surgical.cache.stats().invalidations;
    for (std::size_t i = begin; i < end; ++i) {
      surgical.dyn.apply(stream[i]);
      baseline.dyn.apply(stream[i]);
      baseline.cache.clear();  // the whole point of the comparison
    }
    const std::size_t invalidated =
        surgical.cache.stats().invalidations - inv_before;
    total_invalidated += invalidated;

    std::vector<QueryResult> got_s;
    std::vector<QueryResult> got_b;
    const Phase ph_s = run_batch(surgical, seeds, &got_s);
    const Phase ph_b = run_batch(baseline, seeds, &got_b);
    last_rate_s = ph_s.hit_rate;
    last_rate_b = ph_b.hit_rate;

    // Reference: serial engine on a from-scratch rebuild at this version.
    const Graph rebuilt = surgical.dyn.materialize();
    Engine ref(rebuilt, mcfg);
    std::vector<QueryResult> want;
    want.reserve(seeds.size());
    for (const NodeId s : seeds) want.push_back(ref.query(s));
    all_identical = all_identical && same_scores(got_s, want) &&
                    same_scores(got_b, want);

    const std::string phase = "post-update " + std::to_string(round + 1);
    add(phase, "surgical", ph_s, invalidated);
    add(phase, "clear()", ph_b, 0);
  }

  std::cout << table.ascii() << '\n'
            << "reading: after each update round the surgical stack loses "
               "only the balls containing an updated endpoint (the "
               "`invalidated` column), so the re-run batch stays warm; the "
               "clear() baseline pays cold BFS for everything, keeping only "
               "within-batch ball sharing. Scores are bit-identical to a "
               "serial from-scratch rebuild in every cell.\n";

  bool ok = true;
  const auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::cout << "CHECK FAILED: " << what << "\n";
      ok = false;
    }
  };
  check(all_identical,
        "scores bit-identical to the rebuilt-graph serial engine in both "
        "stacks after every update round");
  check(total_invalidated > 0,
        "surgical stack invalidated at least one resident ball");
  check(surgical.dyn.version() == baseline.dyn.version(),
        "both stacks applied the full update stream");
  if (smoke) {
    check(last_rate_s >= 2.0 * last_rate_b,
          "surgical post-update hit rate >= 2x the clear() baseline's");
  }
  std::cout << (ok ? "OK" : "FAILED") << ": dynamic-graph checks ("
            << (smoke ? "smoke" : "full") << " mode), post-update hit rate "
            << fmt_percent(last_rate_s) << " (surgical) vs "
            << fmt_percent(last_rate_b) << " (clear), "
            << total_invalidated << " balls invalidated\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace meloppr::bench

int main(int argc, char** argv) {
  const bool smoke = meloppr::bench::parse_bench_args(argc, argv);
  return meloppr::bench::run(smoke);
}
