// bench_e2e — open-loop serving benchmark of the whole MeLoPPR stack.
//
// One workload per process:
//
//   bench_e2e --workload <name> --seed N --seconds S --trace 0|1
//             [--out BENCH_<name>.json] [--trace-out trace.json]
//             [--git-sha SHA]
//   bench_e2e --quick            all four workloads, short phases, checks only
//
// Phases (S = --seconds):
//
//   setup    build graph + stack, then one closed-loop warm pass over the
//            workload's hottest seeds. Repeated three times with --trace 0
//            (setup_s is the median); the last stack is kept.
//   batch    closed-loop query_batch chunks for S/4 seconds  (--trace 0)
//   open     Poisson arrivals at the workload's fixed absolute rate through
//            ServingFrontEnd with default ServingConfig, for 3S/4 seconds
//            (--trace 0) or S/2 seconds (--trace 1, the untraced reference
//            for trace.overhead_p50). The generator also polls stats() at
//            10 Hz, as a monitoring scraper would. Latency runs from each
//            request's DUE time to its completion, so generator stalls
//            count against the system, not in its favour.
//   traced   the same open loop for S/2 seconds with the span recorder on;
//            produces the per-layer metrics                  (--trace 1)
//   checks   outside every timed phase: top-k bit-identical to a cache-less
//            serial Engine::query with the same numerics, admission and
//            completion conservation, non-negative delivery (the per-query
//            spans tile due→done), and — with --trace 0 — precision@200
//            against ppr::local_ppr at L=6 on 128 fixed seeds.
//
// The load is one process: 3 pipeline workers plus this generator thread.
// The graph and each workload's hot-seed pool are fixed (kGraphSeed,
// kPoolSeed) — which vertices are popular is part of the workload, and a
// per-seed pool swung hot_cpu's throughput by a third between seeds. --seed
// drives the traffic: Zipf draws, arrival gaps and the edge-update stream. No MELOPPR_* environment variable is read: the farm is
// built with an explicit DispatchPolicy{} and an empty FaultPlan, and the
// diffusion kernel tier is pinned to the best one this CPU supports.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "core/serving.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/paper_graphs.hpp"
#include "graph/update_streams.hpp"
#include "hw/farm.hpp"
#include "ppr/diffusion_kernels.hpp"
#include "ppr/local_ppr.hpp"
#include "ppr/topk.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace meloppr::bench_e2e {
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kFarmDevices = 4;
constexpr unsigned kFarmPes = 16;
constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kPoolSeed = 43;
constexpr std::uint64_t kPrecisionSeed = 7;
constexpr std::size_t kPrecisionSeeds = 128;
constexpr std::size_t kIdentitySamples = 48;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kBatchChunk = 96;
constexpr double kStatsPollSeconds = 0.1;
constexpr double kMiB = 1024.0 * 1024.0;

enum class BackendKind { kCpu, kFarm };

struct Workload {
  const char* name;
  graph::PaperGraphId graph;
  core::Selection selection;
  BackendKind backend;
  std::size_t cache_mib;
  core::CacheAdmission admission;
  /// Zipf exponent over a pool of `pool` seeds; pool 0 = uniform over every
  /// non-isolated vertex.
  double zipf_s;
  std::size_t pool;
  bool dynamic;
  double read_qps;
  double update_qps;
  double latency_limit_seconds;
  /// Closed-loop warm pass: the hottest `warm_queries` pool seeds (or that
  /// many uniform draws).
  std::size_t warm_queries;
};

// Rates are fixed absolute numbers, a quarter to two fifths of each
// workload's batch_qps on a 4-vCPU Xeon: a faster commit gets the same load,
// so its latency moves. Each is a third below the first rate tried (700,
// 350, 1200, 300 reads/s): at those, slow stretches of the shared host
// pushed p99's run-to-run spread past its bound, and churn_rw once into an
// unbounded backlog. BENCHMARK.json's `why` fields explain the choice of
// each workload.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"hot_cpu", graph::PaperGraphId::kG3Pubmed,
       core::Selection::top_ratio(0.02), BackendKind::kCpu, 256,
       core::CacheAdmission::kAlways, 1.0, 256, false, 470.0, 0.0, 0.025,
       256},
      {"cold_cpu", graph::PaperGraphId::kG4Amazon,
       core::Selection::top_count(32), BackendKind::kCpu, 32,
       core::CacheAdmission::kAlways, 0.0, 0, false, 235.0, 0.0, 0.060, 256},
      {"farm_offload", graph::PaperGraphId::kG5Dblp,
       core::Selection::top_count(8), BackendKind::kFarm, 32,
       core::CacheAdmission::kTinyLFU, 0.8, 4096, false, 800.0, 0.0, 0.020,
       1024},
      {"churn_rw", graph::PaperGraphId::kG4Amazon,
       core::Selection::top_count(32), BackendKind::kCpu, 64,
       core::CacheAdmission::kAlways, 1.0, 4096, true, 200.0, 20.0, 0.060,
       1024},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

core::MelopprConfig make_config(const Workload& w) {
  core::MelopprConfig cfg;
  cfg.alpha = 0.85;
  cfg.stage_lengths = {3, 3};
  cfg.k = 200;
  cfg.selection = w.selection;
  // The farm computes in the accelerator's fixed-point datapath; the serial
  // reference must use the same numerics to be bit-comparable.
  if (w.backend == BackendKind::kFarm) {
    cfg.numerics = ppr::Numerics::kFixedPoint;
  }
  return cfg;
}

/// Draws query seeds: Zipf over a seeded pool of distinct vertices, or
/// uniform over every non-isolated vertex.
class SeedSampler {
 public:
  SeedSampler(const graph::Graph& g, const Workload& w, Rng rng) : g_(&g) {
    if (w.pool == 0) return;
    std::unordered_set<graph::NodeId> seen;
    while (pool_.size() < w.pool) {
      const graph::NodeId s = graph::random_seed_node(g, rng);
      if (seen.insert(s).second) pool_.push_back(s);
    }
    double total = 0.0;
    cdf_.reserve(pool_.size());
    for (std::size_t r = 0; r < pool_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  graph::NodeId next(Rng& rng) const {
    if (pool_.empty()) return graph::random_seed_node(*g_, rng);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return pool_[std::min<std::size_t>(it - cdf_.begin(), pool_.size() - 1)];
  }

  /// The warm pass: the `count` hottest pool seeds, or uniform draws.
  std::vector<graph::NodeId> warm_seeds(std::size_t count, Rng& rng) const {
    if (pool_.empty()) {
      std::vector<graph::NodeId> out;
      for (std::size_t i = 0; i < count; ++i) out.push_back(next(rng));
      return out;
    }
    return {pool_.begin(),
            pool_.begin() + static_cast<std::ptrdiff_t>(
                                std::min(count, pool_.size()))};
  }

 private:
  const graph::Graph* g_;
  std::vector<graph::NodeId> pool_;
  std::vector<double> cdf_;
};

/// The serving stack under test. Members are declared in dependency order
/// so destruction runs pipeline → backends → cache → dynamic graph → graph.
struct Stack {
  graph::Graph graph;
  core::MelopprConfig cfg;
  std::unique_ptr<graph::DynamicGraph> dyn;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<core::ShardedBallCache> cache;
  std::unique_ptr<core::DiffusionBackend> inner;
  hw::FpgaFarm* farm = nullptr;  ///< == inner on the farm workload
  std::unique_ptr<TimedBackend> backend;
  std::unique_ptr<core::QueryPipeline> pipeline;
};

std::unique_ptr<Stack> build_stack(const Workload& w, SpanRecorder& rec) {
  auto s = std::make_unique<Stack>();
  Rng graph_rng(kGraphSeed);
  s->graph = graph::make_paper_graph(w.graph, graph_rng);
  s->cfg = make_config(w);
  s->engine = std::make_unique<core::Engine>(s->graph, s->cfg);
  s->cache = std::make_unique<core::ShardedBallCache>(
      s->graph, w.cache_mib << 20, 0, w.admission);
  if (w.dynamic) {
    s->dyn = std::make_unique<graph::DynamicGraph>(s->graph);
    s->cache->bind_dynamic_graph(*s->dyn);
    s->engine->set_dynamic_graph(s->dyn.get());
  } else {
    s->cache->set_extractor(timed_extractor(rec));
  }
  s->engine->set_shared_ball_cache(s->cache.get());
  if (w.backend == BackendKind::kFarm) {
    hw::AcceleratorConfig acfg;
    acfg.parallelism = kFarmPes;
    acfg.clock_hz = 100e6;
    const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
        s->cfg.alpha, s->cfg.fixed_point_q, s->cfg.fixed_point_d,
        s->graph.average_degree(), s->graph.max_degree(),
        s->graph.num_nodes());
    auto farm = std::make_unique<hw::FpgaFarm>(
        kFarmDevices, acfg, quant, hw::DispatchPolicy{}, FaultPlan{});
    s->farm = farm.get();
    s->inner = std::move(farm);
  } else {
    s->inner = core::make_cpu_backend(s->graph, s->cfg);
  }
  s->backend = std::make_unique<TimedBackend>(*s->inner, rec);
  core::PipelineConfig pcfg;
  pcfg.threads = kWorkers;
  s->pipeline =
      std::make_unique<core::QueryPipeline>(*s->engine, *s->backend, pcfg);
  return s;
}

/// Runs fn(i) for i in [0, n) on a few threads; rethrows the first error.
template <class Fn>
void parallel_for(std::size_t n, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  const std::size_t count = std::max<std::size_t>(
      1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  for (std::size_t t = 0; t < count; ++t) {
    threads.emplace_back([&] {
      try {
        for (std::size_t i = next++; i < n && !failed; i = next++) fn(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

bool same_top(const core::QueryResult& a, const core::QueryResult& b) {
  if (a.top.size() != b.top.size()) return false;
  for (std::size_t r = 0; r < a.top.size(); ++r) {
    if (a.top[r].node != b.top[r].node || a.top[r].score != b.top[r].score) {
      return false;
    }
  }
  return true;
}

double exp_gap(Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform()) / rate;
}

/// Sleeps until `due` on the front end's clock, spinning the last stretch
/// so arrivals are not late by a whole scheduler tick.
void wait_until(const core::ServingFrontEnd& fe, double due) {
  for (;;) {
    const double ahead = due - fe.now();
    if (ahead <= 0.0) return;
    if (ahead > 300e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(ahead - 200e-6));
    }
  }
}

/// Pre-generated edge updates applied in order (each is valid against the
/// graph evolved by its prefix).
struct UpdateFeed {
  std::vector<graph::EdgeUpdate> updates;
  std::size_t cursor = 0;
};

/// One timed call the generator made, on the front end's clock.
struct Call {
  double begin = 0.0;
  double seconds = 0.0;
};

/// Durations of `calls`, scaled by `factor`.
std::vector<double> durations(const std::vector<Call>& calls, double factor) {
  std::vector<double> out;
  out.reserve(calls.size());
  for (const Call& c : calls) out.push_back(c.seconds * factor);
  return out;
}

/// One read the generator attempted, on the front end's clock.
struct Arrival {
  double due = 0.0;
  double submit_begin = 0.0;
  double submit_end = 0.0;
  std::uint64_t ticket = 0;
  bool admitted = false;
};

struct OpenLoop {
  std::vector<Arrival> reads;
  std::vector<Call> update_calls;  ///< submit_update() calls
  std::vector<Call> stats_calls;   ///< stats() polls
  std::vector<core::ServedQuery> served;
  core::ServingStats stats;
  core::QueryPipeline::BatchStats pipe;
  /// The front end's clock zero, on the span recorder's clock (µs).
  double fe_origin_us = 0.0;

  /// Each admitted read, indexed by its ticket (nullptr elsewhere).
  [[nodiscard]] std::vector<const Arrival*> by_ticket() const {
    std::vector<const Arrival*> index;
    for (const Arrival& a : reads) {
      if (!a.admitted) continue;
      if (index.size() <= a.ticket) index.resize(a.ticket + 1, nullptr);
      index[a.ticket] = &a;
    }
    return index;
  }
};

/// The generator's record of a served read (nullptr for a ticket it never
/// issued — a bookkeeping bug the checks report).
const Arrival* arrival_of(const std::vector<const Arrival*>& index,
                          const core::ServedQuery& sq) {
  return sq.ticket < index.size() ? index[sq.ticket] : nullptr;
}

OpenLoop run_open_loop(Stack& s, const Workload& w, const SeedSampler& sampler,
                       Rng rng, UpdateFeed* feed, double seconds,
                       const SpanRecorder& rec) {
  OpenLoop out;
  core::ServingFrontEnd fe(*s.pipeline);
  if (s.dyn != nullptr) fe.set_dynamic_graph(s.dyn.get());
  {
    const double before = rec.now_us();
    const double fe_now = fe.now();
    const double after = rec.now_us();
    out.fe_origin_us = 0.5 * (before + after) - fe_now * 1e6;
  }
  Rng gap_rng = rng.fork(1);
  Rng seed_rng = rng.fork(2);
  Rng update_rng = rng.fork(3);
  constexpr double kNever = std::numeric_limits<double>::infinity();
  const bool updates = feed != nullptr && w.update_qps > 0.0;

  const double start = fe.now();
  const double end = start + seconds;
  double next_read = start + exp_gap(gap_rng, w.read_qps);
  double next_update = updates ? start + exp_gap(update_rng, w.update_qps)
                               : kNever;
  double next_poll = start;
  out.reads.reserve(static_cast<std::size_t>(w.read_qps * seconds * 1.2) +
                    16);
  for (;;) {
    const double due = std::min({next_read, next_update, next_poll});
    if (due >= end) break;
    wait_until(fe, due);
    if (due == next_poll) {
      const double t0 = fe.now();
      (void)fe.stats();
      out.stats_calls.push_back({t0, fe.now() - t0});
      next_poll += kStatsPollSeconds;
    } else if (due == next_update) {
      if (feed->cursor < feed->updates.size()) {
        const double t0 = fe.now();
        (void)fe.submit_update(feed->updates[feed->cursor++]);
        out.update_calls.push_back({t0, fe.now() - t0});
      }
      next_update += exp_gap(update_rng, w.update_qps);
    } else {
      Arrival a;
      a.due = due;
      const graph::NodeId seed = sampler.next(seed_rng);
      a.submit_begin = fe.now();
      const core::Admission adm = fe.submit(seed);
      a.submit_end = fe.now();
      a.admitted = adm.admitted;
      a.ticket = adm.ticket;
      out.reads.push_back(a);
      next_read += exp_gap(gap_rng, w.read_qps);
    }
  }
  out.served = fe.drain();
  fe.shutdown();
  out.stats = fe.stats();
  out.pipe = fe.pipeline_stats();
  return out;
}

/// Per-query span decomposition of one served read, on the front-end
/// clock: due → submit → dispatch → claim → finalize → done.
struct QuerySpans {
  double due = 0.0;
  double submit = 0.0;
  double dispatch = 0.0;
  double claim = 0.0;
  double finalize = 0.0;
  double done = 0.0;

  [[nodiscard]] double latency() const { return done - due; }
};

QuerySpans spans_of(const core::ServedQuery& sq, const Arrival& a) {
  const core::QueryStats& st = sq.result.stats;
  QuerySpans q;
  q.due = a.due;
  q.submit = a.submit_begin;
  // ServedQuery::queue_seconds is admission wait + scheduler wait; the
  // scheduler part is QueryStats::queue_seconds.
  q.dispatch = sq.arrival_seconds + (sq.queue_seconds - st.queue_seconds);
  q.claim = q.dispatch + st.queue_seconds;
  q.finalize = q.claim + st.service_seconds();
  q.done = sq.arrival_seconds + sq.response_seconds;
  return q;
}

/// Failures among an open loop's reads: rejects, sheds and kFailed.
std::size_t failed_reads(const OpenLoop& ol) {
  std::size_t failed = ol.stats.submitted - ol.stats.admitted;
  for (const core::ServedQuery& sq : ol.served) {
    if (sq.status != core::ServeStatus::kOk ||
        sq.result.stats.outcome() == core::QueryOutcome::kFailed) {
      ++failed;
    }
  }
  return failed;
}

/// The correctness ledger: each check either passes or records why not.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
    ++count_;
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  std::vector<std::string> failures_;
  std::size_t count_ = 0;
};

void check_open_loop(const OpenLoop& ol, const char* phase, Checks& checks) {
  const core::ServingStats& s = ol.stats;
  const std::string p = phase;
  checks.expect(s.submitted == s.admitted + s.rejected_queue_full +
                                   s.rejected_deadline + s.rejected_shutdown,
                p + ": submitted == admitted + rejects");
  checks.expect(s.admitted == s.completed + s.shed_deadline,
                p + ": admitted == completed + shed after drain");
  checks.expect(ol.served.size() == s.completed + s.shed_deadline,
                p + ": drain() returned every finished read");
  std::size_t negative = 0;
  std::size_t unmatched = 0;
  const std::vector<const Arrival*> index = ol.by_ticket();
  for (const core::ServedQuery& sq : ol.served) {
    if (sq.status != core::ServeStatus::kOk) continue;
    const Arrival* a = arrival_of(index, sq);
    if (a == nullptr) {
      ++unmatched;
      continue;
    }
    const QuerySpans q = spans_of(sq, *a);
    constexpr double kEps = 1e-9;  // two steady clocks, double rounding
    if (q.submit < q.due - kEps || q.dispatch < q.submit - kEps ||
        q.claim < q.dispatch - kEps || q.finalize < q.claim - kEps ||
        q.done < q.finalize - kEps) {
      ++negative;
    }
  }
  checks.expect(unmatched == 0, p + ": every served ticket was generated");
  checks.expect(negative == 0,
                p + ": spans tile due→done (no negative span, delivery "
                    ">= 0); violated by " +
                    std::to_string(negative) + " of " +
                    std::to_string(ol.served.size()) + " reads");
}

/// Served reads agree bit for bit with a cache-less serial engine on
/// `reference_graph` (same numerics, no cache, no pipeline).
void check_identity(const graph::Graph& reference_graph,
                    const core::MelopprConfig& cfg,
                    const std::vector<graph::NodeId>& seeds,
                    const std::vector<const core::QueryResult*>& got,
                    const std::string& what, Checks& checks) {
  const core::Engine reference(reference_graph, cfg);
  std::vector<char> same(seeds.size(), 0);
  parallel_for(seeds.size(), [&](std::size_t i) {
    same[i] = same_top(*got[i], reference.query(seeds[i])) ? 1 : 0;
  });
  const auto matching = static_cast<std::size_t>(
      std::count(same.begin(), same.end(), 1));
  checks.expect(!seeds.empty() && matching == seeds.size(),
                what + ": " + std::to_string(matching) + "/" +
                    std::to_string(seeds.size()) +
                    " top-k bit-identical to serial Engine::query");
}

void check_served_identity(const Stack& s, const OpenLoop& ol,
                           const char* phase, Checks& checks) {
  std::vector<graph::NodeId> seeds;
  std::vector<const core::QueryResult*> got;
  const std::size_t stride =
      std::max<std::size_t>(1, ol.served.size() / kIdentitySamples);
  for (std::size_t i = 0; i < ol.served.size(); i += stride) {
    if (ol.served[i].status != core::ServeStatus::kOk) continue;
    seeds.push_back(ol.served[i].seed);
    got.push_back(&ol.served[i].result);
  }
  check_identity(s.graph, s.cfg, seeds, got, phase, checks);
}

/// Dynamic stacks: the reads above were served at many graph versions, so
/// identity is checked on a post-run batch against a from-scratch rebuild.
void check_dynamic_identity(Stack& s, const SeedSampler& sampler, Rng rng,
                            Checks& checks) {
  std::vector<graph::NodeId> seeds;
  for (std::size_t i = 0; i < kIdentitySamples; ++i) {
    seeds.push_back(sampler.next(rng));
  }
  const std::vector<core::QueryResult> results =
      s.pipeline->query_batch(seeds);
  std::vector<const core::QueryResult*> got;
  for (const core::QueryResult& r : results) got.push_back(&r);
  const graph::Graph rebuilt = s.dyn->materialize();
  check_identity(rebuilt, s.cfg, seeds, got,
                 "post-run batch vs materialize()", checks);
}

/// Mean precision@k of the serial engine (the stack is checked bit-identical
/// to it) against single-stage local PPR at L = Σ stage lengths, on fixed
/// seeds of the static graph.
double precision_at_k(const Stack& s) {
  Rng rng(kPrecisionSeed);
  std::vector<graph::NodeId> seeds;
  std::unordered_set<graph::NodeId> seen;
  while (seeds.size() < kPrecisionSeeds) {
    const graph::NodeId v = graph::random_seed_node(s.graph, rng);
    if (seen.insert(v).second) seeds.push_back(v);
  }
  const core::Engine engine(s.graph, s.cfg);
  ppr::LocalPprParams params;
  params.alpha = s.cfg.alpha;
  params.length = s.cfg.total_length();
  params.k = s.cfg.k;
  std::vector<double> precision(seeds.size(), 0.0);
  parallel_for(seeds.size(), [&](std::size_t i) {
    const ppr::LocalPprResult truth = ppr::local_ppr(s.graph, seeds[i], params);
    precision[i] = ppr::precision_at_k(truth.top, engine.query(seeds[i]).top,
                                       s.cfg.k);
  });
  return std::accumulate(precision.begin(), precision.end(), 0.0) /
         static_cast<double>(precision.size());
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

/// Adds p-th percentile `name` of `values` with its sample count.
void add_percentile(MetricReport& report, const std::string& name,
                    const std::vector<double>& values, double p,
                    const std::string& unit) {
  report.add(name, percentile(values, p), unit, Kind::kMeasured,
             values.size());
}

/// Per-layer variant: a layer the workload barely exercises (no BFS once
/// the working set is cached) reports 0 as n/a instead of no number.
void add_layer_percentile(MetricReport& report, const std::string& name,
                          const std::vector<double>& values, double p,
                          const std::string& unit) {
  const std::optional<double> v = percentile(values, p);
  report.add(name, v.value_or(0.0), unit,
             v ? Kind::kMeasured : Kind::kNotApplicable, values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Latencies (seconds, due → done) of an open loop's completed reads.
std::vector<double> read_latencies(const OpenLoop& ol) {
  const std::vector<const Arrival*> index = ol.by_ticket();
  std::vector<double> out;
  out.reserve(ol.served.size());
  for (const core::ServedQuery& sq : ol.served) {
    const Arrival* a = arrival_of(index, sq);
    if (sq.status != core::ServeStatus::kOk || a == nullptr) continue;
    out.push_back(spans_of(sq, *a).latency());
  }
  return out;
}

/// Share of submitted reads completed, not failed, within `limit` seconds
/// of their due time.
double slo_attainment(const OpenLoop& ol, double limit) {
  const std::vector<const Arrival*> index = ol.by_ticket();
  std::size_t met = 0;
  for (const core::ServedQuery& sq : ol.served) {
    const Arrival* a = arrival_of(index, sq);
    if (sq.status != core::ServeStatus::kOk || a == nullptr ||
        sq.result.stats.outcome() == core::QueryOutcome::kFailed) {
      continue;
    }
    if (spans_of(sq, *a).latency() <= limit) ++met;
  }
  return ratio(static_cast<double>(met),
               static_cast<double>(ol.stats.submitted));
}

/// Per-layer metrics of the traced open loop. `before` is the cache's
/// counter snapshot from just before the phase.
void report_layers(MetricReport& report, const Stack& s, const Workload& w,
                   const OpenLoop& ol, const OpenLoop& untraced,
                   const core::ShardedBallCache::Stats& before,
                   const std::vector<std::pair<std::size_t, Span>>& spans) {
  std::vector<double> admission_ms, delivery_ms, sched_ms, service_ms,
      peak_kb, agg_entries;
  double bfs = 0.0, modeled = 0.0;
  std::uint64_t edge_ops = 0, balls = 0, ball_nodes = 0;
  std::size_t queries = 0;
  for (const core::ServedQuery& sq : ol.served) {
    if (sq.status != core::ServeStatus::kOk) continue;
    const core::QueryStats& st = sq.result.stats;
    ++queries;
    admission_ms.push_back((sq.queue_seconds - st.queue_seconds) * 1e3);
    delivery_ms.push_back(
        (sq.response_seconds - sq.queue_seconds - st.service_seconds()) * 1e3);
    sched_ms.push_back(st.queue_seconds * 1e3);
    service_ms.push_back(st.service_seconds() * 1e3);
    peak_kb.push_back(static_cast<double>(st.peak_bytes) / 1024.0);
    agg_entries.push_back(static_cast<double>(st.aggregator_entries));
    bfs += st.bfs_seconds();
    modeled += st.compute_seconds() + st.transfer_seconds();
    edge_ops += st.edge_ops();
    for (const core::StageStats& stage : st.stages) {
      balls += stage.balls;
      ball_nodes += stage.total_ball_nodes;
    }
  }
  const auto q = static_cast<double>(queries);
  std::vector<double> lag_ms, submit_us;
  for (const Arrival& a : ol.reads) {
    lag_ms.push_back((a.submit_begin - a.due) * 1e3);
    submit_us.push_back((a.submit_end - a.submit_begin) * 1e6);
  }
  std::vector<double> run_us, ball_us;
  double run_seconds = 0.0;
  std::uint64_t span_edge_ops = 0;
  for (const auto& [thread, span] : spans) {
    if (span.kind == SpanKind::kBackendRun) {
      run_us.push_back(span.duration_us());
      run_seconds += span.duration_us() * 1e-6;
      span_edge_ops += span.edge_ops;
    } else {
      ball_us.push_back(span.duration_us());
    }
  }

  // serving
  add_layer_percentile(report, "serving.admission_wait_ms_p50",
                       admission_ms, 50, "ms");
  add_layer_percentile(report, "serving.admission_wait_ms_p99",
                       admission_ms, 99, "ms");
  add_layer_percentile(report, "serving.delivery_ms_p99", delivery_ms, 99,
                       "ms");
  add_layer_percentile(report, "serving.submit_us_p99", submit_us, 99, "us");
  add_layer_percentile(report, "serving.stats_ms_p90",
                       durations(ol.stats_calls, 1e3), 90, "ms");
  report.add("serving.batch_size_mean",
             ratio(static_cast<double>(ol.stats.admitted),
                   static_cast<double>(ol.stats.batches_formed)),
             "count", Kind::kCount);
  // pipeline
  add_layer_percentile(report, "pipeline.sched_wait_ms_p50", sched_ms, 50,
                       "ms");
  add_layer_percentile(report, "pipeline.sched_wait_ms_p99", sched_ms, 99,
                       "ms");
  add_layer_percentile(report, "pipeline.service_ms_p50", service_ms, 50,
                       "ms");
  add_layer_percentile(report, "pipeline.service_ms_p99", service_ms, 99,
                       "ms");
  report.add("pipeline.tasks_per_query",
             ratio(static_cast<double>(ol.pipe.executed_tasks), q), "count",
             Kind::kCount);
  report.add("pipeline.stolen_share",
             ratio(static_cast<double>(ol.pipe.stolen_tasks),
                   static_cast<double>(ol.pipe.executed_tasks)),
             "share", Kind::kCount);
  // cache
  const core::ShardedBallCache::Stats after = s.cache->stats();
  const auto delta = [](std::size_t a, std::size_t b) {
    return static_cast<double>(a - b);
  };
  const double demand = delta(after.hits, before.hits) +
                        delta(after.misses, before.misses);
  report.add("cache.hit_rate",
             ratio(delta(after.hits, before.hits), demand), "share",
             Kind::kCount);
  report.add("cache.dedup_share",
             ratio(delta(after.dedup_hits, before.dedup_hits), demand),
             "share", Kind::kCount);
  report.add("cache.pin_hit_share",
             ratio(delta(after.pin_hits, before.pin_hits), demand),
             "share", Kind::kCount);
  report.add("cache.evictions_per_query",
             ratio(delta(after.evictions, before.evictions), q),
             "count", Kind::kCount);
  report.add("cache.admission_rejects_per_query",
             ratio(delta(after.admission_rejects,
                         before.admission_rejects),
                   q),
             "count", Kind::kCount);
  report.add("cache.resident_mb",
             static_cast<double>(s.cache->bytes()) / kMiB, "MB",
             Kind::kCount);
  if (w.dynamic) {
    report.add("cache.invalidations_per_update",
               ratio(delta(after.invalidations, before.invalidations),
                     static_cast<double>(ol.update_calls.size())),
               "count", Kind::kCount);
    report.add("cache.stale_rejects",
               delta(after.stale_rejects, before.stale_rejects),
               "count", Kind::kCount);
  } else {
    report.add_na("cache.invalidations_per_update", "count");
    report.add_na("cache.stale_rejects", "count");
  }
  // prefetcher (spawned only for offloading backends; zero elsewhere)
  report.add("prefetcher.issued_per_query",
             ratio(static_cast<double>(ol.pipe.prefetch_issued), q), "count",
             Kind::kCount);
  report.add("prefetcher.hidden_bfs_share",
             ratio(ol.pipe.prefetch_hidden_seconds,
                   ol.pipe.prefetch_hidden_seconds +
                       ol.pipe.demand_bfs_seconds),
             "share");
  report.add("prefetcher.root_reextractions",
             static_cast<double>(ol.pipe.root_reextractions), "count",
             Kind::kCount);
  // graph
  report.add("graph.bfs_ms_per_query", ratio(bfs * 1e3, q), "ms");
  // Fig. 7's split, measured: time tasks waited for balls against time they
  // spent in backend run(), both summed over tasks (tasks of one query run
  // in parallel, so neither sum is bounded by the query's service time).
  report.add("graph.bfs_share", ratio(bfs, bfs + run_seconds), "share");
  // No extraction spans on a dynamic stack (bind_dynamic_graph owns the
  // extractor) and no updates on a static one: those report n/a.
  add_layer_percentile(report, "graph.ball_us_p50", ball_us, 50, "us");
  add_layer_percentile(report, "graph.ball_us_p99", ball_us, 99, "us");
  const std::vector<double> update_ms = durations(ol.update_calls, 1e3);
  add_layer_percentile(report, "graph.update_ms_p50", update_ms, 50, "ms");
  add_layer_percentile(report, "graph.update_ms_p90", update_ms, 90, "ms");
  report.add("graph.ball_nodes_mean",
             ratio(static_cast<double>(ball_nodes),
                   static_cast<double>(balls)),
             "count", Kind::kCount);
  // backend (wall clock around every run() call)
  add_layer_percentile(report, "backend.run_us_p50", run_us, 50, "us");
  add_layer_percentile(report, "backend.run_us_p99", run_us, 99, "us");
  report.add("backend.device_ms_per_query", ratio(run_seconds * 1e3, q),
             "ms");
  report.add("backend.edge_ops_per_query",
             ratio(static_cast<double>(edge_ops), q), "count", Kind::kCount);
  report.add("backend.medges_per_s",
             ratio(static_cast<double>(span_edge_ops) / 1e6, run_seconds),
             "Medges/s");
  // farm
  if (s.farm != nullptr) {
    report.add("farm.modeled_device_ms_per_query", ratio(modeled * 1e3, q),
               "ms", Kind::kModeled);
    report.add("farm.dispatch_wait_ms_per_query",
               ratio(s.farm->dispatch_wait_seconds() * 1e3, q), "ms");
    report.add("farm.peak_concurrent_runs",
               static_cast<double>(s.farm->peak_concurrent_runs()), "count",
               Kind::kCount);
    report.add("farm.imbalance", s.farm->imbalance(), "ratio", Kind::kModeled);
  } else {
    report.add_na("farm.modeled_device_ms_per_query", "ms");
    report.add_na("farm.dispatch_wait_ms_per_query", "ms");
    report.add_na("farm.peak_concurrent_runs", "count");
    report.add_na("farm.imbalance", "ratio");
  }
  // engine
  add_layer_percentile(report, "engine.query_peak_kb_p50", peak_kb, 50,
                       "KiB");
  add_layer_percentile(report, "engine.aggregator_entries_p50", agg_entries,
                       50, "count");
  // bench
  add_layer_percentile(report, "bench.generator_lag_ms_p99", lag_ms, 99, "ms");
  const std::optional<double> traced_p50 =
      percentile(read_latencies(ol), 50);
  const std::optional<double> untraced_p50 =
      percentile(read_latencies(untraced), 50);
  report.add("trace.overhead_p50",
             traced_p50 && untraced_p50
                 ? std::optional<double>(*traced_p50 / *untraced_p50 - 1.0)
                 : std::nullopt,
             "ratio");
}

/// Chrome Trace Event document of the traced phase around its slowest read
/// (±kTraceWindowSeconds): per-read spans (pid 1, one row per ticket),
/// per-ball calls (pid 2, one row per thread) and the generator's stats()
/// and submit_update() calls (pid 3). A whole phase would run to tens of MB.
void write_trace(const std::string& path, const OpenLoop& ol,
                 const std::vector<std::pair<std::size_t, Span>>& spans) {
  constexpr double kTraceWindowSeconds = 0.25;
  const auto us = [&ol](double fe_seconds) {
    return ol.fe_origin_us + fe_seconds * 1e6;
  };
  const std::vector<const Arrival*> index = ol.by_ticket();
  std::optional<QuerySpans> slowest;
  for (const core::ServedQuery& sq : ol.served) {
    const Arrival* a = arrival_of(index, sq);
    if (sq.status != core::ServeStatus::kOk || a == nullptr) continue;
    const QuerySpans q = spans_of(sq, *a);
    if (!slowest || q.latency() > slowest->latency()) slowest = q;
  }
  if (!slowest) return;
  const double window_begin = us(slowest->due - kTraceWindowSeconds);
  const double window_end = us(slowest->done + kTraceWindowSeconds);
  std::vector<TraceEvent> events;
  const auto add = [&](TraceEvent e) {
    if (e.ts_us + e.dur_us >= window_begin && e.ts_us <= window_end) {
      events.push_back(std::move(e));
    }
  };
  for (const core::ServedQuery& sq : ol.served) {
    const Arrival* a = arrival_of(index, sq);
    if (sq.status != core::ServeStatus::kOk || a == nullptr) continue;
    const QuerySpans q = spans_of(sq, *a);
    const std::string args = "\"ticket\": " + std::to_string(sq.ticket) +
                             ", \"seed\": " + std::to_string(sq.seed);
    const std::pair<const char*, std::pair<double, double>> parts[] = {
        {"query", {q.due, q.done}},
        {"generator_lag", {q.due, q.submit}},
        {"admission", {q.submit, q.dispatch}},
        {"sched_wait", {q.dispatch, q.claim}},
        {"service", {q.claim, q.finalize}},
        {"delivery", {q.finalize, q.done}},
    };
    for (const auto& [name, range] : parts) {
      add({name, 1, sq.ticket, us(range.first),
           (range.second - range.first) * 1e6, args});
    }
  }
  for (const auto& [thread, span] : spans) {
    add({to_string(span.kind), 2, thread, span.begin_us, span.duration_us(),
         "\"nodes\": " + std::to_string(span.nodes) +
             ", \"edge_ops\": " + std::to_string(span.edge_ops)});
  }
  for (const Call& c : ol.stats_calls) {
    add({"stats()", 3, 0, us(c.begin), c.seconds * 1e6, ""});
  }
  for (const Call& c : ol.update_calls) {
    add({"submit_update()", 3, 1, us(c.begin), c.seconds * 1e6, ""});
  }
  std::ofstream os(path);
  write_chrome_trace(os, events, {"reads", "ball calls", "generator calls"});
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;
  std::string out;
  std::string trace_out;
  std::string git_sha = "unknown";
};

/// Phase lengths derived from --seconds (and the quick self-check).
struct Plan {
  std::size_t setup_repeats = 1;
  double batch_seconds = 0.0;
  double open_seconds = 0.0;
  double traced_seconds = 0.0;
  bool precision = false;
};

Plan make_plan(const Options& opt) {
  Plan plan;
  if (opt.quick) {
    plan.batch_seconds = 0.5;
    plan.open_seconds = 1.5;
    plan.traced_seconds = 1.0;
  } else if (opt.trace) {
    plan.open_seconds = 0.5 * opt.seconds;
    plan.traced_seconds = 0.5 * opt.seconds;
  } else {
    plan.setup_repeats = kSetupRepeats;
    plan.batch_seconds = 0.25 * opt.seconds;
    plan.open_seconds = 0.75 * opt.seconds;
    plan.precision = true;
  }
  return plan;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + json_escape(items[i]) + "\"";
  }
  return out + "]";
}

/// Runs one workload end to end; returns false when a check failed.
bool run_workload(const Workload& w, const Options& opt) {
  const Plan plan = make_plan(opt);
  SpanRecorder rec;
  MetricReport report;
  Checks checks;
  Rng rng(opt.seed);
  Rng warm_rng = rng.fork(1);
  Rng batch_rng = rng.fork(2);
  Rng open_rng = rng.fork(3);
  Rng traced_rng = rng.fork(4);
  Rng update_rng = rng.fork(5);
  Rng identity_rng = rng.fork(6);

  // --- setup: graph + stack + one closed-loop warm pass, timed.
  std::vector<double> setup_seconds;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<SeedSampler> sampler;
  for (std::size_t r = 0; r < plan.setup_repeats; ++r) {
    stack.reset();
    sampler.reset();
    Timer t;
    stack = build_stack(w, rec);
    sampler =
        std::make_unique<SeedSampler>(stack->graph, w, Rng(kPoolSeed));
    Rng warm = warm_rng;
    (void)stack->pipeline->query_batch(
        sampler->warm_seeds(w.warm_queries, warm));
    setup_seconds.push_back(t.elapsed_seconds());
  }
  Stack& s = *stack;

  UpdateFeed feed;
  if (w.dynamic) {
    graph::UpdateStreamConfig ucfg;
    ucfg.count = static_cast<std::size_t>(
                     w.update_qps * (plan.open_seconds + plan.traced_seconds) *
                     1.5) +
                 64;
    feed.updates = graph::make_update_stream(
        s.graph, graph::UpdateWorkload::kRecommenderChurn, ucfg, update_rng);
  }

  // --- batch: closed-loop query_batch chunks.
  std::size_t batch_queries = 0;
  std::size_t batch_failed = 0;
  std::vector<double> chunk_qps;
  for (Timer phase; phase.elapsed_seconds() < plan.batch_seconds;) {
    std::vector<graph::NodeId> seeds;
    for (std::size_t i = 0; i < kBatchChunk; ++i) {
      seeds.push_back(sampler->next(batch_rng));
    }
    Timer t;
    const std::vector<core::QueryResult> results =
        s.pipeline->query_batch(seeds);
    chunk_qps.push_back(static_cast<double>(seeds.size()) /
                        t.elapsed_seconds());
    batch_queries += seeds.size();
    for (const core::QueryResult& r : results) {
      if (r.stats.outcome() == core::QueryOutcome::kFailed) ++batch_failed;
    }
  }

  // --- open loop, tracing off.
  const OpenLoop open = run_open_loop(s, w, *sampler, open_rng, &feed,
                                      plan.open_seconds, rec);
  const double rss_mb = rss_peak_mb();

  // --- traced open loop.
  std::optional<OpenLoop> traced;
  std::vector<std::pair<std::size_t, Span>> spans;
  core::ShardedBallCache::Stats before;
  if (plan.traced_seconds > 0.0) {
    if (s.farm != nullptr) s.farm->reset();  // idle: peak/imbalance/wait
    before = s.cache->stats();
    rec.clear();
    rec.enable(true);
    traced = run_open_loop(s, w, *sampler, traced_rng, &feed,
                           plan.traced_seconds, rec);
    rec.enable(false);
    spans = rec.collect();
  }

  // --- checks (untimed).
  check_open_loop(open, "open loop", checks);
  if (traced) check_open_loop(*traced, "traced loop", checks);
  if (w.dynamic) {
    check_dynamic_identity(s, *sampler, identity_rng, checks);
  } else {
    check_served_identity(s, open, "open loop", checks);
    if (traced) check_served_identity(s, *traced, "traced loop", checks);
  }
  std::size_t attempted = batch_queries + open.stats.submitted;
  std::size_t failed = batch_failed + failed_reads(open);
  if (traced) {
    attempted += traced->stats.submitted;
    failed += failed_reads(*traced);
  }

  // --- end-to-end metrics.
  report.add("setup_s", median(setup_seconds), "s",
             Kind::kMeasured, setup_seconds.size());
  const std::vector<double> latency_ms = scaled(read_latencies(open), 1e3);
  add_percentile(report, "latency_p50_ms", latency_ms, 50, "ms");
  add_percentile(report, "latency_p99_ms", latency_ms, 99, "ms");
  report.add("slo_attainment", slo_attainment(open, w.latency_limit_seconds),
             "share", Kind::kMeasured, open.stats.submitted);
  report.add("failed_share",
             ratio(static_cast<double>(failed_reads(open)),
                   static_cast<double>(open.stats.submitted)),
             "share", Kind::kCount, open.stats.submitted);
  // Median over chunks: a burst of outside load spoils a few chunks, not
  // the number.
  report.add("batch_qps",
             chunk_qps.empty() ? std::nullopt
                               : std::optional<double>(median(chunk_qps)),
             "q/s", Kind::kMeasured, chunk_qps.size());
  report.add("precision_at_k",
             plan.precision ? std::optional<double>(precision_at_k(s))
                            : std::nullopt,
             "share", Kind::kCount, plan.precision ? kPrecisionSeeds : 0);
  report.add("rss_peak_mb", rss_mb, "MB");
  if (traced) {
    report_layers(report, s, w, *traced, open, before, spans);
    if (!opt.trace_out.empty()) write_trace(opt.trace_out, *traced, spans);
  }

  report.info_string("workload", w.name);
  report.info("seed", std::to_string(opt.seed));
  report.info_string("git_sha", opt.git_sha);
  report.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.info("workers", std::to_string(kWorkers));
  report.info_string("kernel_tier", ppr::to_string(ppr::active_kernel_tier()));
  report.info_string("graph", s.graph.summary());
  report.info_string("backend", s.backend->name());
  report.info("read_qps", full_digits(w.read_qps));
  report.info("update_qps", full_digits(w.update_qps));
  report.info("latency_limit_ms", full_digits(w.latency_limit_seconds * 1e3));
  report.info("trace", opt.trace ? "true" : "false");
  report.info("setup_repeats", std::to_string(plan.setup_repeats));
  report.info("batch_seconds", full_digits(plan.batch_seconds));
  report.info("open_seconds", full_digits(plan.open_seconds));
  report.info("traced_seconds", full_digits(plan.traced_seconds));
  report.info("batch_queries", std::to_string(batch_queries));
  report.info("open_reads", std::to_string(open.stats.submitted));
  report.info("open_updates", std::to_string(open.update_calls.size()));
  report.info("traced_reads",
              std::to_string(traced ? traced->stats.submitted : 0));
  report.info("attempted", std::to_string(attempted));
  report.info("failed", std::to_string(failed));
  report.info("checks", std::to_string(checks.count()));
  report.info("correct", checks.ok() ? "true" : "false");
  report.info("check_failures", json_list(checks.failures()));

  std::cout << "# workload " << w.name << "  seed " << opt.seed << "  "
            << s.graph.summary() << "  backend " << s.backend->name()
            << "\n";
  report.print(std::cout);
  for (const std::string& f : checks.failures()) {
    std::cout << "CHECK FAILED: " << f << '\n';
  }
  std::cout << "# " << checks.count() << " checks, "
            << checks.failures().size() << " failed; attempted " << attempted
            << ", failed " << failed << '\n';
  if (!opt.out.empty()) {
    std::ofstream os(opt.out);
    report.write_json(os);
    if (!os) {
      std::cerr << "bench_e2e: cannot write " << opt.out << '\n';
      return false;
    }
  }
  return checks.ok() && (!opt.quick || failed == 0);
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "bench_e2e: " << why << "\n"
            << "usage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out FILE] [--trace-out FILE] [--git-sha SHA]\n"
            << "       bench_e2e --quick\n"
            << "workloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--git-sha") {
      opt.git_sha = value();
    } else if (arg == "--quick") {
      opt.quick = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!opt.quick && find_workload(opt.workload) == nullptr) {
    usage("unknown or missing --workload");
  }
  if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0)) {
    usage("--seconds must be in [1, 600]");
  }
  return opt;
}

}  // namespace
}  // namespace meloppr::bench_e2e

int main(int argc, char** argv) {
  using namespace meloppr;
  using namespace meloppr::bench_e2e;
  const Options opt = parse(argc, argv);
  // Pin the kernel tier so MELOPPR_FORCE_SCALAR cannot change the program.
  ppr::set_kernel_tier_override(
      ppr::kernel_tier_available(ppr::KernelTier::kAvx2)
          ? ppr::KernelTier::kAvx2
          : ppr::KernelTier::kScalar);
  if (!opt.quick) {
    return run_workload(*find_workload(opt.workload), opt) ? 0 : 1;
  }
  bool ok = true;
  Timer total;
  for (const Workload& w : workloads()) {
    Options one = opt;
    one.workload = w.name;
    ok = run_workload(w, one) && ok;
  }
  std::cout << (ok ? "quick self-check: OK" : "quick self-check: FAILED")
            << " (" << total.elapsed_seconds() << " s)\n";
  return ok ? 0 : 1;
}
