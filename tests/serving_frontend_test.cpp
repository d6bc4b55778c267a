// The continuous-ingest scheduler (QueryPipeline::query_stream) and the
// SLO-aware serving front end built on it: mid-batch injection stays
// bit-identical to Engine::query, latency attribution is arrival-stamped,
// overload degrades into typed counted sheds, workers claim round-robin
// across tenants and shed expired seeds unexecuted, and tenants cannot
// starve each other. Custom main: the stream hammer scales under
// MELOPPR_STRESS_ITERS for the sanitizer jobs.
#include "core/serving.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
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

const Graph& test_graph() {
  static Rng rng(test::test_seed());
  static const Graph g = graph::barabasi_albert(500, 2, 2, rng);
  return g;
}

void expect_bit_identical(const QueryResult& got, const QueryResult& want,
                          graph::NodeId seed) {
  ASSERT_EQ(got.top.size(), want.top.size()) << "seed " << seed;
  for (std::size_t r = 0; r < want.top.size(); ++r) {
    EXPECT_EQ(got.top[r].node, want.top[r].node) << "seed " << seed;
    EXPECT_DOUBLE_EQ(got.top[r].score, want.top[r].score) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// query_stream: the continuous-ingest scheduler itself.

TEST(QueryStream, MidBatchInjectionBitIdenticalAtEveryThreadCount) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 16; ++s) seeds.push_back((s * 31 + 7) % 500);
  std::vector<QueryResult> want;
  want.reserve(seeds.size());
  for (graph::NodeId s : seeds) want.push_back(engine.query(s));

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    PipelineConfig pcfg;
    pcfg.threads = threads;
    QueryPipeline pipeline(engine, backend, pcfg);

    SeedStream stream;
    // Two seeds are present at start; the rest are injected WHILE the
    // batch runs, from another thread, with pauses long enough that
    // workers actually go idle and must be woken event-driven.
    stream.push(seeds[0]);
    stream.push(seeds[1]);
    std::thread pusher([&] {
      for (std::size_t i = 2; i < seeds.size(); ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        stream.push(seeds[i]);
      }
      stream.close();
    });

    std::vector<QueryResult> got(seeds.size());
    pipeline.query_stream(
        stream, [&](const SeedStream::Slot& slot, QueryResult* r) {
          got[slot.index] = std::move(*r);
        });
    pusher.join();

    for (std::size_t i = 0; i < seeds.size(); ++i) {
      expect_bit_identical(got[i], want[i], seeds[i]);
      // Popcount semantics under streaming too.
      EXPECT_GE(got[i].stats.threads_used, 1u);
      EXPECT_LE(got[i].stats.threads_used, threads);
    }
  }
}

TEST(QueryStream, ResponseTimesMonotoneOnOneWorker) {
  // K same-arrival queries on a single worker finish in claim order, so
  // arrival-stamped response times must be monotone — the headline bug was
  // exactly this: claim-clocked totals made the last query of a backlog
  // look as cheap as the first.
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 1;
  QueryPipeline pipeline(engine, backend, pcfg);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 8; ++s) seeds.push_back((s * 17 + 3) % 500);

  SeedStream stream;
  stream.push_all(seeds);
  stream.close();
  std::vector<QueryResult> got(seeds.size());
  pipeline.query_stream(stream,
                        [&](const SeedStream::Slot& slot, QueryResult* r) {
                          got[slot.index] = std::move(*r);
                        });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(got[i].stats.queue_seconds, got[i].stats.total_seconds + 1e-12);
    EXPECT_GT(got[i].stats.service_seconds(), 0.0);
    if (i > 0) {
      EXPECT_GE(got[i].stats.total_seconds + 1e-9,
                got[i - 1].stats.total_seconds)
          << "query " << i << " reported a response time shorter than the "
          << "one serviced before it — claim-clocked attribution is back";
      EXPECT_GE(got[i].stats.queue_seconds + 1e-9,
                got[i - 1].stats.queue_seconds);
    }
  }
}

TEST(QueryStream, BatchWallExcludesActivationAndPercentilesCohere) {
  // Two equal batches back to back: neither may be charged for one-time
  // pipeline setup (the pool spawns in the constructor, before any batch
  // wall clock starts), so equal work stays within a generous factor.
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 12; ++s) seeds.push_back((s * 13 + 1) % 500);

  QueryPipeline::BatchStats first;
  QueryPipeline::BatchStats second;
  (void)pipeline.query_batch(seeds, &first);
  (void)pipeline.query_batch(seeds, &second);

  EXPECT_GT(first.wall_seconds, 0.0);
  EXPECT_GT(second.wall_seconds, 0.0);
  // Generous: scheduler jitter is real, an unmetered activation bias is
  // 100x-scale when a cache warms lazily inside the "batch" window.
  EXPECT_LT(first.wall_seconds, second.wall_seconds * 100.0);
  EXPECT_LT(second.wall_seconds, first.wall_seconds * 100.0);

  for (const QueryPipeline::BatchStats* bs : {&first, &second}) {
    EXPECT_EQ(bs->queries, seeds.size());
    EXPECT_GT(bs->response_p50_seconds, 0.0);
    EXPECT_LE(bs->response_p50_seconds, bs->response_p99_seconds + 1e-12);
    EXPECT_LE(bs->response_p99_seconds, bs->response_p999_seconds + 1e-12);
    EXPECT_LE(bs->response_p999_seconds, bs->max_response_seconds + 1e-12);
    EXPECT_GE(bs->mean_queue_seconds, 0.0);
    EXPECT_LE(bs->mean_queue_seconds, bs->max_response_seconds + 1e-12);
  }
}

TEST(QueryStream, PushAfterCloseThrowsAndStreamIsSingleUse) {
  SeedStream stream;
  EXPECT_EQ(stream.push(1), 0u);
  EXPECT_EQ(stream.push(2), 1u);
  EXPECT_THROW(stream.push(3, /*tenant=*/1), std::invalid_argument);
  stream.close();
  EXPECT_TRUE(stream.closed());
  EXPECT_THROW(stream.push(3), std::logic_error);
  EXPECT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream.unclaimed(), 2u);
}

// ---------------------------------------------------------------------------
// ServingFrontEnd: admission, shedding, deadlines, fairness.

/// Forwards to a CPU backend but holds the first run() until release(), so
/// a one-worker pipeline sits inside a known query while a test queues
/// more behind it. Shared by every worker (thread_safe), never cloned.
class GateBackend final : public DiffusionBackend {
 public:
  BackendResult run(const graph::Subgraph& ball, double mass,
                    unsigned length) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (runs_++ == 0) {
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    return inner_.run(ball, mass, length);
  }
  [[nodiscard]] std::size_t working_bytes(std::size_t n,
                                          std::size_t e) const override {
    return inner_.working_bytes(n, e);
  }
  [[nodiscard]] std::string name() const override { return "gate"; }
  [[nodiscard]] std::unique_ptr<DiffusionBackend> clone() const override {
    return inner_.clone();
  }
  [[nodiscard]] bool thread_safe() const override { return true; }

  void wait_until_held() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  [[nodiscard]] std::size_t runs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runs_;
  }

 private:
  CpuBackend inner_{0.85};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t runs_ = 0;
  bool held_ = false;
  bool released_ = false;
};

/// A backend whose every run() throws: a dead pipeline the front end must
/// surface, not hang on.
class ThrowingBackend final : public DiffusionBackend {
 public:
  BackendResult run(const graph::Subgraph&, double, unsigned) override {
    throw std::runtime_error("ThrowingBackend: device lost");
  }
  [[nodiscard]] std::size_t working_bytes(std::size_t,
                                          std::size_t) const override {
    return 0;
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] std::unique_ptr<DiffusionBackend> clone() const override {
    return std::make_unique<ThrowingBackend>();
  }
  [[nodiscard]] bool thread_safe() const override { return true; }
};

void expect_conserved(const ServingStats& s) {
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full +
                             s.rejected_deadline + s.rejected_shutdown);
  EXPECT_EQ(s.admitted,
            s.completed + s.shed_deadline + s.in_flight + s.queued);
}

TEST(ServingFrontEnd, ServesBitIdenticalAndConservesCounts) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingFrontEnd fe(pipeline, ServingConfig{});
  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 24; ++s) seeds.push_back((s * 19 + 5) % 500);
  for (graph::NodeId s : seeds) {
    const Admission a = fe.submit(s);
    EXPECT_TRUE(a.admitted);
    EXPECT_EQ(a.reason, RejectReason::kNone);
    EXPECT_GT(a.ticket, 0u);
  }

  const std::vector<ServedQuery> served = fe.drain();
  ASSERT_EQ(served.size(), seeds.size());
  for (const ServedQuery& sq : served) {
    EXPECT_EQ(sq.status, ServeStatus::kOk);
    EXPECT_TRUE(sq.deadline_met);  // no deadline was set
    EXPECT_GE(sq.response_seconds, 0.0);
    EXPECT_LE(sq.queue_seconds, sq.response_seconds + 1e-12);
    expect_bit_identical(sq.result, engine.query(sq.seed), sq.seed);
  }

  const ServingStats s = fe.stats();
  EXPECT_EQ(s.submitted, seeds.size());
  EXPECT_EQ(s.admitted, seeds.size());
  EXPECT_EQ(s.completed, seeds.size());
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full +
                             s.rejected_deadline + s.rejected_shutdown);
  EXPECT_EQ(s.admitted,
            s.completed + s.shed_deadline + s.in_flight + s.queued);
  EXPECT_LE(s.response_p50_seconds, s.response_p99_seconds + 1e-12);
  EXPECT_LE(s.response_p99_seconds, s.response_p999_seconds + 1e-12);
  fe.shutdown();
}

TEST(ServingFrontEnd, OverloadShedsWithTypedRejectsNeverHangs) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingConfig scfg;
  scfg.queue_capacity = 4;
  ServingFrontEnd fe(pipeline, scfg);

  // Submission is instant, service is not: with 4 unclaimed seeds allowed
  // and 2 workers, a burst of 200 must hit kQueueFull — typed, counted,
  // and without ever blocking the submitter.
  std::size_t admitted = 0;
  std::size_t queue_full = 0;
  for (int i = 0; i < 200; ++i) {
    const Admission a = fe.submit(static_cast<graph::NodeId>(i % 500));
    if (a.admitted) {
      ++admitted;
    } else {
      EXPECT_EQ(a.reason, RejectReason::kQueueFull);
      ++queue_full;
    }
  }
  EXPECT_GT(queue_full, 0u) << "a 4-slot queue absorbed a 200-burst";
  EXPECT_GT(admitted, 0u);

  const std::vector<ServedQuery> served = fe.drain();
  EXPECT_EQ(served.size(), admitted);  // nothing lost, nothing invented
  const ServingStats s = fe.stats();
  EXPECT_EQ(s.submitted, 200u);
  EXPECT_EQ(s.admitted, admitted);
  EXPECT_EQ(s.rejected_queue_full, queue_full);
  EXPECT_EQ(s.admitted, s.completed + s.shed_deadline);

  fe.shutdown();
  // Past shutdown: still typed, still instant.
  const Admission late = fe.submit(1);
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.reason, RejectReason::kShuttingDown);
}

TEST(ServingFrontEnd, ImpossibleDeadlineIsRejectedNotExecuted) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingFrontEnd fe(pipeline, ServingConfig{});

  // 1 ms against the 5 ms service estimate held before any completion.
  const Admission a = fe.submit(7, 0, 0.001);
  EXPECT_FALSE(a.admitted);
  EXPECT_EQ(a.reason, RejectReason::kDeadlineImpossible);
  // Deadline 0 = none, which is also the default.
  EXPECT_TRUE(fe.submit(7, 0, 0.0).admitted);
  EXPECT_TRUE(fe.submit(7).admitted);
  EXPECT_THROW(fe.submit(7, /*tenant=*/5), std::invalid_argument);
  (void)fe.drain();
  const ServingStats s = fe.stats();
  EXPECT_EQ(s.rejected_deadline, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(ServingFrontEnd, BadSeedOrDeadlineThrowsAtSubmitAndServingGoesOn) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);
  ServingFrontEnd fe(pipeline, ServingConfig{});

  // Caller misuse throws at submit(); admitted, a bad seed would throw on
  // its worker and end the pipeline for every tenant.
  EXPECT_THROW(fe.submit(5'000'000), std::invalid_argument);
  EXPECT_THROW(fe.submit(static_cast<graph::NodeId>(g.num_nodes())),
               std::invalid_argument);
  EXPECT_THROW(fe.submit(7, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(fe.submit(7, 0, std::nan("")), std::invalid_argument);

  const Admission a = fe.submit(7);
  EXPECT_TRUE(a.admitted);
  const std::vector<ServedQuery> served = fe.drain();
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].status, ServeStatus::kOk);
  expect_bit_identical(served[0].result, engine.query(7), 7);
  const ServingStats s = fe.stats();
  EXPECT_EQ(s.submitted, 1u);  // misuse is not load: nothing was counted
  EXPECT_EQ(s.completed, 1u);
  expect_conserved(s);
  fe.shutdown();
}

TEST(ServingFrontEnd, ClaimsRoundRobinAcrossTenantsExactly) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  GateBackend gate;
  PipelineConfig pcfg;
  pcfg.threads = 1;
  QueryPipeline pipeline(engine, gate, pcfg);
  ServingConfig scfg;
  scfg.tenants = 2;
  ServingFrontEnd fe(pipeline, scfg);

  EXPECT_TRUE(fe.submit(3, 0).admitted);
  gate.wait_until_held();  // the one worker is inside that query
  for (graph::NodeId i = 0; i < 8; ++i) {
    EXPECT_TRUE(fe.submit(10 + i, 0).admitted);
  }
  for (graph::NodeId i = 0; i < 3; ++i) {
    EXPECT_TRUE(fe.submit(100 + i, 1).admitted);
  }
  gate.release();

  // One worker finishes each query before it claims the next, so the
  // completion order is the claim order. The held query was tenant 0's,
  // so claims resume at tenant 1 and alternate until tenant 1 runs dry.
  std::vector<std::size_t> order;
  for (const ServedQuery& sq : fe.drain()) order.push_back(sq.tenant);
  const std::vector<std::size_t> want = {0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(order, want);
  fe.shutdown();
}

TEST(ServingFrontEnd, ExpiredSeedIsShedAtClaimNeverExecuted) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  GateBackend gate;
  PipelineConfig pcfg;
  pcfg.threads = 1;
  QueryPipeline pipeline(engine, gate, pcfg);
  ServingFrontEnd fe(pipeline, ServingConfig{});

  const Admission held = fe.submit(3);
  EXPECT_TRUE(held.admitted);
  gate.wait_until_held();
  // 20 ms passes admission: nothing has completed, so the service estimate
  // is still its 5 ms initial value.
  const Admission late = fe.submit(7, 0, 0.020);
  EXPECT_TRUE(late.admitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate.release();

  const std::vector<ServedQuery> served = fe.drain();
  ASSERT_EQ(served.size(), 2u);
  const ServedQuery& ran = served[0].ticket == held.ticket ? served[0]
                                                           : served[1];
  const ServedQuery& shed = served[0].ticket == late.ticket ? served[0]
                                                            : served[1];
  EXPECT_EQ(ran.ticket, held.ticket);
  EXPECT_EQ(shed.ticket, late.ticket);
  EXPECT_EQ(ran.status, ServeStatus::kOk);
  EXPECT_EQ(shed.status, ServeStatus::kShedDeadline);
  EXPECT_TRUE(shed.result.top.empty());
  EXPECT_FALSE(shed.deadline_met);
  // Every backend run belongs to the held query: the shed never ran.
  EXPECT_EQ(gate.runs(), ran.result.stats.total_balls());

  const ServingStats s = fe.stats();
  EXPECT_EQ(s.shed_deadline, 1u);
  EXPECT_EQ(s.completed, 1u);
  expect_conserved(s);
  fe.shutdown();
  EXPECT_EQ(fe.pipeline_stats().queries, 1u);  // a shed is not a query
}

TEST(ServingFrontEnd, FairQueueingKeepsFloodedTenantFromStarvingOthers) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingConfig scfg;
  scfg.tenants = 2;
  scfg.queue_capacity = 512;
  ServingFrontEnd fe(pipeline, scfg);

  // Tenant 0 floods 60 queries, tenant 1 trickles 6 — all submitted before
  // the backlog drains, so without round-robin tenant 1 would wait behind
  // the entire flood.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fe.submit(static_cast<graph::NodeId>((i * 7) % 500), 0)
                    .admitted);
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fe.submit(static_cast<graph::NodeId>((i * 29 + 1) % 500), 1)
                    .admitted);
  }

  const std::vector<ServedQuery> served = fe.drain();
  ASSERT_EQ(served.size(), 66u);
  double max_wait_t1 = 0.0;
  double max_wait_t0 = 0.0;
  for (const ServedQuery& sq : served) {
    (sq.tenant == 1 ? max_wait_t1 : max_wait_t0) =
        std::max(sq.tenant == 1 ? max_wait_t1 : max_wait_t0,
                 sq.queue_seconds);
  }
  // Round-robin claims tenant 1's 6 queries within the first ~12 slots;
  // tenant 0's tail waits behind its own flood. Strictly less —
  // with a 10x queue-depth gap the margin is enormous.
  EXPECT_LT(max_wait_t1, max_wait_t0)
      << "the flooded tenant's tail must wait longer than the trickle's";
  const ServingStats s = fe.stats();
  ASSERT_EQ(s.tenant_completed.size(), 2u);
  EXPECT_EQ(s.tenant_completed[0], 60u);
  EXPECT_EQ(s.tenant_completed[1], 6u);
  fe.shutdown();
}

TEST(ServingFrontEnd, PipelineErrorSurfacesThroughDrainNotAHang) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  ThrowingBackend backend;
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingFrontEnd fe(pipeline, ServingConfig{});
  ASSERT_TRUE(fe.submit(5).admitted);  // its worker's backend throws
  EXPECT_ANY_THROW(fe.drain());
  // Post-mortem: intake rejects typed, shutdown is clean (the error was
  // already delivered once, so it is not thrown again).
  EXPECT_EQ(fe.submit(1).reason, RejectReason::kShuttingDown);
  EXPECT_NO_THROW(fe.shutdown());
}

TEST(ServingFrontEnd, ConfigValidationRejectsNonsense) {
  ServingConfig cfg;
  cfg.tenants = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServingConfig{};
  cfg.queue_capacity = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(ServingConfig{}.validate());
}

// ---------------------------------------------------------------------------
// Stress: many producers hammering the stream path under the sanitizers.

TEST(ServingFrontEnd, ConcurrentProducerHammerConservesEverything) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingConfig scfg;
  scfg.tenants = 3;
  scfg.queue_capacity = 64;
  ServingFrontEnd fe(pipeline, scfg);

  const std::size_t per_producer = test::stress_iters(120);
  constexpr std::size_t kProducers = 3;
  std::atomic<std::size_t> admitted{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        const auto seed = static_cast<graph::NodeId>((i * 13 + t * 101) % 500);
        // A third of the traffic carries a deadline loose enough to pass
        // admission but tight enough that overload sheds some of it.
        const double deadline = (i % 3 == 0) ? 0.25 : 0.0;
        const Admission a = fe.submit(seed, t % scfg.tenants, deadline);
        if (a.admitted) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_NE(a.reason, RejectReason::kNone);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& p : producers) p.join();

  const std::vector<ServedQuery> served = fe.drain();
  EXPECT_EQ(served.size(), admitted.load());
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (const ServedQuery& sq : served) {
    if (sq.status == ServeStatus::kOk) {
      ++ok;
      EXPECT_FALSE(sq.result.top.empty());
    } else {
      ++shed;
      EXPECT_GT(sq.deadline_seconds, 0.0);  // only deadlined work sheds
    }
  }
  const ServingStats s = fe.stats();
  EXPECT_EQ(s.submitted, kProducers * per_producer);
  EXPECT_EQ(s.admitted, admitted.load());
  EXPECT_EQ(s.rejected_queue_full + s.rejected_deadline + s.rejected_shutdown,
            rejected.load());
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.shed_deadline, shed);
  EXPECT_EQ(s.admitted, s.completed + s.shed_deadline);
  fe.shutdown();

  // The stream-wide pipeline accounting is live after shutdown.
  EXPECT_EQ(fe.pipeline_stats().queries, ok);
}

}  // namespace
}  // namespace meloppr::core

int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
