// Concurrent query execution over the stage scheduler.
//
// The paper's linear decomposition (Eq. 6/8) makes every stage task
// independent — its stated future work (Sec. VI-C) is running them in
// parallel. The engine's scheduler materializes exactly that independence
// as StageTasks; QueryPipeline adds the thread pool that exploits it with
// ONE scheduler, a work-stealing stream:
//
//   * Every query's stage tasks go into per-worker deques. A worker pops
//     its own deque LIFO (depth-first, like the serial stack), claims a
//     fresh seed from the stream when its deque is empty, and otherwise
//     steals from the FIFO end of a busy worker — so one query with a huge
//     stage-2 fan-out cannot idle the pool.
//   * Outcomes stay attached to the query's task tree, and the worker that
//     finishes a query's last task replays the tree in the serial
//     depth-first order into a pooled per-worker aggregator arena. Scores
//     are therefore bit-identical to Engine::query at any thread count, in
//     exact and bounded (top-c·k) aggregation alike.
//
// All three entry points run it:
//
//   query(seed)          — a one-seed query_batch.
//   query_batch(seeds)   — a pre-filled, closed SeedStream.
//   query_stream(stream) — continuous ingest: the stream may still be
//                          growing. Fresh seeds are claimed the moment they
//                          arrive (idle workers park event-driven on stream
//                          arrival), results are delivered through a sink
//                          as each query finalizes, and per-query times are
//                          arrival-stamped: total_seconds is
//                          arrival→finalize response time, queue_seconds
//                          the arrival→claim wait. The stream is also the
//                          serving front end's admission queue
//                          (core/serving.hpp): its per-tenant FIFOs are
//                          claimed round-robin, and a seed whose deadline
//                          has passed at claim is shed unexecuted.
//
// Balls are extracted on the demand path: the worker that runs a task
// fetches its ball through the engine's ShardedBallCache (or extracts it
// directly without one). There is no host-side lookahead layer;
// docs/ARCHITECTURE.md ("Why there is no prefetcher") says why the Fig. 4
// PS/PL overlap was removed and what would bring it back.
//
// Backend policy: a thread_safe() backend (CpuBackend, FpgaFarm) is shared
// by all workers — the farm then receives genuinely concurrent dispatches,
// its devices filling with independent balls. A non-thread-safe
// backend (FpgaBackend with its cycle counters) is clone()d once per
// worker.
//
// Memory accounting stays honest under concurrency: every worker meters
// its own transient footprints (the ball it holds + device working set),
// and a query's peak sums every worker's published peak on top of its own
// aggregator and outcome tree — an upper bound on the true simultaneous
// peak, never an under-report. The peak story becomes "T balls at a time
// + aggregator" instead of one; a shared ball cache's resident bytes are
// not part of any query's peak (the cache reports them itself).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace meloppr::core {

/// The stealing scheduler's admission queue: a growable, lock-protected
/// stream of seeds with one FIFO per tenant. Seeds may be pushed from any
/// thread WHILE a QueryPipeline::query_stream call is draining the stream.
/// A worker with nothing of its own to run claims the next seed
/// round-robin across the tenants' FIFOs — one seed per tenant per turn,
/// so a flooding tenant delays itself, not the others — and idle workers
/// park event-driven until a push, a task publication, or close() wakes
/// them. A claimed seed whose deadline has already passed is handed to the
/// result sink unexecuted (a shed) instead of being run into a certain
/// miss.
///
/// Each push stamps the seed's arrival time and absolute deadline on the
/// stream's own monotonic clock; the arrival stamp is what makes
/// QueryStats::total_seconds an arrival→finalize response time (and
/// queue_seconds the arrival→claim wait). A claim removes the seed from
/// the stream, so a long-lived stream holds only its unclaimed seeds.
///
/// A stream is single-use: fill/close it, hand it to exactly one
/// query_stream call (pushes may continue while that call runs), and
/// discard it afterwards. close() is the end-of-stream marker — a draining
/// scheduler finishes every pushed seed and returns.
class SeedStream {
 public:
  /// One pushed seed, as a claim hands it to the scheduler and the
  /// scheduler hands it to the result sink.
  struct Slot {
    std::size_t index = 0;  ///< push order across all tenants, from 0
    graph::NodeId seed = graph::kInvalidNode;
    std::size_t tenant = 0;
    double arrival_seconds = 0.0;   ///< push time on the stream clock
    double deadline_seconds = 0.0;  ///< absolute, stream clock; 0 = none
  };

  /// One FIFO per tenant; throws std::invalid_argument for 0 tenants.
  explicit SeedStream(std::size_t tenants = 1);
  SeedStream(const SeedStream&) = delete;
  SeedStream& operator=(const SeedStream&) = delete;

  /// Appends one seed to `tenant`'s FIFO; thread-safe against concurrent
  /// pushes and a running query_stream. `deadline_seconds` is relative to
  /// the push, 0 = none. Returns the seed's stream index (its slot carries
  /// it to the sink). Throws std::logic_error after close(), and
  /// std::invalid_argument for a tenant out of range or a negative or NaN
  /// deadline.
  std::size_t push(graph::NodeId seed, std::size_t tenant = 0,
                   double deadline_seconds = 0.0);

  /// Bulk push to tenant 0, no deadlines; returns the index of the first
  /// appended seed.
  std::size_t push_all(std::span<const graph::NodeId> seeds);

  /// Marks the end of the stream: no further pushes are accepted, and a
  /// draining query_stream returns once every pushed seed has finished.
  /// Idempotent.
  void close();

  [[nodiscard]] bool closed() const;
  /// Seeds pushed so far.
  [[nodiscard]] std::size_t size() const;
  /// Pushed seeds no worker has claimed yet.
  [[nodiscard]] std::size_t unclaimed() const;
  /// Seconds since construction — the arrival clock every stamp uses.
  [[nodiscard]] double now() const { return clock_.elapsed_seconds(); }

 private:
  friend class QueryPipeline;

  /// Pops the next unclaimed seed, round-robin across tenants, into `out`;
  /// false when every FIFO is empty.
  bool claim(Slot& out) MELOPPR_REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::vector<std::deque<Slot>> fifos_ MELOPPR_GUARDED_BY(mu_);
  std::size_t pushed_ MELOPPR_GUARDED_BY(mu_) = 0;
  /// Σ FIFO sizes.
  std::size_t unclaimed_ MELOPPR_GUARDED_BY(mu_) = 0;
  /// Tenant the next claim starts from.
  std::size_t next_tenant_ MELOPPR_GUARDED_BY(mu_) = 0;
  bool closed_ MELOPPR_GUARDED_BY(mu_) = false;
  /// Scheduler wake hook, registered by the draining query_stream call and
  /// cleared before it returns; invoked (under mu_) on push and close so
  /// parked workers never poll for arrivals.
  std::function<void()> on_event_ MELOPPR_GUARDED_BY(mu_);
  Timer clock_;
};

class QueryPipeline {
 public:
  /// Batch-level accounting for one query_batch call: what the serving
  /// layer (cache + stealing) did for the whole stream. Cache deltas are
  /// measured around the call, so concurrent batches sharing one engine
  /// see each other's traffic folded in.
  struct BatchStats {
    std::size_t queries = 0;
    double wall_seconds = 0.0;
    std::size_t executed_tasks = 0;  ///< stage tasks (balls) run
    std::size_t stolen_tasks = 0;    ///< tasks executed off their home worker
    std::size_t cache_hits = 0;      ///< demand hits (incl. dedup joins)
    std::size_t cache_misses = 0;
    std::size_t dedup_hits = 0;      ///< joins of an in-flight extraction
    /// No writer, always 0: kept only because bench_e2e reads it.
    std::size_t prefetch_issued = 0;
    /// No writer, always 0: kept only because bench_e2e reads it.
    std::size_t root_reextractions = 0;
    /// Balls the cache served but declined to retain because a resident
    /// victim was estimated hotter (CacheAdmission::kTinyLFU only).
    std::size_t cache_admission_rejects = 0;
    /// No writer, always 0: kept only because bench_e2e reads it.
    double prefetch_hidden_seconds = 0.0;
    double demand_bfs_seconds = 0.0;  ///< BFS time paid by the workers
    /// Largest per-query peak_bytes in the batch (upper bound: every
    /// query's peak folds in all workers' transient ball/device
    /// footprints, since tasks of any query may run on any worker).
    std::size_t peak_bytes = 0;
    /// Σ bounded-table min-evictions across the batch (0 in exact mode).
    std::size_t aggregator_evictions = 0;
    /// Largest per-query score-table occupancy — in bounded mode never
    /// exceeds c·k, the paper's BRAM envelope per in-flight query.
    std::size_t peak_aggregator_entries = 0;

    /// Fault-tolerance accounting (all zero on a healthy stack). Per-query
    /// sums come from QueryStats; breaker/probe/device figures are the
    /// shared backend's dispatch_health() — trips/probes as deltas around
    /// the batch, device counts as the absolute state at batch end (zeros
    /// when the backend is per-worker-cloned and has no shared health).
    std::size_t dispatch_retries = 0;  ///< extra attempts the retry layer spent
    std::size_t deadline_misses = 0;   ///< attempts discarded for lateness
    std::size_t failovers = 0;         ///< diffusions served by the fallback
    std::size_t failed_balls = 0;      ///< balls missing from scores entirely
    std::size_t degraded_queries = 0;  ///< outcome() == kDegraded
    std::size_t failed_queries = 0;    ///< outcome() == kFailed
    std::size_t breaker_trips = 0;     ///< closed→open transitions this batch
    std::size_t breaker_probes = 0;    ///< half-open probes this batch
    std::size_t devices = 0;           ///< farm size at batch end
    std::size_t healthy_devices = 0;   ///< breaker-closed at batch end
    std::size_t dead_devices = 0;      ///< sticky-dead at batch end

    /// Arrival-stamped response-time distribution (seconds) over the
    /// batch: percentiles of QueryStats::total_seconds, which is
    /// arrival→finalize — the SLO-facing quantity, queueing delay
    /// included. All zero for an empty batch.
    double response_p50_seconds = 0.0;
    double response_p99_seconds = 0.0;
    double response_p999_seconds = 0.0;
    double max_response_seconds = 0.0;
    /// Mean arrival→claim wait (QueryStats::queue_seconds) — how much of
    /// the response time was scheduler queueing rather than service.
    double mean_queue_seconds = 0.0;

    [[nodiscard]] double cache_hit_rate() const {
      const std::size_t total = cache_hits + cache_misses;
      return total == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(total);
    }
  };

  /// Spawns the worker pool and one pooled aggregator arena per worker.
  /// `engine` and `backend` must outlive the pipeline.
  QueryPipeline(const Engine& engine, DiffusionBackend& backend,
                PipelineConfig config = {});
  QueryPipeline(const QueryPipeline&) = delete;
  QueryPipeline& operator=(const QueryPipeline&) = delete;
  ~QueryPipeline();

  /// One query — query_batch of a single seed, so its stage tasks spread
  /// across the pool by stealing. Scores are bit-identical to
  /// Engine::query at any thread count.
  QueryResult query(graph::NodeId seed);

  /// Many queries, concurrently. Scores are bit-identical to Engine::query
  /// at any thread count (tasks execute out of order, but each query is
  /// reduced in the serial depth-first order). Results are positionally
  /// aligned with `seeds` (empty for an empty span); `batch_stats`
  /// (optional) receives the serving-layer accounting.
  std::vector<QueryResult> query_batch(std::span<const graph::NodeId> seeds,
                                       BatchStats* batch_stats = nullptr);

  /// Delivers one claimed seed: its slot (stream index, seed, tenant,
  /// arrival, deadline) and its result, or nullptr when the seed's deadline
  /// had passed at claim and it was shed unexecuted. Invoked on a worker
  /// thread with no stream lock held; implementations must be thread-safe
  /// against each other and must not re-enter the pipeline.
  using ResultSink = std::function<void(const SeedStream::Slot& slot,
                                        QueryResult* result)>;

  /// Continuous-ingest batch: drains `stream`, claiming seeds as they
  /// arrive (pushes are allowed while this call runs) and blocking until
  /// the stream is closed and every pushed seed finished or was shed.
  /// Scores for every seed are bit-identical to Engine::query regardless
  /// of when it was injected; QueryStats::total_seconds is arrival→finalize
  /// on the stream's clock and queue_seconds the arrival→claim wait.
  /// `batch_stats` counts executed queries only, never sheds. The first
  /// task exception is rethrown after the workers stop; seeds not yet
  /// finished at that point deliver nothing.
  void query_stream(SeedStream& stream, const ResultSink& on_result,
                    BatchStats* batch_stats = nullptr);

  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] const Engine& engine() const { return *engine_; }

  /// The pooled per-worker aggregator arenas (exact or bounded c·k tables,
  /// following the engine's aggregation mode).
  [[nodiscard]] const AggregatorPool& aggregator_pool() const {
    return agg_pool_;
  }

 private:
  /// Enqueues `count` jobs fn(job_index, worker_id) and blocks until all
  /// complete; the first job exception (if any) is rethrown here. Safe to
  /// call from several coordinator threads at once — each call waits on its
  /// own completion latch.
  void run_jobs(std::size_t count,
                const std::function<void(std::size_t, std::size_t)>& fn);

  void worker_loop(std::size_t worker_id);

  /// The work-stealing scheduler over a (possibly still growing) seed
  /// stream — every entry point runs through here. Results are
  /// delivered through `on_result` as each query finalizes; serving-layer
  /// deltas are taken by the caller around this call.
  void run_stream_batch(SeedStream& stream, const ResultSink& on_result);

  [[nodiscard]] DiffusionBackend& backend_for(std::size_t worker_id) {
    return shared_backend_ != nullptr ? *shared_backend_
                                      : *clones_[worker_id];
  }

  const Engine* engine_;
  std::size_t threads_;

  /// Exactly one of these is used: the shared thread-safe backend, or one
  /// clone per worker.
  DiffusionBackend* shared_backend_ = nullptr;
  std::vector<std::unique_ptr<DiffusionBackend>> clones_;

  AggregatorPool agg_pool_;

  std::vector<std::thread> workers_;
  util::Mutex mu_;
  std::deque<std::function<void(std::size_t)>> queue_
      MELOPPR_GUARDED_BY(mu_);
  std::condition_variable work_available_;
  bool stop_ MELOPPR_GUARDED_BY(mu_) = false;
};

}  // namespace meloppr::core
