// SLO-aware serving front end over the continuous-ingest scheduler.
//
// QueryPipeline::query_stream turned the stealing batch into something a
// server can feed while it runs; this layer adds the production-traffic
// policies the paper's real-time deployment story (Sec. I) needs but a
// closed batch cannot express. submit() pushes straight into the
// pipeline's SeedStream, whose per-tenant FIFOs are the admission queue,
// so a query crosses one hand-off: from the submitting thread to the
// worker that claims it.
//
//   * Bounded admission with load shedding — submit() never blocks and
//     never hangs: past queue_capacity unclaimed seeds it returns a TYPED
//     reject (RejectReason::kQueueFull) immediately, so overload degrades
//     into explicit, counted sheds instead of unbounded queueing collapse.
//   * Deadline shedding at claim — a seed whose deadline has passed by the
//     time a worker claims it is handed back unexecuted
//     (ServeStatus::kShedDeadline) rather than run into a guaranteed miss.
//   * Per-tenant fair queueing — workers claim round-robin across the
//     tenants' FIFOs, one seed per tenant per turn, so a flooding tenant
//     delays its own tail, not everyone's.
//   * Arrival-stamped accounting — every response time reported here is
//     submit()→completion on the stream's clock (scheduler wait +
//     service), the quantity an SLO bounds.
//
// Scores are untouched by all of it: every admitted seed runs through the
// stealing scheduler's serial-order reduction and stays bit-identical to
// Engine::query; the only queries without scores are the typed sheds.
//
// Threads: one pipeline driver, which blocks inside query_stream for the
// front end's lifetime. submit() is safe from any number of producer
// threads; completions and sheds arrive on pipeline workers and are folded
// under one lock. Lock order: the front end's mu_, then the stream's lock,
// then the scheduler's idle lock; the sink takes mu_ with no stream lock
// held. If the pipeline dies (a worker threw), the error is captured, all
// waiters are released — never a hang — and drain()/shutdown() rethrow it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace meloppr::core {

struct ServingConfig {
  /// Tenant FIFOs (round-robin fairness domain). Submissions name a
  /// tenant in [0, tenants).
  std::size_t tenants = 1;
  /// Bound on unclaimed seeds across all tenants: submissions beyond it
  /// are shed with RejectReason::kQueueFull. The queue is the ONLY
  /// unbounded-growth risk in the stack, so this is the overload valve.
  std::size_t queue_capacity = 256;

  /// Throws std::invalid_argument on nonsense; returns *this for chaining.
  ServingConfig& validate();
};

/// Why a submission was not admitted. Admission NEVER blocks: every reject
/// is immediate and typed so callers can tell overload from misuse.
enum class RejectReason : std::uint8_t {
  kNone = 0,
  /// queue_capacity reached — the overload shed.
  kQueueFull,
  /// The requested deadline is shorter than one service time: it cannot be
  /// met even by an idle stack, so admitting it would manufacture a miss.
  kDeadlineImpossible,
  /// shutdown() has begun; no new work is accepted.
  kShuttingDown,
};

[[nodiscard]] inline const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kDeadlineImpossible:
      return "deadline_impossible";
    case RejectReason::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

/// submit()'s immediate answer.
struct Admission {
  bool admitted = false;
  RejectReason reason = RejectReason::kNone;
  /// Identifies the query in its ServedQuery when admitted.
  std::uint64_t ticket = 0;
};

enum class ServeStatus : std::uint8_t {
  kOk = 0,
  /// Deadline expired before a worker claimed the query; it was never
  /// executed and carries no result.
  kShedDeadline,
};

/// One finished (served or shed) query, delivered by drain().
struct ServedQuery {
  std::uint64_t ticket = 0;
  std::size_t tenant = 0;
  graph::NodeId seed = graph::kInvalidNode;
  ServeStatus status = ServeStatus::kOk;
  /// Scores + engine stats; meaningful only when status == kOk. Scores are
  /// bit-identical to Engine::query for the same seed.
  QueryResult result;
  /// submit() time on the stream's clock.
  double arrival_seconds = 0.0;
  /// submit()→completion (or →shed): the SLO-facing response time.
  double response_seconds = 0.0;
  /// submit()→claim wait; equals QueryStats::queue_seconds when served.
  double queue_seconds = 0.0;
  /// Absolute deadline on the stream's clock; 0 = none.
  double deadline_seconds = 0.0;
  /// False when a deadline existed and completion (or shed) missed it.
  bool deadline_met = true;
};

/// Counter snapshot; conservation holds at every instant:
///   submitted == admitted + rejects, and
///   admitted == completed + shed_deadline + in_flight + queued.
struct ServingStats {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_deadline = 0;
  std::size_t rejected_shutdown = 0;
  std::size_t completed = 0;      ///< served with scores
  std::size_t shed_deadline = 0;  ///< typed sheds at claim
  std::size_t deadline_misses = 0;  ///< completed but late (deadline_met false)
  std::size_t queued = 0;         ///< unclaimed in the stream now
  std::size_t in_flight = 0;      ///< claimed, not yet completed or shed
  /// No writer, always 0: kept only because bench_e2e reads it.
  std::size_t batches_formed = 0;
  /// Edge updates applied through submit_update (0 without a dynamic
  /// graph).
  std::size_t updates_applied = 0;
  /// Dynamic-graph version at the snapshot (0 without a dynamic graph).
  /// Every query admitted after this snapshot is served state at least
  /// this fresh.
  std::uint64_t graph_version = 0;
  /// Current EWMA of observed service time: the kDeadlineImpossible bar.
  double service_estimate_seconds = 0.0;
  /// submit()→completion percentiles over every completed query (sheds
  /// excluded — they carry no service). Zero until the first completion.
  double response_p50_seconds = 0.0;
  double response_p99_seconds = 0.0;
  double response_p999_seconds = 0.0;
  double max_response_seconds = 0.0;
  double mean_queue_seconds = 0.0;
  /// Per-tenant admitted/completed/shed (index = tenant id).
  std::vector<std::size_t> tenant_admitted;
  std::vector<std::size_t> tenant_completed;
  std::vector<std::size_t> tenant_shed;
};

class ServingFrontEnd {
 public:
  /// Starts the pipeline driver. `pipeline` must outlive this object and
  /// must not be used for other queries while the front end runs (its
  /// workers are the serving capacity).
  ServingFrontEnd(QueryPipeline& pipeline, ServingConfig config = {});
  ServingFrontEnd(const ServingFrontEnd&) = delete;
  ServingFrontEnd& operator=(const ServingFrontEnd&) = delete;
  /// Implies shutdown() (pending admitted queries are finished first), but
  /// swallows a pipeline error a prior drain()/shutdown() already threw.
  ~ServingFrontEnd();

  /// Non-blocking admission. `deadline_seconds` is relative to now, 0 =
  /// none. Throws std::invalid_argument for a tenant out of range, a seed
  /// the graph does not hold, or a negative or NaN deadline — that is
  /// caller misuse, not load.
  Admission submit(graph::NodeId seed, std::size_t tenant = 0,
                   double deadline_seconds = 0.0);

  /// Routes submit_update() through `dyn` — the graph the pipeline's
  /// engine/cache stack must also be bound to. Call before traffic starts;
  /// `dyn` must outlive the front end.
  void set_dynamic_graph(graph::DynamicGraph* dyn) { dynamic_ = dyn; }

  /// Applies one edge update to the bound dynamic graph and returns the
  /// new graph version. Safe from any producer thread, interleaved freely
  /// with submit(): queries admitted before the update keep their older
  /// admission stamp (and may be served either state — monotone
  /// freshness), queries admitted after are served state at least this
  /// fresh, and the bound cache invalidates exactly the balls the update
  /// touches before the version publishes. Throws std::invalid_argument
  /// when no dynamic graph is bound or the update itself is invalid
  /// (self-loop, out of range, double insert/delete) — caller misuse, not
  /// load.
  std::uint64_t submit_update(const graph::EdgeUpdate& update);

  /// Blocks until every admitted query has completed or been shed, then
  /// returns everything finished since the last drain (completion order).
  /// Rethrows the pipeline's error if it died — never hangs either way.
  std::vector<ServedQuery> drain();

  /// Stops intake (further submits reject kShuttingDown), closes the
  /// stream, finishes every admitted query, and joins the driver.
  /// Idempotent; rethrows a captured pipeline error on first call.
  void shutdown();

  [[nodiscard]] ServingStats stats() const;
  /// Pipeline-level accounting for the whole serve (valid after
  /// shutdown(): the stream-wide BatchStats, response percentiles
  /// submit()→finalize on the stream clock; sheds are not counted).
  [[nodiscard]] const QueryPipeline::BatchStats& pipeline_stats() const {
    return pipeline_stats_;
  }
  /// Seconds since construction on the stream's clock — the clock all
  /// stamps above use.
  [[nodiscard]] double now() const { return stream_.now(); }
  [[nodiscard]] const ServingConfig& config() const { return config_; }

 private:
  void pipeline_loop();
  void on_finished(const SeedStream::Slot& slot, QueryResult* result);

  QueryPipeline* pipeline_;
  ServingConfig config_;
  graph::DynamicGraph* dynamic_ = nullptr;
  std::atomic<std::size_t> updates_applied_{0};

  mutable util::Mutex mu_;
  std::condition_variable cv_;  // drain waiters
  /// completed+shed since last drain
  std::vector<ServedQuery> finished_ MELOPPR_GUARDED_BY(mu_);
  bool shutting_down_ MELOPPR_GUARDED_BY(mu_) = false;
  bool pipeline_dead_ MELOPPR_GUARDED_BY(mu_) = false;
  std::exception_ptr pipeline_error_ MELOPPR_GUARDED_BY(mu_);
  bool pipeline_error_thrown_ MELOPPR_GUARDED_BY(mu_) = false;
  /// EWMA of observed service time
  double service_estimate_ MELOPPR_GUARDED_BY(mu_);

  // Counters.
  ServingStats counters_ MELOPPR_GUARDED_BY(mu_);
  Samples response_samples_ MELOPPR_GUARDED_BY(mu_);
  double queue_sum_ MELOPPR_GUARDED_BY(mu_) = 0.0;

  /// The admission queue; only submit() pushes, under mu_.
  SeedStream stream_;
  QueryPipeline::BatchStats pipeline_stats_;
  std::thread driver_;
};

}  // namespace meloppr::core
