#include "core/serving.hpp"

#include <stdexcept>
#include <utility>

namespace meloppr::core {

namespace {

/// Per-query service estimate (seconds) before any completion has been
/// observed; the kDeadlineImpossible check compares deadlines against it.
constexpr double kInitialServiceEstimateSeconds = 0.005;
/// EWMA weight of each observed service time folded into the estimate.
constexpr double kServiceEstimateEwma = 0.2;

}  // namespace

ServingConfig& ServingConfig::validate() {
  if (tenants == 0) {
    throw std::invalid_argument("ServingConfig: tenants must be >= 1");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("ServingConfig: queue_capacity must be >= 1");
  }
  return *this;
}

ServingFrontEnd::ServingFrontEnd(QueryPipeline& pipeline, ServingConfig config)
    : pipeline_(&pipeline),
      config_(config.validate()),
      service_estimate_(kInitialServiceEstimateSeconds),
      stream_(config_.tenants) {
  counters_.tenant_admitted.assign(config_.tenants, 0);
  counters_.tenant_completed.assign(config_.tenants, 0);
  counters_.tenant_shed.assign(config_.tenants, 0);
  driver_ = std::thread([this] { pipeline_loop(); });
}

ServingFrontEnd::~ServingFrontEnd() {
  try {
    shutdown();
  } catch (...) {
    // A pipeline error surfaces through drain()/shutdown(); the destructor
    // must not throw while delivering the same one again.
  }
}

Admission ServingFrontEnd::submit(graph::NodeId seed, std::size_t tenant,
                                  double deadline_seconds) {
  if (tenant >= config_.tenants) {
    throw std::invalid_argument("ServingFrontEnd::submit: tenant out of range");
  }
  // The node count is fixed for static and dynamic graphs alike (updates
  // change edges only), so this check needs no lock. An admitted bad seed
  // would throw on its worker and end the pipeline for every tenant.
  if (seed >= pipeline_->engine().graph().num_nodes()) {
    throw std::invalid_argument("ServingFrontEnd::submit: seed out of range");
  }
  if (!(deadline_seconds >= 0.0)) {
    throw std::invalid_argument(
        "ServingFrontEnd::submit: deadline must be >= 0 (0 = none)");
  }
  util::MutexLock lock(mu_);
  ++counters_.submitted;
  if (shutting_down_ || pipeline_dead_) {
    ++counters_.rejected_shutdown;
    return {false, RejectReason::kShuttingDown, 0};
  }
  if (deadline_seconds > 0.0 && deadline_seconds < service_estimate_) {
    // Shorter than one bare service time: a guaranteed miss. Rejecting it
    // now is cheaper for everyone than executing it into lateness.
    ++counters_.rejected_deadline;
    return {false, RejectReason::kDeadlineImpossible, 0};
  }
  // Exact: only submit() pushes, and it holds mu_ from here to the push.
  if (stream_.unclaimed() >= config_.queue_capacity) {
    ++counters_.rejected_queue_full;
    return {false, RejectReason::kQueueFull, 0};
  }
  const std::size_t index = stream_.push(seed, tenant, deadline_seconds);
  ++counters_.admitted;
  ++counters_.tenant_admitted[tenant];
  // Stream indices are dense from 0 and only submit() pushes, so tickets
  // are dense from 1 (0 is never issued).
  return {true, RejectReason::kNone, index + 1};
}

void ServingFrontEnd::pipeline_loop() {
  try {
    pipeline_->query_stream(
        stream_,
        [this](const SeedStream::Slot& slot, QueryResult* result) {
          on_finished(slot, result);
        },
        &pipeline_stats_);
  } catch (...) {
    util::MutexLock lock(mu_);
    pipeline_dead_ = true;
    pipeline_error_ = std::current_exception();
  }
  cv_.notify_all();  // release drain waiters — no hangs
}

void ServingFrontEnd::on_finished(const SeedStream::Slot& slot,
                                  QueryResult* result) {
  util::MutexLock lock(mu_);
  const double done = stream_.now();

  ServedQuery sq;
  sq.ticket = slot.index + 1;
  sq.tenant = slot.tenant;
  sq.seed = slot.seed;
  sq.arrival_seconds = slot.arrival_seconds;
  // submit()→completion on the stream's clock: scheduler wait + service —
  // the arrival-stamped response an SLO bounds.
  sq.response_seconds = done - slot.arrival_seconds;
  sq.deadline_seconds = slot.deadline_seconds;
  if (result == nullptr) {
    // Shed at claim: late before it ran. Typed and counted — no result,
    // but a full ServedQuery record.
    sq.status = ServeStatus::kShedDeadline;
    sq.queue_seconds = sq.response_seconds;
    sq.deadline_met = false;
    ++counters_.shed_deadline;
    ++counters_.tenant_shed[slot.tenant];
  } else {
    sq.status = ServeStatus::kOk;
    sq.queue_seconds = result->stats.queue_seconds;
    sq.deadline_met =
        slot.deadline_seconds == 0.0 || done <= slot.deadline_seconds;
    if (!sq.deadline_met) ++counters_.deadline_misses;
    const double service = result->stats.service_seconds();
    if (service > 0.0) {
      service_estimate_ = (1.0 - kServiceEstimateEwma) * service_estimate_ +
                          kServiceEstimateEwma * service;
    }
    sq.result = std::move(*result);
    ++counters_.completed;
    ++counters_.tenant_completed[slot.tenant];
    response_samples_.add(sq.response_seconds);
    queue_sum_ += sq.queue_seconds;
  }
  finished_.push_back(std::move(sq));
  cv_.notify_all();  // drain waiters
}

std::vector<ServedQuery> ServingFrontEnd::drain() {
  util::MutexLock lock(mu_);
  while (!(pipeline_dead_ ||
           counters_.completed + counters_.shed_deadline ==
               counters_.admitted)) {
    cv_.wait(lock.native());
  }
  if (pipeline_dead_ && pipeline_error_ != nullptr &&
      !pipeline_error_thrown_) {
    pipeline_error_thrown_ = true;
    std::rethrow_exception(pipeline_error_);
  }
  std::vector<ServedQuery> out = std::move(finished_);
  finished_.clear();
  return out;
}

void ServingFrontEnd::shutdown() {
  {
    util::MutexLock lock(mu_);
    shutting_down_ = true;
    // End of intake: query_stream finishes every pushed seed and returns.
    stream_.close();
  }
  if (driver_.joinable()) driver_.join();
  util::MutexLock lock(mu_);
  if (pipeline_error_ != nullptr && !pipeline_error_thrown_) {
    pipeline_error_thrown_ = true;
    std::rethrow_exception(pipeline_error_);
  }
}

std::uint64_t ServingFrontEnd::submit_update(const graph::EdgeUpdate& update) {
  if (dynamic_ == nullptr) {
    throw std::invalid_argument(
        "ServingFrontEnd::submit_update: no dynamic graph bound");
  }
  // DynamicGraph::apply carries its own writer lock and runs the cache
  // invalidation listener before publishing the new version, so nothing
  // here needs mu_ — update producers never contend with admission.
  const std::uint64_t version = dynamic_->apply(update);
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

ServingStats ServingFrontEnd::stats() const {
  util::MutexLock lock(mu_);
  ServingStats s = counters_;
  // No push can land while mu_ is held, and claims only move seeds from
  // queued to in flight, so the identities hold in every snapshot.
  s.queued = stream_.unclaimed();
  s.in_flight = s.admitted - s.completed - s.shed_deadline - s.queued;
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  s.graph_version = dynamic_ == nullptr ? 0 : dynamic_->version();
  s.service_estimate_seconds = service_estimate_;
  if (!response_samples_.empty()) {
    s.response_p50_seconds = response_samples_.percentile(50.0);
    s.response_p99_seconds = response_samples_.percentile(99.0);
    s.response_p999_seconds = response_samples_.percentile(99.9);
    s.max_response_seconds = response_samples_.max();
    s.mean_queue_seconds =
        queue_sum_ / static_cast<double>(counters_.completed);
  }
  return s;
}

}  // namespace meloppr::core
