// Outside-in span recorder for bench_e2e.
//
// Every span here is taken around a call into a public function of the
// library; nothing inside src/ is instrumented. Two decorators feed it:
//
//   TimedBackend   — wraps a DiffusionBackend and times each run() (one span
//                    per ball diffusion, wall clock).
//   timed_extractor — a ShardedBallCache extractor that times each BFS on
//                    the miss path. Static graphs only: bind_dynamic_graph
//                    replaces the extractor, so a dynamic stack has no
//                    extraction spans.
//
// Recording is off unless enable(true): the decorators stay installed for
// the whole run (installing an extractor must not race cache fetches), and
// a disabled recorder costs one relaxed load per call. Spans land in
// per-thread buffers, each behind its own uncontended mutex so the reader
// never races a late writer. The per-query spans (due → submit → dispatch
// → claim → finalize → done) are derived after the phase from the serving
// front end's own timestamps and written by the bench itself.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"

namespace meloppr::bench_e2e {

/// The library calls the decorators time.
enum class SpanKind { kBackendRun, kExtractBall };

inline const char* to_string(SpanKind kind) {
  return kind == SpanKind::kBackendRun ? "backend.run" : "graph.extract_ball";
}

/// One closed interval on the recorder's clock (microseconds since the
/// recorder was constructed).
struct Span {
  SpanKind kind = SpanKind::kBackendRun;
  double begin_us = 0.0;
  double end_us = 0.0;
  std::uint64_t nodes = 0;     ///< ball size the call worked on
  std::uint64_t edge_ops = 0;  ///< backend runs only

  [[nodiscard]] double duration_us() const { return end_us - begin_us; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  /// Appends to the calling thread's buffer.
  void record(const Span& span) {
    Buffer& buf = local_buffer();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.spans.push_back(span);
  }

  /// Every span recorded so far, tagged with the index of the buffer
  /// (thread) that recorded it.
  [[nodiscard]] std::vector<std::pair<std::size_t, Span>> collect() const {
    std::vector<std::pair<std::size_t, Span>> out;
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
      std::lock_guard<std::mutex> buf_lock(buffers_[t]->mu);
      for (const Span& s : buffers_[t]->spans) out.emplace_back(t, s);
    }
    return out;
  }

  /// Drops recorded spans; buffers stay registered to their threads.
  void clear() {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      buf->spans.clear();
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
  };

  /// The calling thread's buffer, registered on first use. Buffers are
  /// owned by the recorder and outlive the threads that filled them, so a
  /// pipeline torn down between phases leaves its spans readable. The
  /// thread's cache is keyed by a process-unique id, not by address: a new
  /// recorder may reuse a dead one's address.
  Buffer& local_buffer() {
    thread_local std::uint64_t owner = 0;
    thread_local Buffer* buffer = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(registry_mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      owner = id_;
    }
    return *buffer;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> last{0};
    return ++last;
  }

  const std::uint64_t id_ = next_id();
  const Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times every run() of the wrapped backend. Forwards every other virtual of
/// DiffusionBackend unchanged: the pipeline keys thread sharing, prefetch
/// spawning and the farm-wait meter on them, so a decorator that dropped
/// one (offloads_compute() above all) would silently change the program.
class TimedBackend final : public core::DiffusionBackend {
 public:
  /// Non-owning: `inner` and `recorder` must outlive this decorator.
  TimedBackend(core::DiffusionBackend& inner, SpanRecorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}
  /// Owning variant, used by clone().
  TimedBackend(std::unique_ptr<core::DiffusionBackend> inner,
               SpanRecorder& recorder)
      : inner_(inner.get()), recorder_(&recorder), owned_(std::move(inner)) {}

  core::BackendResult run(const graph::Subgraph& ball, double mass,
                          unsigned length) override {
    if (!recorder_->enabled()) return inner_->run(ball, mass, length);
    const double begin = recorder_->now_us();
    core::BackendResult result = inner_->run(ball, mass, length);
    recorder_->record({SpanKind::kBackendRun, begin, recorder_->now_us(),
                       ball.num_nodes(), result.edge_ops});
    return result;
  }

  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override {
    return inner_->working_bytes(ball_nodes, ball_edges);
  }
  [[nodiscard]] std::string name() const override {
    return "timed(" + inner_->name() + ")";
  }
  [[nodiscard]] std::unique_ptr<core::DiffusionBackend> clone()
      const override {
    return std::make_unique<TimedBackend>(inner_->clone(), *recorder_);
  }
  [[nodiscard]] bool thread_safe() const override {
    return inner_->thread_safe();
  }
  [[nodiscard]] std::size_t max_concurrent_runs() const override {
    return inner_->max_concurrent_runs();
  }
  [[nodiscard]] bool offloads_compute() const override {
    return inner_->offloads_compute();
  }
  [[nodiscard]] std::size_t active_dispatches() const override {
    return inner_->active_dispatches();
  }
  [[nodiscard]] core::DispatchHealth dispatch_health() const override {
    return inner_->dispatch_health();
  }

 private:
  core::DiffusionBackend* inner_;
  SpanRecorder* recorder_;
  std::unique_ptr<core::DiffusionBackend> owned_;
};

/// Extractor for ShardedBallCache::set_extractor that times each BFS the
/// cache runs on a miss (demand and prefetch threads alike). Same BFS as
/// the cache's built-in path.
inline auto timed_extractor(SpanRecorder& recorder) {
  return [&recorder](const graph::Graph& g, graph::NodeId root,
                     unsigned radius) {
    if (!recorder.enabled()) return graph::extract_ball(g, root, radius);
    const double begin = recorder.now_us();
    graph::Subgraph ball = graph::extract_ball(g, root, radius);
    recorder.record({SpanKind::kExtractBall, begin, recorder.now_us(),
                     ball.num_nodes(), 0});
    return ball;
  };
}

/// Minimal JSON string escaping for the trace writer and the report.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// One Chrome Trace Event "complete" event (ph "X"). `args` is a JSON
/// object body without braces, e.g. "\"ticket\": 7".
struct TraceEvent {
  std::string name;
  int pid = 1;
  std::uint64_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::string args;
};

/// Writes `events` as a Chrome Trace Event JSON document (load it in
/// chrome://tracing or Perfetto). `process_names` labels pids 1..n.
inline void write_chrome_trace(std::ostream& os,
                               const std::vector<TraceEvent>& events,
                               const std::vector<std::string>& process_names) {
  os << std::fixed << std::setprecision(3)  // µs timestamps, ns resolution
     << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (std::size_t p = 0; p < process_names.size(); ++p) {
    os << (first ? "" : ",\n") << "{\"name\": \"process_name\", \"ph\": \"M\", "
       << "\"pid\": " << p + 1 << ", \"args\": {\"name\": \""
       << json_escape(process_names[p]) << "\"}}";
    first = false;
  }
  for (const TraceEvent& e : events) {
    os << (first ? "" : ",\n") << "{\"name\": \"" << json_escape(e.name)
       << "\", \"ph\": \"X\", \"pid\": " << e.pid << ", \"tid\": " << e.tid
       << ", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us
       << ", \"args\": {" << e.args << "}}";
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace meloppr::bench_e2e
