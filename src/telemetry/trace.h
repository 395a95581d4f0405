// Structured tracing: RAII spans with explicit parent/child links and
// job/task/round/generation attribution, exported as chrome://tracing-
// compatible JSONL.
//
// Zero-overhead-when-disabled contract: a Tracer with a null sink is the
// disabled state. Constructing a TraceSpan from a disabled Tracer is a single
// branch on that null pointer — no clock read, no allocation, no lock — so
// instrumentation left in hot paths (evolution generations, cache lookups,
// per-trial measurement) costs nothing when tracing is off. Tests and the
// end-to-end benchmark hold this line; see tests/telemetry/ and
// bench/e2e (telemetry.overhead_frac).
//
// Parent/child links are explicit rather than thread-local: spans routinely
// cross the thread pool (a measurement batch is submitted on the driver
// thread and runs on workers), so each Tracer value carries the parent span
// id and the attribution fields, and `span.child()` derives a Tracer for
// work nested under that span. Tracer is a small copyable value — pass it by
// value or const ref, stash it in options structs.
//
// Export format (one JSON object per line, chrome trace "X" complete
// events, timestamps/durations in microseconds):
//   {"name":"evolution","cat":"search","ph":"X","ts":12.5,"dur":340.0,
//    "pid":0,"tid":1,"args":{"span":7,"parent":3,"job":1,"task":0,
//                            "round":2,"generation":-1,...}}
// tid is the job id (so chrome://tracing lays jobs out as rows); extra
// string/number args attached via TraceSpan::Arg land in "args".
#ifndef ANSOR_SRC_TELEMETRY_TRACE_H_
#define ANSOR_SRC_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/clock.h"

namespace ansor {

// `s` as a quoted JSON string literal: quotes, backslashes and every control
// byte below 0x20 are escaped. Shared by the trace writer and the service's
// metrics snapshot.
std::string JsonString(const std::string& s);
// `v` as a JSON number: integral values below 1e15 print every digit, others
// print as %.9g, and non-finite values (which JSON cannot hold) print as 0.
std::string JsonNumber(double v);

struct TraceEvent {
  std::string name;
  std::string category;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  int64_t job = -1;
  int64_t task = -1;
  int round = -1;
  int generation = -1;
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  // Extra attributes; values are pre-rendered JSON scalars (strings arrive
  // already quoted, numbers bare).
  std::vector<std::pair<std::string, std::string>> args;

  double duration_seconds() const {
    return SecondsBetween(start_nanos, end_nanos);
  }
};

// Thread-safe append-only sink of completed spans.
class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

  void Record(TraceEvent event);

  std::vector<TraceEvent> Snapshot() const;
  size_t size() const;

  // One chrome-trace complete event per line. The full file (the JSONL lines
  // wrapped in "[...]"/ separated by commas) is what chrome://tracing and
  // perfetto load; tools/trace_report and the tests consume the raw lines.
  std::string ToJsonl() const;
  // Replaces `path` via WriteFileAtomic; on false the old file is intact.
  bool SaveToFile(const std::string& path) const;

  // Parses events back out of ToJsonl() output (the known flat shape only —
  // not a general JSON parser). Returns false on malformed input; on
  // success appends the parsed events to *events.
  static bool ParseJsonl(const std::string& text, std::vector<TraceEvent>* events);
  static bool LoadFromFile(const std::string& path, std::vector<TraceEvent>* events);

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::atomic<uint64_t> next_id_{0};
};

// A cheap value handle describing "where spans opened from here belong":
// which sink and clock to use, which job/task/round/generation the work is
// attributed to, and which span is the parent. Disabled when sink is null.
class Tracer {
 public:
  Tracer() = default;
  Tracer(TraceSink* sink, MonotonicClock* clock)
      : sink_(sink), clock_(MonotonicClock::OrReal(clock)) {}

  bool enabled() const { return sink_ != nullptr; }
  TraceSink* sink() const { return sink_; }
  MonotonicClock* clock() const { return clock_; }
  uint64_t parent() const { return parent_; }
  int64_t job() const { return job_; }
  int64_t task() const { return task_; }
  int round() const { return round_; }
  int generation() const { return generation_; }

  Tracer WithJob(int64_t job) const { Tracer t = *this; t.job_ = job; return t; }
  Tracer WithTask(int64_t task) const { Tracer t = *this; t.task_ = task; return t; }
  Tracer WithRound(int round) const { Tracer t = *this; t.round_ = round; return t; }
  Tracer WithGeneration(int generation) const {
    Tracer t = *this; t.generation_ = generation; return t;
  }
  Tracer WithParent(uint64_t parent) const { Tracer t = *this; t.parent_ = parent; return t; }

 private:
  TraceSink* sink_ = nullptr;
  MonotonicClock* clock_ = MonotonicClock::Real();
  uint64_t parent_ = 0;
  int64_t job_ = -1;
  int64_t task_ = -1;
  int round_ = -1;
  int generation_ = -1;
};

// RAII span: records one TraceEvent from construction to Finish()/destruction.
// Constructing from a disabled Tracer is a single branch; every other method
// starts with the same branch, so a disabled span costs nothing.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(const Tracer& tracer, const char* name, const char* category);
  // Pointer form for optional-tracer call sites: null means disabled.
  TraceSpan(const Tracer* tracer, const char* name, const char* category) {
    if (tracer != nullptr && tracer->enabled()) {
      *this = TraceSpan(*tracer, name, category);
    }
  }
  ~TraceSpan() { Finish(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept;

  bool enabled() const { return sink_ != nullptr; }
  uint64_t id() const { return event_.span_id; }

  // Attach an extra attribute (shows up under "args" in the trace).
  void Arg(const char* key, const std::string& value);
  void Arg(const char* key, int64_t value);
  void Arg(const char* key, double value);

  // Tracer for work nested under this span. On a disabled span this returns
  // the (disabled) tracer it was built from, so call sites never branch.
  Tracer child() const { return tracer_.WithParent(event_.span_id); }

  // Ends the span now and records it; later calls are no-ops.
  void Finish();

 private:
  TraceSink* sink_ = nullptr;
  Tracer tracer_;
  TraceEvent event_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_TELEMETRY_TRACE_H_
