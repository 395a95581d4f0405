// Telemetry core tests: the fake clock, span parent/child nesting, the JSONL
// trace round trip and its escaping, interrupted trace saves, and the trace
// fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/telemetry/clock.h"
#include "src/telemetry/trace.h"
#include "src/telemetry/trace_report.h"
#include "tests/testing.h"

namespace ansor {
namespace {

TEST(TelemetryClock, FakeClockAdvancesDeterministically) {
  FakeClock clock(1000, 10);
  EXPECT_EQ(clock.NowNanos(), 1000);
  EXPECT_EQ(clock.NowNanos(), 1010);
  clock.AdvanceSeconds(1.0);
  EXPECT_EQ(clock.NowNanos(), 1000000000 + 1020);
  EXPECT_DOUBLE_EQ(SecondsBetween(0, 2500000000), 2.5);
}

TEST(TelemetrySpan, ParentChildNestingAndAttribution) {
  TraceSink sink;
  FakeClock clock(0, 1000);
  Tracer tracer(&sink, &clock);

  uint64_t outer_id = 0;
  {
    TraceSpan outer(tracer.WithJob(3).WithTask(1), "round", "service");
    ASSERT_TRUE(outer.enabled());
    outer_id = outer.id();
    outer.Arg("count", static_cast<int64_t>(4));
    TraceSpan inner(outer.child().WithRound(2), "evolution", "search");
    EXPECT_NE(inner.id(), outer_id);
  }
  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes first (RAII order).
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "evolution");
  EXPECT_EQ(inner.parent_id, outer_id);
  EXPECT_EQ(inner.job, 3);
  EXPECT_EQ(inner.task, 1);
  EXPECT_EQ(inner.round, 2);
  EXPECT_EQ(outer.name, "round");
  EXPECT_EQ(outer.parent_id, 0u);  // root
  EXPECT_EQ(outer.round, -1);
  EXPECT_GE(outer.end_nanos, outer.start_nanos);
  // The outer span's window covers the inner's.
  EXPECT_LE(outer.start_nanos, inner.start_nanos);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_EQ(outer.args[0].first, "count");
}

TEST(TelemetrySpan, DisabledTracerRecordsNothing) {
  Tracer disabled;
  EXPECT_FALSE(disabled.enabled());
  TraceSpan span(disabled, "evolution", "search");
  EXPECT_FALSE(span.enabled());
  span.Arg("ignored", static_cast<int64_t>(1));
  Tracer child = span.child();
  EXPECT_FALSE(child.enabled());
  TraceSpan null_ptr_span(static_cast<const Tracer*>(nullptr), "x", "y");
  EXPECT_FALSE(null_ptr_span.enabled());
}

TEST(TelemetrySpan, JsonlRoundTripPreservesKnownFields) {
  TraceSink sink;
  FakeClock clock(5000, 250);
  Tracer tracer(&sink, &clock);
  {
    TraceSpan span(tracer.WithJob(2).WithTask(0).WithRound(1), "measure_trial",
                   "measure");
    span.Arg("outcome", std::string("valid"));
    span.Arg("queue_seconds", 0.25);
    span.Arg("count", static_cast<int64_t>(6));
  }
  std::string jsonl = sink.ToJsonl();
  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(TraceSink::ParseJsonl(jsonl, &parsed));
  ASSERT_EQ(parsed.size(), 1u);
  std::vector<TraceEvent> recorded = sink.Snapshot();
  ASSERT_EQ(recorded.size(), 1u);
  const TraceEvent& original = recorded[0];
  const TraceEvent& back = parsed[0];
  EXPECT_EQ(back.name, original.name);
  EXPECT_EQ(back.category, original.category);
  EXPECT_EQ(back.span_id, original.span_id);
  EXPECT_EQ(back.parent_id, original.parent_id);
  EXPECT_EQ(back.job, 2);
  EXPECT_EQ(back.task, 0);
  EXPECT_EQ(back.round, 1);
  // Microsecond timestamp precision survives the round trip (the fake clock
  // ticks in multiples of 250 ns -> sub-us truncation stays under 1 us).
  EXPECT_NEAR(back.duration_seconds(), original.duration_seconds(), 1e-6);
  bool saw_outcome = false;
  for (const auto& [key, value] : back.args) {
    if (key == "outcome") {
      saw_outcome = true;
      EXPECT_EQ(value, "valid");  // the parser strips the JSON quotes
    }
  }
  EXPECT_TRUE(saw_outcome);
}

TEST(TelemetrySpan, InterruptedSaveAtEveryByteKeepsOldTrace) {
  // Spans without args: ToJsonl of the loaded events then reproduces the
  // saved sink byte for byte, so the comparison is exact.
  FakeClock clock(1000, 500);
  auto trace = [&clock](TraceSink* sink, int spans) {
    Tracer tracer(sink, &clock);
    for (int i = 0; i < spans; ++i) {
      TraceSpan span(tracer.WithJob(1).WithRound(i), "round", "search");
    }
  };
  TraceSink old_sink;
  trace(&old_sink, 1);
  TraceSink new_sink;
  trace(&new_sink, 3);
  std::string path = ::testing::TempDir() + "/ansor_interrupted_trace.jsonl";
  ASSERT_TRUE(old_sink.SaveToFile(path));

  auto loads = [&](const TraceSink& expected) {
    std::vector<TraceEvent> events;
    if (!TraceSink::LoadFromFile(path, &events)) return false;
    TraceSink loaded;
    for (TraceEvent& e : events) loaded.Record(std::move(e));
    return loaded.ToJsonl() == expected.ToJsonl();
  };
  testing::ExpectEveryCutSaveKeepsOldFile(
      path, new_sink.ToJsonl().size(), [&] { return new_sink.SaveToFile(path); },
      [&] { return loads(old_sink); });

  ASSERT_TRUE(new_sink.SaveToFile(path));
  EXPECT_TRUE(loads(new_sink));
  std::remove(path.c_str());
}

TEST(TelemetrySpan, JsonlEscapesControlCharactersInArgs) {
  // Caller-provided strings reach the trace (e.g. JobSpec::name via
  // span.Arg("name", ...)); control characters in them must not break the
  // one-event-per-line JSONL framing or produce invalid JSON.
  TraceSink sink;
  FakeClock clock(1000, 100);
  Tracer tracer(&sink, &clock);
  const std::string hostile = "job\rname\nwith\tctrl\x01!";
  {
    TraceSpan span(tracer, "job", "service");
    span.Arg("outcome", hostile);
  }
  std::string jsonl = sink.ToJsonl();
  // Exactly one line, with every control byte escaped rather than raw.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
  EXPECT_EQ(jsonl.find('\r'), std::string::npos);
  EXPECT_EQ(jsonl.find('\t'), std::string::npos);
  EXPECT_EQ(jsonl.find('\x01'), std::string::npos);
  EXPECT_NE(jsonl.find("\\r"), std::string::npos);
  EXPECT_NE(jsonl.find("\\u0001"), std::string::npos);
  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(TraceSink::ParseJsonl(jsonl, &parsed));
  ASSERT_EQ(parsed.size(), 1u);
  bool saw_outcome = false;
  for (const auto& [key, value] : parsed[0].args) {
    if (key == "outcome") {
      saw_outcome = true;
      EXPECT_EQ(value, hostile);  // the escapes decode back to the original
    }
  }
  EXPECT_TRUE(saw_outcome);
}

TEST(TelemetryTraceReport, FoldsPhasesAndJobAttribution) {
  TraceSink sink;
  auto add = [&](const char* name, uint64_t id, uint64_t parent, int64_t job,
                 int64_t task, int64_t start_us, int64_t end_us) {
    TraceEvent e;
    e.name = name;
    e.category = "test";
    e.span_id = id;
    e.parent_id = parent;
    e.job = job;
    e.task = task;
    e.start_nanos = start_us * 1000;
    e.end_nanos = end_us * 1000;
    sink.Record(e);
  };
  // job 1: a 100us job with two direct 40us rounds; one round holds a
  // nested 10us evolution (inclusive: must NOT double-count into the
  // direct-children sum).
  add("job", 1, 0, 1, -1, 0, 100);
  add("round", 2, 1, 1, 0, 0, 40);
  add("round", 3, 1, 1, 1, 50, 90);
  add("evolution", 4, 3, 1, 1, 55, 65);

  TraceReport report = FoldEvents(sink.Snapshot());
  EXPECT_EQ(report.total_events, 4u);
  ASSERT_EQ(report.jobs.size(), 1u);
  const JobAttribution& job = report.jobs[0];
  EXPECT_EQ(job.job, 1);
  EXPECT_NEAR(job.turnaround_seconds, 100e-6, 1e-12);
  EXPECT_NEAR(job.direct_child_seconds, 80e-6, 1e-12);  // rounds only
  ASSERT_EQ(job.task_seconds.size(), 2u);  // sorted by task id
  EXPECT_EQ(job.task_seconds[1].first, 1);
  EXPECT_NEAR(job.task_seconds[1].second, 50e-6, 1e-12);  // round + evolution

  std::string rendered = RenderReport(report);
  EXPECT_NE(rendered.find("job 1"), std::string::npos);
  EXPECT_NE(rendered.find("evolution"), std::string::npos);
}

}  // namespace
}  // namespace ansor
