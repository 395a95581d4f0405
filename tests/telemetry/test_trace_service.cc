// Service-level telemetry tests: golden trace shape on a fixed-seed
// multi-job run, the span-durations-sum-to-turnaround contract, bit-identical
// determinism with tracing on vs off, fake-clock JobReport timing, and the
// fleet gauges in the metrics snapshot.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/service/tuning_service.h"
#include "src/telemetry/trace_report.h"
#include "tests/testing.h"

namespace ansor {
namespace {

TaskSchedulerOptions TraceTestOptions(uint64_t seed) {
  TaskSchedulerOptions options;
  options.measures_per_round = 6;
  options.seed = seed;
  options.search.population = 10;
  options.search.generations = 1;
  options.search.random_samples_per_round = 5;
  options.search.seed = seed * 31 + 7;
  return options;
}

std::vector<SearchTask> JobTasks(int job) {
  int64_t n = 16 << (job % 2);
  return {MakeSearchTask("mm_a", testing::Matmul(n, 16, 16), 1, "mm"),
          MakeSearchTask("mm_b", testing::Matmul(16, n, 16), 1, "mm")};
}

JobSpec MakeJob(int job, int rounds, Measurer* measurer, CostModel* model) {
  JobSpec spec;
  spec.name = "job" + std::to_string(job);
  spec.tasks = JobTasks(job);
  spec.networks = {{"net", {0, 1}}};
  spec.objective = Objective::SumLatency();
  spec.options = TraceTestOptions(100 + static_cast<uint64_t>(job));
  spec.total_rounds = rounds;
  spec.measurer = measurer;
  spec.model = model;
  return spec;
}

// Every span name the pipeline can emit; the shape test fails on anything
// outside this taxonomy so new instrumentation updates it deliberately.
const std::set<std::string>& KnownSpanNames() {
  static const std::set<std::string> names = {
      "job",          "round",          "warm_start",      "store_save",
      "store_load",   "sketch",         "plan_round",      "training_features",
      "commit_round", "evolution",      "generation",      "model_predict",
      "model_train",  "artifact_build", "lower",           "extract_features",
      "verify_structural", "verify_resources", "measure_batch", "measure_trial"};
  return names;
}

TEST(TelemetryService, GoldenTraceShapeOnFixedSeedTwoJobRun) {
  constexpr int kJobs = 2;
  constexpr int kRounds = 3;
  TraceSink sink;
  TuningServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.max_concurrent_jobs = kJobs;
  service_options.trace_sink = &sink;

  std::vector<std::unique_ptr<Measurer>> measurers;
  std::vector<std::unique_ptr<GbdtCostModel>> models;
  std::vector<JobHandle> handles;
  {
    TuningService service(service_options);
    for (int j = 0; j < kJobs; ++j) {
      measurers.push_back(std::make_unique<Measurer>(MachineModel::IntelCpu20Core()));
      models.push_back(std::make_unique<GbdtCostModel>());
      handles.push_back(service.Submit(
          MakeJob(j, kRounds, measurers.back().get(), models.back().get())));
    }
    service.WaitAll();
    service.Shutdown();
  }

  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_FALSE(events.empty());

  std::map<int64_t, const TraceEvent*> job_spans;  // job id -> "job" span
  std::map<int64_t, int> rounds_per_job;
  std::map<uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& e : events) {
    by_span[e.span_id] = &e;
  }
  for (const TraceEvent& e : events) {
    // Shape invariants that hold for every single span.
    EXPECT_TRUE(KnownSpanNames().count(e.name)) << "unknown span: " << e.name;
    EXPECT_NE(e.span_id, 0u);
    EXPECT_GE(e.end_nanos, e.start_nanos) << e.name;
    if (e.parent_id != 0) {
      auto parent = by_span.find(e.parent_id);
      ASSERT_NE(parent, by_span.end()) << e.name << " has a dangling parent";
      // A child's attribution never contradicts its parent's.
      if (parent->second->job >= 0) {
        EXPECT_EQ(e.job, parent->second->job) << e.name;
      }
    }
    if (e.name == "job") {
      EXPECT_EQ(e.parent_id, 0u);
      ASSERT_GE(e.job, 0);
      EXPECT_TRUE(job_spans.emplace(e.job, &e).second)
          << "duplicate job span for job " << e.job;
    } else if (e.name == "round") {
      ASSERT_GE(e.job, 0);
      EXPECT_GE(e.round, 0);
      // The scheduler's task pick rides along as an extra arg.
      bool has_task_arg = false;
      for (const auto& kv : e.args) has_task_arg |= (kv.first == "picked_task");
      EXPECT_TRUE(has_task_arg);
      rounds_per_job[e.job] += 1;
    }
  }

  ASSERT_EQ(job_spans.size(), static_cast<size_t>(kJobs));
  for (const JobHandle& handle : handles) {
    SCOPED_TRACE("job " + handle.name());
    const JobReport& report = handle.report();
    ASSERT_EQ(report.status, JobStatus::kCompleted);
    auto it = job_spans.find(handle.id());
    ASSERT_NE(it, job_spans.end());
    const TraceEvent& job_span = *it->second;
    EXPECT_EQ(rounds_per_job[handle.id()], report.rounds_completed);
    // Round spans hang directly off their job span.
    for (const TraceEvent& e : events) {
      if (e.name == "round" && e.job == handle.id()) {
        EXPECT_EQ(e.parent_id, job_span.span_id);
      }
    }
    // The job span covers the run phase: its duration can't exceed the
    // reported turnaround, and its direct children partition most of it.
    EXPECT_GT(job_span.duration_seconds(), 0.0);
    EXPECT_LE(job_span.duration_seconds(), report.turnaround_seconds + 0.050);
  }
}

TEST(TelemetryService, SpanDurationsSumToReportedTurnaround) {
  constexpr int kJobs = 3;
  constexpr int kRounds = 3;
  std::string trace_file = ::testing::TempDir() + "/ansor_test_service_trace.jsonl";
  std::remove(trace_file.c_str());

  TraceSink sink;
  TuningServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.max_concurrent_jobs = kJobs;  // all admitted at once: queue ~ 0
  service_options.trace_sink = &sink;

  std::vector<std::unique_ptr<Measurer>> measurers;
  std::vector<std::unique_ptr<GbdtCostModel>> models;
  std::vector<JobHandle> handles;
  {
    TuningService service(service_options);
    for (int j = 0; j < kJobs; ++j) {
      measurers.push_back(std::make_unique<Measurer>(MachineModel::IntelCpu20Core()));
      models.push_back(std::make_unique<GbdtCostModel>());
      handles.push_back(service.Submit(
          MakeJob(j, kRounds, measurers.back().get(), models.back().get())));
    }
    service.WaitAll();
    service.Shutdown();  // every job is terminal: the trace is complete
  }
  ASSERT_TRUE(sink.SaveToFile(trace_file));

  std::vector<TraceEvent> events;
  ASSERT_TRUE(TraceSink::LoadFromFile(trace_file, &events));
  ASSERT_FALSE(events.empty());
  TraceReport folded = FoldEvents(events);
  ASSERT_EQ(folded.jobs.size(), static_cast<size_t>(kJobs));

  std::map<int64_t, const JobReport*> reports;
  for (const JobHandle& handle : handles) {
    ASSERT_EQ(handle.report().status, JobStatus::kCompleted);
    reports[handle.id()] = &handle.report();
  }
  for (const JobAttribution& job : folded.jobs) {
    SCOPED_TRACE("job " + std::to_string(job.job));
    auto it = reports.find(job.job);
    ASSERT_NE(it, reports.end());
    const JobReport& report = *it->second;
    // The acceptance contract: the job's span durations account for its
    // reported turnaround within tolerance. Direct children of the job span
    // partition its wall time (never exceed it), and together the spans
    // cover the bulk of the turnaround — the slack is queueing (~0 here,
    // all jobs admitted immediately) plus between-span bookkeeping.
    EXPECT_GT(job.turnaround_seconds, 0.0);
    EXPECT_LE(job.direct_child_seconds, job.turnaround_seconds * 1.01 + 1e-6);
    EXPECT_LE(job.turnaround_seconds, report.turnaround_seconds + 0.050);
    double tolerance = 0.050 + 0.25 * report.turnaround_seconds;
    EXPECT_NEAR(job.direct_child_seconds, report.turnaround_seconds, tolerance);
    EXPECT_FALSE(job.phases.empty());
  }
  // The folded report renders without blowing up.
  EXPECT_NE(RenderReport(folded).find("per-phase totals"), std::string::npos);
  std::remove(trace_file.c_str());
}

// The first pinned piece of the metric-name schema: the snapshot refreshes
// the mirrored fleet gauges, so a tagged job with a record store and a trace
// sink yields every one of them beside every gauge the job's cost model,
// measurer and the record store export.
TEST(TelemetryService, MetricsSnapshotJsonCarriesFleetGauges) {
  TraceSink sink;
  RecordStore store;
  TuningServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.record_store = &store;
  service_options.trace_sink = &sink;

  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  TuningService service(service_options);
  JobHandle handle = service.Submit(MakeJob(0, /*rounds=*/2, &measurer, &model));
  service.WaitAll();
  ASSERT_EQ(handle.report().status, JobStatus::kCompleted);

  std::string json = service.MetricsSnapshotJson();
  for (const char* name :
       {"service.shared_caches", "service.shared_cache.hits", "service.shared_cache.misses",
        "service.shared_cache.evictions", "service.shared_cache.cross_client_hits",
        "service.shared_cache.warm_inserts", "service.warm_start.loaded", "trace.spans",
        "model.version", "model.train_calls", "model.programs_predicted", "model.samples",
        "measurer.trials", "measurer.verifications", "store.appended", "store.deduplicated",
        "store.improved", "store.size"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""), std::string::npos)
        << name << " missing from " << json;
  }
}

TEST(TelemetryService, DeterminismBitIdenticalWithTracingOnAndOff) {
  constexpr int kJobs = 2;
  constexpr int kRounds = 3;

  auto run = [&](TraceSink* sink) {
    struct Result {
      std::vector<std::vector<int>> traces;
      std::vector<std::vector<double>> best;
      std::vector<int64_t> trials;
    } result;
    TuningServiceOptions service_options;
    service_options.num_workers = 2;
    service_options.max_concurrent_jobs = kJobs;
    service_options.trace_sink = sink;
    TuningService service(service_options);
    std::vector<std::unique_ptr<Measurer>> measurers;
    std::vector<std::unique_ptr<GbdtCostModel>> models;
    std::vector<JobHandle> handles;
    for (int j = 0; j < kJobs; ++j) {
      measurers.push_back(std::make_unique<Measurer>(MachineModel::IntelCpu20Core()));
      models.push_back(std::make_unique<GbdtCostModel>());
      handles.push_back(service.Submit(
          MakeJob(j, kRounds, measurers.back().get(), models.back().get())));
    }
    service.WaitAll();
    for (const JobHandle& handle : handles) {
      const JobReport& report = handle.report();
      EXPECT_EQ(report.status, JobStatus::kCompleted);
      result.traces.push_back(report.allocation_trace);
      result.best.push_back(report.best_seconds);
      result.trials.push_back(report.trials);
    }
    return result;
  };

  auto untraced = run(nullptr);
  TraceSink sink;
  auto traced = run(&sink);
  EXPECT_GT(sink.size(), 0u);

  ASSERT_EQ(traced.traces.size(), untraced.traces.size());
  for (size_t j = 0; j < untraced.traces.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    EXPECT_EQ(traced.traces[j], untraced.traces[j]);
    ASSERT_EQ(traced.best[j].size(), untraced.best[j].size());
    for (size_t t = 0; t < untraced.best[j].size(); ++t) {
      EXPECT_DOUBLE_EQ(traced.best[j][t], untraced.best[j][t]);
    }
    EXPECT_EQ(traced.trials[j], untraced.trials[j]);
  }
}

TEST(TelemetryService, FakeClockMakesReportTimingExact) {
  FakeClock clock(0, /*step_nanos=*/1000000);  // 1 ms per reading
  TuningServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_concurrent_jobs = 1;
  service_options.clock = &clock;
  TuningService service(service_options);

  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  JobHandle handle = service.Submit(MakeJob(0, 2, &measurer, &model));
  service.WaitAll();

  const JobReport& report = handle.report();
  ASSERT_EQ(report.status, JobStatus::kCompleted);
  // Single-clock contract: queue + run == turnaround EXACTLY (the identity
  // is by construction, not within a tolerance), and every reading of the
  // auto-advancing fake clock is strictly later than the previous one, so
  // all three are positive without any real time passing.
  EXPECT_DOUBLE_EQ(report.queue_seconds + report.run_seconds,
                   report.turnaround_seconds);
  EXPECT_GT(report.queue_seconds, 0.0);
  EXPECT_GT(report.run_seconds, 0.0);
  // Phase attribution runs off the same injected clock.
  EXPECT_GT(report.phases.TotalSeconds(), 0.0);
  // Outcome accounting: every started trial is valid or invalid.
  EXPECT_EQ(report.trials_valid + report.trials_invalid, report.trials);
  EXPECT_GE(report.trials_valid, 0);
  EXPECT_GE(report.trials_invalid, 0);
}

}  // namespace
}  // namespace ansor
