// Service-level telemetry tests: golden trace shape on a fixed-seed
// multi-job run, the span-durations-sum-to-turnaround contract, bit-identical
// determinism with tracing on vs off, fake-clock JobReport timing, and the
// metrics snapshot: its exact entry names, its agreement with the job
// reports, its exact latency quantiles, and polling it while jobs run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
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

// One metrics-snapshot entry: its section ("counters", "gauges" or
// "histograms") and its numeric fields by key.
struct SnapshotEntry {
  std::string section;
  std::map<std::string, double> fields;
};

// Parses MetricsSnapshotJson() output by name. Knows only the snapshot's flat
// shape: each entry is a {...} object with a quoted "name" and "unit" and
// otherwise numeric fields.
std::map<std::string, SnapshotEntry> ParseSnapshot(const std::string& json) {
  std::map<std::string, SnapshotEntry> entries;
  const size_t gauges_at = json.find("\"gauges\":[");
  const size_t histograms_at = json.find("\"histograms\":[");
  EXPECT_NE(gauges_at, std::string::npos) << json;
  EXPECT_NE(histograms_at, std::string::npos) << json;
  const std::string name_key = "{\"name\":\"";
  for (size_t at = json.find(name_key); at != std::string::npos;
       at = json.find(name_key, at + 1)) {
    const size_t name_begin = at + name_key.size();
    const size_t name_end = json.find('"', name_begin);
    const size_t close = json.find('}', name_end);
    std::string name = json.substr(name_begin, name_end - name_begin);
    SnapshotEntry entry;
    entry.section = at > histograms_at ? "histograms" : at > gauges_at ? "gauges" : "counters";
    // Every remaining key up to the closing brace: "key":<number>, skipping
    // the quoted unit.
    for (size_t key = json.find(",\"", name_end); key < close; key = json.find(",\"", key + 1)) {
      const size_t key_end = json.find('"', key + 2);
      std::string field = json.substr(key + 2, key_end - key - 2);
      if (field != "unit") {
        entry.fields[field] = std::strtod(json.c_str() + key_end + 2, nullptr);
      }
    }
    EXPECT_TRUE(entries.emplace(name, entry).second) << "duplicate metric " << name;
  }
  return entries;
}

// `v` as the snapshot renders it, read back: the snapshot prints %.9g.
double Rendered(double v) { return std::strtod(JsonNumber(v).c_str(), nullptr); }

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

// The metric-name schema: a tagged job with a record store and a trace sink
// yields exactly these entries, each in its section. Nothing a job's borrowed
// measurer or model counts is mirrored into the fleet snapshot.
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
  std::map<std::string, std::set<std::string>> names;  // section -> names
  for (const auto& [name, entry] : ParseSnapshot(json)) {
    names[entry.section].insert(name);
  }
  const std::map<std::string, std::set<std::string>> expected = {
      {"counters",
       {"service.jobs_submitted", "service.rounds_completed", "service.jobs_finished",
        "service.trials", "service.trials_invalid", "service.trials_cancelled"}},
      {"gauges",
       {"service.shared_caches", "service.shared_cache.hits", "service.shared_cache.misses",
        "service.shared_cache.evictions", "service.shared_cache.cross_client_hits",
        "service.shared_cache.warm_inserts", "service.warm_start.loaded", "store.appended",
        "store.deduplicated", "store.improved", "store.size", "trace.spans"}},
      {"histograms", {"job.queue_seconds", "job.run_seconds", "job.turnaround_seconds"}},
  };
  EXPECT_EQ(names, expected) << json;
}

// Two tenants with their own measurer and model, run one after the other:
// every trial count in the snapshot is the fleet total over the reports, not
// the last finished tenant's.
TEST(TelemetryService, SnapshotAgreesWithJobReports) {
  TuningServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.max_concurrent_jobs = 1;  // FIFO
  // Declared before the service so they outlive its drivers.
  std::vector<std::unique_ptr<Measurer>> measurers;
  std::vector<std::unique_ptr<GbdtCostModel>> models;
  TuningService service(service_options);

  constexpr int kJobs = 2;
  const int rounds[kJobs] = {2, 4};
  std::vector<JobHandle> handles;
  for (int j = 0; j < kJobs; ++j) {
    measurers.push_back(std::make_unique<Measurer>(MachineModel::IntelCpu20Core()));
    models.push_back(std::make_unique<GbdtCostModel>());
    handles.push_back(
        service.Submit(MakeJob(j, rounds[j], measurers.back().get(), models.back().get())));
  }
  service.WaitAll();

  int64_t trials = 0, invalid = 0, cancelled = 0, measured = 0, rounds_done = 0;
  for (int j = 0; j < kJobs; ++j) {
    const JobReport& report = handles[static_cast<size_t>(j)].report();
    ASSERT_EQ(report.status, JobStatus::kCompleted);
    trials += report.trials;
    invalid += report.trials_invalid;
    cancelled += report.trials_cancelled;
    rounds_done += report.rounds_completed;
    // Every tenant measured something, so no single tenant's count can pass
    // for the fleet total.
    ASSERT_GT(report.trials, 0);
    measured += measurers[static_cast<size_t>(j)]->trial_count();
  }
  ASSERT_EQ(measured, trials);

  const std::string json = service.MetricsSnapshotJson();
  std::map<std::string, SnapshotEntry> entries = ParseSnapshot(json);
  int trial_counts = 0;
  for (const auto& [name, entry] : entries) {
    const size_t dot = name.rfind('.');
    if (name.substr(dot + 1) == "trials") {
      ++trial_counts;
      EXPECT_EQ(entry.fields.at("value"), static_cast<double>(trials)) << name;
    }
  }
  EXPECT_EQ(trial_counts, 1) << json;
  EXPECT_EQ(entries.at("service.trials_invalid").fields.at("value"),
            static_cast<double>(invalid));
  EXPECT_EQ(entries.at("service.trials_cancelled").fields.at("value"),
            static_cast<double>(cancelled));
  EXPECT_EQ(entries.at("service.jobs_submitted").fields.at("value"), kJobs);
  EXPECT_EQ(entries.at("service.jobs_finished").fields.at("value"), kJobs);
  EXPECT_EQ(entries.at("service.rounds_completed").fields.at("value"),
            static_cast<double>(rounds_done));
  EXPECT_EQ(entries.at("job.turnaround_seconds").fields.at("count"), kJobs);
}

// Each job.*_seconds histogram reports the exact order statistics of the
// terminal jobs' reports: p50/p95/p99 are nearest-rank values (rank
// ceil(q * n)), not estimates.
TEST(TelemetryService, SnapshotLatencyDistributionIsExact) {
  FakeClock clock(0, /*step_nanos=*/1000000);  // 1 ms per reading
  TuningServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_concurrent_jobs = 1;  // FIFO: queue times grow per job
  service_options.clock = &clock;
  // Declared before the service so they outlive its drivers.
  std::vector<std::unique_ptr<Measurer>> measurers;
  std::vector<std::unique_ptr<GbdtCostModel>> models;
  TuningService service(service_options);

  constexpr int kJobs = 5;
  std::vector<JobHandle> handles;
  for (int j = 0; j < kJobs; ++j) {
    measurers.push_back(std::make_unique<Measurer>(MachineModel::IntelCpu20Core()));
    models.push_back(std::make_unique<GbdtCostModel>());
    handles.push_back(service.Submit(
        MakeJob(j, /*rounds=*/1 + j, measurers.back().get(), models.back().get())));
  }
  service.WaitAll();

  std::map<std::string, std::vector<double>> observed;
  for (const JobHandle& handle : handles) {
    const JobReport& report = handle.report();
    ASSERT_EQ(report.status, JobStatus::kCompleted);
    observed["job.queue_seconds"].push_back(report.queue_seconds);
    observed["job.run_seconds"].push_back(report.run_seconds);
    observed["job.turnaround_seconds"].push_back(report.turnaround_seconds);
  }
  std::map<std::string, SnapshotEntry> entries = ParseSnapshot(service.MetricsSnapshotJson());
  for (auto& [name, values] : observed) {
    SCOPED_TRACE(name);
    std::sort(values.begin(), values.end());
    // Distinct values, so a quantile that picks the wrong rank shows.
    ASSERT_EQ(std::adjacent_find(values.begin(), values.end()), values.end());
    auto rank = [&](double q) {
      size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
      return values[std::max<size_t>(r, 1) - 1];
    };
    double sum = 0.0;
    for (double v : values) sum += v;
    const std::map<std::string, double>& fields = entries.at(name).fields;
    EXPECT_EQ(fields.at("count"), kJobs);
    EXPECT_EQ(fields.at("min"), Rendered(values.front()));
    EXPECT_EQ(fields.at("max"), Rendered(values.back()));
    EXPECT_EQ(fields.at("p50"), Rendered(rank(0.50)));
    EXPECT_EQ(fields.at("p95"), Rendered(rank(0.95)));
    EXPECT_EQ(fields.at("p99"), Rendered(rank(0.99)));
    EXPECT_NEAR(fields.at("sum"), sum, 1e-6 * sum);
    EXPECT_NEAR(fields.at("mean"), sum / kJobs, 1e-6 * sum);
  }
}

// Snapshots taken while two jobs run read the reports, caches, record store
// and trace sink under their own locks (the tsan preset runs this): the fleet
// counters only grow, and the final snapshot matches the reports.
TEST(TelemetryService, SnapshotPollsWhileJobsRun) {
  TraceSink sink;
  RecordStore store;
  TuningServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.max_concurrent_jobs = 2;
  service_options.record_store = &store;
  service_options.trace_sink = &sink;
  // Declared before the service so they outlive its drivers.
  std::vector<std::unique_ptr<Measurer>> measurers;
  std::vector<std::unique_ptr<GbdtCostModel>> models;
  TuningService service(service_options);

  constexpr int kJobs = 2;
  std::vector<JobHandle> handles;
  for (int j = 0; j < kJobs; ++j) {
    measurers.push_back(std::make_unique<Measurer>(MachineModel::IntelCpu20Core()));
    models.push_back(std::make_unique<GbdtCostModel>());
    handles.push_back(service.Submit(
        MakeJob(j, /*rounds=*/5, measurers.back().get(), models.back().get())));
  }
  double last_rounds = 0.0, last_finished = 0.0, last_trials = 0.0;
  int polls = 0;
  auto poll = [&] {
    std::map<std::string, SnapshotEntry> entries = ParseSnapshot(service.MetricsSnapshotJson());
    const double rounds = entries.at("service.rounds_completed").fields.at("value");
    const double finished = entries.at("service.jobs_finished").fields.at("value");
    const double trials = entries.at("service.trials").fields.at("value");
    EXPECT_GE(rounds, last_rounds);
    EXPECT_GE(finished, last_finished);
    EXPECT_GE(trials, last_trials);
    EXPECT_LE(finished, kJobs);
    EXPECT_EQ(entries.at("job.turnaround_seconds").fields.at("count"), finished);
    last_rounds = rounds;
    last_finished = finished;
    last_trials = trials;
    ++polls;
  };
  while (!(handles[0].Wait(0.0) && handles[1].Wait(0.0))) {
    poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.WaitAll();
  poll();
  EXPECT_GE(polls, 2);

  int64_t trials = 0;
  for (const JobHandle& handle : handles) {
    ASSERT_EQ(handle.report().status, JobStatus::kCompleted);
    trials += handle.report().trials;
  }
  EXPECT_EQ(last_finished, kJobs);
  EXPECT_EQ(last_rounds, 2 * 5);
  EXPECT_EQ(last_trials, static_cast<double>(trials));
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
