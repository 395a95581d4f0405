// TuningService tests: the determinism matrix (fixed-seed results must be
// bit-identical to the legacy synchronous TaskScheduler::Tune for any worker
// count and any concurrency), cross-task cache sharing, and chaos (deadline
// cancellation under injected measurement failures: no hang, no lost budget).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/service/tuning_service.h"
#include "src/store/record_store.h"
#include "tests/testing.h"

namespace ansor {
namespace {

// Small per-job budget: large enough that the allocation trace leaves warm-up
// and the gradient/eps-greedy picks matter, small enough that the full 2x2
// matrix (plus legacy references) stays well inside the CI test timeout.
TaskSchedulerOptions ServiceTestOptions(uint64_t seed) {
  TaskSchedulerOptions options;
  options.measures_per_round = 6;
  options.seed = seed;
  options.search.population = 10;
  options.search.generations = 1;
  options.search.random_samples_per_round = 5;
  options.search.seed = seed * 31 + 7;
  return options;
}

// Two structurally similar matmuls sharing one similarity tag; job index
// varies the shapes so concurrent jobs are genuinely distinct workloads.
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
  spec.options = ServiceTestOptions(100 + static_cast<uint64_t>(job));
  spec.total_rounds = rounds;
  spec.measurer = measurer;
  spec.model = model;
  return spec;
}

TEST(TuningService, SubmitRejectsAPerTaskSearchHook) {
  // The service owns the per_task_search seam: it wires each task's search
  // options itself (shared pool, cache client ids, per-tag caches).
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  JobSpec spec = MakeJob(0, 1, &measurer, &model);
  spec.options.per_task_search = [](size_t, const SearchTask&, SearchOptions*) {};
  EXPECT_DEATH(
      {
        TuningService service;
        service.Submit(spec);
      },
      "per_task_search");
}

TEST(TuningService, DeterminismMatrixMatchesLegacy) {
  constexpr int kJobs = 3;
  constexpr int kRounds = 4;

  // Legacy references: one synchronous TaskScheduler::Tune per job spec, each
  // with its own fresh measurer and cost model.
  std::vector<std::vector<int>> ref_trace(kJobs);
  std::vector<std::vector<double>> ref_best(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    Measurer measurer(MachineModel::IntelCpu20Core());
    GbdtCostModel model;
    JobSpec spec = MakeJob(j, kRounds, &measurer, &model);
    TaskScheduler scheduler(spec.tasks, spec.networks, spec.objective, &measurer,
                            &model, spec.options);
    scheduler.Tune(kRounds);
    ref_trace[j] = scheduler.allocation_trace();
    for (const auto& tuner : scheduler.tuners()) {
      ref_best[j].push_back(tuner->best_seconds());
    }
  }

  // Service runs: every (worker count, concurrency) combination must
  // reproduce the references bit-for-bit, shared per-tag caches and all.
  for (int workers : {1, 4}) {
    for (int concurrent : {1, 3}) {
      TuningServiceOptions service_options;
      service_options.num_workers = workers;
      service_options.max_concurrent_jobs = concurrent;
      TuningService service(service_options);
      std::vector<std::unique_ptr<Measurer>> measurers;
      std::vector<std::unique_ptr<GbdtCostModel>> models;
      std::vector<JobHandle> handles;
      for (int j = 0; j < kJobs; ++j) {
        measurers.push_back(
            std::make_unique<Measurer>(MachineModel::IntelCpu20Core()));
        models.push_back(std::make_unique<GbdtCostModel>());
        handles.push_back(service.Submit(
            MakeJob(j, kRounds, measurers.back().get(), models.back().get())));
      }
      service.WaitAll();
      for (int j = 0; j < kJobs; ++j) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " concurrent=" + std::to_string(concurrent) +
                     " job=" + std::to_string(j));
        const JobReport& report = handles[j].report();
        EXPECT_EQ(report.status, JobStatus::kCompleted);
        EXPECT_EQ(report.rounds_completed, kRounds);
        EXPECT_EQ(report.allocation_trace, ref_trace[j]);
        ASSERT_EQ(report.best_seconds.size(), ref_best[j].size());
        for (size_t t = 0; t < ref_best[j].size(); ++t) {
          EXPECT_DOUBLE_EQ(report.best_seconds[t], ref_best[j][t]);
        }
        // The job's trial accounting must agree with its dedicated measurer.
        EXPECT_EQ(report.trials, measurers[j]->trial_count());
      }
      service.Shutdown();
    }
  }
}

TEST(TuningService, CrossTaskCacheSharingAcrossJobs) {
  TuningServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_concurrent_jobs = 1;
  TuningService service(service_options);

  // Two identical jobs run back-to-back. The second retraces the first's
  // search exactly, so every program it compiles through the shared "mm"
  // cache was already built by the first job's tasks: its cross-client hit
  // count is deterministically nonzero.
  Measurer measurer_a(MachineModel::IntelCpu20Core());
  Measurer measurer_b(MachineModel::IntelCpu20Core());
  GbdtCostModel model_a;
  GbdtCostModel model_b;
  JobHandle a = service.Submit(MakeJob(0, 3, &measurer_a, &model_a));
  JobHandle b = service.Submit(MakeJob(0, 3, &measurer_b, &model_b));
  service.WaitAll();

  EXPECT_EQ(service.shared_cache_count(), 1u);
  const JobReport& report_b = b.report();
  EXPECT_GT(report_b.cache.lookups, 0);
  EXPECT_GT(report_b.cache.cross_client_hits, 0);
  EXPECT_GT(report_b.CrossTaskHitRate(), 0.0);
  EXPECT_GT(service.SharedCacheStats().cross_client_hits, 0);

  // Sharing must not change results: identical specs, identical outcomes.
  const JobReport& report_a = a.report();
  EXPECT_EQ(report_a.allocation_trace, report_b.allocation_trace);
  ASSERT_EQ(report_a.best_seconds.size(), report_b.best_seconds.size());
  for (size_t t = 0; t < report_a.best_seconds.size(); ++t) {
    EXPECT_DOUBLE_EQ(report_a.best_seconds[t], report_b.best_seconds[t]);
  }
}

TEST(TuningService, EmptyTagTasksKeepPrivateCaches) {
  TuningServiceOptions service_options;
  service_options.num_workers = 1;
  TuningService service(service_options);
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  JobSpec spec = MakeJob(0, 2, &measurer, &model);
  for (SearchTask& task : spec.tasks) {
    task.tag.clear();
  }
  JobHandle handle = service.Submit(std::move(spec));
  ASSERT_TRUE(handle.Wait(60.0));
  EXPECT_EQ(service.shared_cache_count(), 0u);
  const JobReport& report = handle.report();
  // Per-client counters still flow through the tuner-owned caches, but with
  // one client per cache there is nothing to share.
  EXPECT_GT(report.cache.lookups, 0);
  EXPECT_EQ(report.cache.cross_client_hits, 0);
}

TEST(TuningService, DeadlineCancellationNoHangNoLostBudget) {
  // Chaos: transient measurement failures plus emulated device latency plus a
  // deadline far below the job's full budget. The job must terminate promptly
  // with kDeadlineExceeded, and every trial the measurer charged must appear
  // in the report (cancelled items are charged by neither side).
  MeasureOptions measure_options;
  measure_options.measure_latency_seconds = 0.02;
  measure_options.fail_injector = [](const State& state) {
    return state.steps().size() % 3 == 0;
  };
  Measurer measurer(MachineModel::IntelCpu20Core(), measure_options);
  GbdtCostModel model;
  JobSpec spec = MakeJob(0, /*rounds=*/1000, &measurer, &model);
  spec.deadline_seconds = 0.2;

  TuningServiceOptions service_options;
  service_options.num_workers = 2;
  TuningService service(service_options);
  JobHandle handle = service.Submit(std::move(spec));
  ASSERT_TRUE(handle.Wait(/*timeout_seconds=*/60.0)) << "service hung past deadline";
  const JobReport& report = handle.report();
  EXPECT_EQ(report.status, JobStatus::kDeadlineExceeded);
  EXPECT_LT(report.rounds_completed, 1000);
  EXPECT_EQ(report.trials, measurer.trial_count());
}

TEST(TuningService, CancelStopsRunningAndQueuedJobs) {
  MeasureOptions measure_options;
  measure_options.measure_latency_seconds = 0.01;
  Measurer measurer_a(MachineModel::IntelCpu20Core(), measure_options);
  Measurer measurer_b(MachineModel::IntelCpu20Core(), measure_options);
  GbdtCostModel model_a;
  GbdtCostModel model_b;
  TuningServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_concurrent_jobs = 1;  // b queues behind a
  TuningService service(service_options);
  JobHandle a = service.Submit(MakeJob(0, 200, &measurer_a, &model_a));
  JobHandle b = service.Submit(MakeJob(1, 200, &measurer_b, &model_b));
  b.Cancel();
  a.Cancel();
  ASSERT_TRUE(a.Wait(60.0));
  ASSERT_TRUE(b.Wait(60.0));
  EXPECT_EQ(a.report().status, JobStatus::kCancelled);
  EXPECT_EQ(b.report().status, JobStatus::kCancelled);
  EXPECT_LT(a.report().rounds_completed, 200);
  EXPECT_LT(b.report().rounds_completed, 200);
  // Budget accounting stays exact for partially-run and never-run jobs alike.
  EXPECT_EQ(a.report().trials, measurer_a.trial_count());
  EXPECT_EQ(b.report().trials, measurer_b.trial_count());
}

TEST(TuningService, ReportTimingAndStatusNames) {
  TuningService service;
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  JobHandle handle = service.Submit(MakeJob(0, 1, &measurer, &model));
  ASSERT_TRUE(handle.Wait(60.0));
  EXPECT_EQ(handle.status(), JobStatus::kCompleted);
  const JobReport& report = handle.report();
  EXPECT_GE(report.queue_seconds, 0.0);
  EXPECT_GT(report.run_seconds, 0.0);
  EXPECT_GE(report.turnaround_seconds + 1e-9,
            report.queue_seconds + report.run_seconds);
  EXPECT_GT(report.trials, 0);
  EXPECT_STREQ(JobStatusName(JobStatus::kCompleted), "completed");
  EXPECT_STREQ(JobStatusName(JobStatus::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_TRUE(IsTerminal(JobStatus::kCancelled));
  EXPECT_FALSE(IsTerminal(JobStatus::kRunning));
}

TEST(TuningService, FleetRecordStoreAttributionIsExact) {
  RecordStore store;
  TuningServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.max_concurrent_jobs = 2;
  service_options.record_store = &store;
  TuningService service(service_options);
  Measurer measurer_a(MachineModel::IntelCpu20Core());
  Measurer measurer_b(MachineModel::IntelCpu20Core());
  GbdtCostModel model_a;
  GbdtCostModel model_b;
  JobHandle a = service.Submit(MakeJob(0, 2, &measurer_a, &model_a));
  JobHandle b = service.Submit(MakeJob(1, 2, &measurer_b, &model_b));
  service.WaitAll();

  EXPECT_GT(store.size(), 0u);
  const JobReport& report_a = a.report();
  const JobReport& report_b = b.report();
  EXPECT_GT(report_a.records.appended, 0);
  EXPECT_GT(report_b.records.appended, 0);

  // Every Add is attributed to exactly one (job, task) client, so the per-job
  // shares must sum to the fleet-wide counters even with concurrent tenants.
  RecordStoreStats totals = store.stats();
  EXPECT_EQ(report_a.records.appended + report_b.records.appended,
            totals.appended);
  EXPECT_EQ(report_a.records.deduplicated + report_b.records.deduplicated,
            totals.deduplicated);
  EXPECT_EQ(store.size(), static_cast<size_t>(totals.appended));

  // Live measurements carry their measured throughput into the store.
  for (const TuningRecord& record : store.Snapshot()) {
    EXPECT_GT(record.throughput, 0.0);
  }
}

TEST(TuningService, WarmStartResumeIsBitIdenticalWithZeroRebuilds) {
  std::string path = ::testing::TempDir() + "/ansor_service_warm_state.bin";
  std::vector<double> cold_best;
  {
    TuningServiceOptions service_options;
    service_options.num_workers = 1;
    TuningService service(service_options);
    EXPECT_FALSE(service.warm_start_stats().ok);  // no path given: cold start
    Measurer measurer(MachineModel::IntelCpu20Core());
    GbdtCostModel model;
    JobHandle handle = service.Submit(MakeJob(0, 3, &measurer, &model));
    service.WaitAll();
    cold_best = handle.report().best_seconds;
    EXPECT_GT(service.SharedCacheStats().misses, 0);  // cold run compiled
    ASSERT_TRUE(service.SaveWarmState(path));
  }
  {
    TuningServiceOptions service_options;
    service_options.num_workers = 1;
    service_options.warm_start_path = path;
    TuningService service(service_options);
    ASSERT_TRUE(service.warm_start_stats().ok);
    EXPECT_GT(service.warm_start_stats().loaded, 0u);
    EXPECT_EQ(service.warm_start_stats().skipped, 0u);

    Measurer measurer(MachineModel::IntelCpu20Core());
    GbdtCostModel model;
    JobHandle handle = service.Submit(MakeJob(0, 3, &measurer, &model));
    service.WaitAll();

    // The resumed run retraces the cold run exactly, and every program it
    // needs was captured: zero artifacts are rebuilt.
    ProgramCacheStats stats = service.SharedCacheStats();
    EXPECT_GT(stats.warm_inserts, 0);
    EXPECT_GT(stats.hits, 0);
    EXPECT_EQ(stats.misses, 0);

    // Warm start is an optimization, not a behavior change: bit-identical.
    const std::vector<double>& warm_best = handle.report().best_seconds;
    ASSERT_EQ(warm_best.size(), cold_best.size());
    for (size_t t = 0; t < cold_best.size(); ++t) {
      EXPECT_DOUBLE_EQ(warm_best[t], cold_best[t]);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ansor
