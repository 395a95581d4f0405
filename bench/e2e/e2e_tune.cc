// End-to-end tuning benchmark: runs one tuning workload several times,
// checks its results, and reports end-to-end and per-layer metrics.
//
//   e2e_tune --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//            [--target-ms T] [--smoke] [--out DIR]
//   e2e_tune --selftest
//
// One repeat of a workload is a fixed number of independent tuning sessions,
// each with its own seed derived from --seed. A single session's cost swings
// with its search trajectory (the boosted trees the cost model grows depend
// on the data it has measured), so a repeat sums several sessions to make
// its wall time a property of the workload rather than of one trajectory.
// A run lasts about --seconds. Untraced repeats fill it; the end-to-end
// metrics are their medians. With --trace 1 the last repeat instead runs
// with a TraceSink attached; its spans give the per-layer busy and self
// times and are written to <out>/<workload>.trace.jsonl at the end. Every
// run but a smoke run makes at least two repeats, so the determinism check
// always has two to compare.
//
// Every layer is timed from outside the library: the benchmark times its own
// calls into the public APIs (TaskScheduler, TaskTuner, TuningService,
// RecordStore) and wraps the cost model in a timing decorator. No span or
// counter inside src/ exists for the benchmark's sake.
//
// The last stdout line is one JSON object with every metric; bench/e2e/run.py
// turns it into the benchmark's result line. Exit code 1 means a
// correctness check failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/span_fold.h"
#include "src/exec/interpreter.h"
#include "src/service/tuning_service.h"
#include "src/store/record_store.h"
#include "src/support/thread_pool.h"
#include "src/support/util.h"
#include "src/telemetry/trace_report.h"
#include "src/workloads/operators.h"
#include "src/workloads/suites.h"

namespace ansor {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Cost-model decorator: forwards every CostModel virtual to a GbdtCostModel
// and times the calls. Training runs on the tuning thread; prediction runs on
// pool workers concurrently, so its time is busy seconds summed over threads.

class TimingCostModel final : public CostModel {
 public:
  explicit TimingCostModel(GbdtCostModel* inner)
      : inner_(inner), seen_version_(inner->version()) {}

  void Update(uint64_t task_id, const std::vector<FeatureMatrix>& program_features,
              const std::vector<double>& throughputs) override {
    {
      Timed timed(&train_nanos_);
      inner_->Update(task_id, program_features, throughputs);
    }
    for (const FeatureMatrix& features : program_features) {
      train_rows_ += static_cast<int64_t>(features.rows());
    }
    for (const Tree& tree : inner_->gbdt().trees()) {
      tree_nodes_ += static_cast<int64_t>(tree.nodes.size());
    }
    // Memoized stage scores are stamped with this decorator's (model_id,
    // version), so every change of the inner model must bump the stamp.
    if (inner_->version() != seen_version_) {
      seen_version_ = inner_->version();
      BumpVersion();
    }
  }
  std::vector<double> Predict(const std::vector<FeatureMatrix>& program_features) override {
    Timed timed(&predict_nanos_);
    return inner_->Predict(program_features);
  }
  std::vector<double> PredictBatch(const std::vector<const FeatureMatrix*>& programs) override {
    Timed timed(&predict_nanos_);
    return inner_->PredictBatch(programs);
  }
  std::vector<double> PredictStatements(const FeatureMatrix& rows) override {
    Timed timed(&predict_nanos_);
    return inner_->PredictStatements(rows);
  }
  std::vector<std::vector<double>> PredictStatementsBatch(
      const std::vector<const FeatureMatrix*>& programs) override {
    Timed timed(&predict_nanos_);
    return inner_->PredictStatementsBatch(programs);
  }
  // Adds this model's counters to a run's per-layer sums.
  void AddTo(std::map<std::string, double>* layer) const {
    (*layer)["costmodel.train_s"] += 1e-9 * static_cast<double>(train_nanos_.load());
    (*layer)["costmodel.train_calls"] += static_cast<double>(inner_->train_calls());
    (*layer)["costmodel.train_samples"] += static_cast<double>(inner_->num_samples());
    (*layer)["costmodel.train_rows"] += static_cast<double>(train_rows_);
    (*layer)["costmodel.tree_nodes"] += static_cast<double>(tree_nodes_);
    (*layer)["costmodel.predict_busy_s"] += 1e-9 * static_cast<double>(predict_nanos_.load());
    (*layer)["costmodel.programs_predicted"] += static_cast<double>(inner_->programs_predicted());
  }

 private:
  class Timed {
   public:
    explicit Timed(std::atomic<int64_t>* total) : total_(total), start_(Clock::now()) {}
    ~Timed() {
      total_->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - start_).count());
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    std::atomic<int64_t>* total_;
    Clock::time_point start_;
  };

  GbdtCostModel* inner_;
  uint64_t seen_version_;
  int64_t train_rows_ = 0;  // statement rows handed to training
  int64_t tree_nodes_ = 0;  // nodes grown over all retrains: training's work
  std::atomic<int64_t> train_nanos_{0};
  std::atomic<int64_t> predict_nanos_{0};
};

// Times one call into the library: adds its wall time to *seconds and, when
// tracing, records it as a "bench" span that the call's own spans nest under.
class CallTimer {
 public:
  CallTimer(const Tracer& parent, const char* name, double* seconds)
      : span_(parent, name, "bench"), seconds_(seconds), start_(Clock::now()) {}
  ~CallTimer() { *seconds_ += Since(start_); }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

  Tracer child() const { return span_.child(); }

 private:
  TraceSpan span_;
  double* seconds_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Configuration and results.

// The fixed size of a workload: sessions per repeat and each one's budget.
struct Budget {
  int sessions = 1;
  int rounds = 0;  // per session (per job on the service workloads)
  int trials = 0;  // measurement trials per round
  int population = 64;
  int generations = 3;
  int random_samples = 24;
};

struct Config {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 24.0;
  bool trace = false;
  bool smoke = false;
  double target_ms = 0.0;  // time_to_target_s threshold; 0 = not measured
  std::string out_dir = "bench/e2e/out";
  int threads = 1;
  ThreadPool* pool = nullptr;  // the step-driven workloads' injected pool
  Budget budget;
};

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t h = seed;
  HashCombine(&h, salt);
  return h;
}

SearchOptions SearchFor(const Budget& budget, uint64_t seed) {
  SearchOptions search;
  search.population = budget.population;
  search.generations = budget.generations;
  search.random_samples_per_round = budget.random_samples;
  search.seed = DeriveSeed(seed, 2);
  return search;
}

// One repeat of a workload, summed over its sessions. `best_seconds` must
// repeat bit for bit across repeats of one seed; `error` is nonempty when a
// correctness check failed.
struct RunResult {
  std::string error;
  std::vector<double> setup_s;          // per session
  double tune_wall_s = 0.0;
  int64_t trials = 0;
  int64_t trials_failed = 0;            // invalid + cancelled
  std::vector<double> objective_ms;     // per session, at the end
  std::vector<double> calibration_ms;   // per session, halfway (see RunStepSession)
  std::vector<double> target_s;         // per session; kInf when never reached
  std::vector<double> turnaround_s;     // per job
  std::vector<double> round_ms;         // per round
  std::vector<double> best_seconds;     // per task
  std::map<std::string, double> layer;  // summed over sessions; ratios by Finish
  std::map<std::string, double> e2e;    // filled by Finish
};

void Fail(RunResult* r, const std::string& message) {
  if (r->error.empty()) {
    r->error = message;
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Step-driven workloads: the benchmark owns the round loop and times every
// call into TaskScheduler and TaskTuner.

struct StepWorkload {
  std::vector<SearchTask> tasks;
  std::vector<NetworkSpec> networks;
  MachineModel machine;
  bool gpu = false;
};

// ResNet-50 + MobileNet-V2 at batch 1 on the Intel CPU model: 23 tasks, the
// paper's §6 multi-network scheduling case. Cost-model training on every
// accumulated sample dominates.
StepWorkload MakeResnetMbv2() {
  StepWorkload w;
  for (const NetworkTasks& net : {ResNet50Tasks(1), MobileNetV2Tasks(1)}) {
    NetworkSpec spec;
    spec.name = net.name;
    for (const SearchTask& task : net.tasks) {
      spec.task_indices.push_back(static_cast<int>(w.tasks.size()));
      w.tasks.push_back(task);
    }
    w.networks.push_back(std::move(spec));
  }
  w.machine = MachineModel::IntelCpu20Core();
  return w;
}

// Fig. 6 C2D r28c128k3 at batch 1 on the NVIDIA GPU model: one task, so the
// scheduler is idle and the evolutionary search dominates. Covers the GPU
// sketch rules and the verifier's resource checks.
StepWorkload MakeC2dGpu() {
  StepWorkload w;
  w.tasks.push_back(MakeSearchTask("c2d_r28c128k3", MakeConv2d(1, 128, 28, 28, 128, 3, 3, 1, 1)));
  w.networks.push_back(NetworkSpec{"C2D", {0}});
  w.machine = MachineModel::NvidiaGpu();
  w.gpu = true;
  return w;
}

void RunStepSession(const Config& cfg, uint64_t seed, StepWorkload (*make)(), TraceSink* sink,
                    RunResult* r) {
  const Budget& b = cfg.budget;
  const Clock::time_point start = Clock::now();
  const Tracer root = sink != nullptr ? Tracer(sink, nullptr) : Tracer();
  TraceSpan setup_span(root, "setup", "bench");
  StepWorkload w = make();
  Measurer measurer(w.machine);
  GbdtCostModel gbdt;
  TimingCostModel model(&gbdt);
  TaskSchedulerOptions options;
  options.measures_per_round = b.trials;
  options.seed = DeriveSeed(seed, 1);
  options.search = SearchFor(b, seed);
  options.search.sampler.gpu = w.gpu;
  options.search.thread_pool = cfg.pool;
  options.search.tracer = setup_span.child();  // sketch spans
  const Clock::time_point sketch_start = Clock::now();
  TaskScheduler scheduler(w.tasks, w.networks, Objective::SumLatency(), &measurer, &model,
                          options);
  r->layer["sketch.s"] += Since(sketch_start);
  setup_span.Finish();
  r->setup_s.push_back(Since(start));

  double pick_s = 0.0, plan_s = 0.0, batch_s = 0.0, commit_s = 0.0;
  int64_t candidates = 0, valid = 0, invalid = 0, cancelled = 0;
  double target_s = kInf;
  const Clock::time_point tune_start = Clock::now();
  TraceSpan tune_span(root, "tune", "bench");
  for (int round = 0; round < b.rounds; ++round) {
    const Clock::time_point round_start = Clock::now();
    TraceSpan round_span(tune_span.child().WithRound(round), "round", "bench");
    const Tracer in_round = round_span.child().WithRound(round);
    int pick = 0;
    {
      CallTimer timer(in_round, "scheduler.pick", &pick_s);
      pick = scheduler.NextTask();
    }
    TaskTuner* tuner = scheduler.tuners()[static_cast<size_t>(pick)].get();
    // Nests the tuner's own spans under the benchmark's call span.
    auto attribute = [&](const CallTimer& timer) {
      tuner->set_tracer(timer.child().WithTask(pick).WithRound(round));
    };
    const double before = tuner->best_seconds();
    PlannedRound planned;
    {
      CallTimer timer(in_round, "search.plan", &plan_s);
      attribute(timer);
      planned = tuner->PlanRound(b.trials);
    }
    std::vector<MeasureResult> results;
    {
      CallTimer timer(in_round, "hwsim.measure", &batch_s);
      attribute(timer);
      results = tuner->SubmitPlannedRound(planned, cfg.pool).Wait();
    }
    candidates += static_cast<int64_t>(planned.to_measure.size());
    for (const MeasureResult& m : results) {
      valid += m.valid ? 1 : 0;
      cancelled += m.cancelled ? 1 : 0;
      invalid += !m.valid && !m.cancelled ? 1 : 0;
    }
    double after = 0.0;
    {
      CallTimer timer(in_round, "search.commit", &commit_s);
      attribute(timer);
      after = tuner->CommitRound(std::move(planned), results);
    }
    {
      CallTimer timer(in_round, "scheduler.record", &pick_s);
      scheduler.RecordRound(pick, before, after);
    }
    round_span.Finish();
    r->round_ms.push_back(1e3 * Since(round_start));
    const double objective_ms = 1e3 * scheduler.ObjectiveValue();
    if (target_s == kInf && objective_ms <= cfg.target_ms) {
      target_s = Since(tune_start);
    }
    // Halfway through the rounds that follow the warm-up pass (one round
    // per task): the objective targets.json calibrates time_to_target_s on.
    const int tasks = static_cast<int>(w.tasks.size());
    if (round + 1 == tasks + (b.rounds - tasks) / 2) {
      r->calibration_ms.push_back(objective_ms);
    }
  }
  tune_span.Finish();
  r->tune_wall_s += Since(tune_start);
  r->target_s.push_back(target_s);

  // Trial accounting: what the benchmark saw come back must match what the
  // tuners committed and what the measurer ran.
  int64_t tuner_trials = 0, tuner_invalid = 0, tuner_cancelled = 0, rejected = 0;
  std::map<std::string, double>& layer = r->layer;
  for (const auto& tuner : scheduler.tuners()) {
    tuner_trials += tuner->total_measures();
    tuner_invalid += tuner->invalid_measures();
    tuner_cancelled += tuner->cancelled_measures();
    rejected += tuner->statically_rejected();
    r->best_seconds.push_back(tuner->best_seconds());
    const EvolutionStats& evo = tuner->evolution_stats();
    layer["evolution.child_attempts"] += static_cast<double>(evo.child_attempts);
    layer["evolution.children"] += static_cast<double>(evo.children_generated);
    layer["evolution.crossover_score_hits"] += static_cast<double>(evo.crossover_score_hits);
    layer["evolution.crossover_score_misses"] +=
        static_cast<double>(evo.crossover_score_misses);
    ProgramCacheStats cache = tuner->program_cache().stats();
    layer["program.cache_hits"] += static_cast<double>(cache.hits);
    layer["program.cache_misses"] += static_cast<double>(cache.misses);
    layer["program.cache_evictions"] += static_cast<double>(cache.evictions);
    layer["program.cross_client_hits"] += static_cast<double>(cache.cross_client_hits);
  }
  const int64_t trials = valid + invalid;
  if (tuner_trials != trials || measurer.trial_count() != trials) {
    Fail(r, "trial accounting: tuners " + std::to_string(tuner_trials) + ", measurer " +
                std::to_string(measurer.trial_count()) + ", results " + std::to_string(trials));
  }
  if (tuner_invalid != invalid || tuner_cancelled != cancelled) {
    Fail(r, "invalid/cancelled trial accounting differs between tuners and results");
  }
  const double objective = scheduler.ObjectiveValue();
  if (!std::isfinite(objective)) {
    Fail(r, "some task found no valid program");
  }
  r->trials += trials;
  r->trials_failed += invalid + cancelled;
  r->objective_ms.push_back(1e3 * objective);
  layer["scheduler.pick_s"] += pick_s;
  layer["search.plan_s"] += plan_s;
  layer["search.commit_s"] += commit_s;
  layer["search.candidates"] += static_cast<double>(candidates);
  layer["search.statically_rejected"] += static_cast<double>(rejected);
  layer["hwsim.batch_wall_s"] += batch_s;
  layer["hwsim.trials"] += static_cast<double>(trials);
  layer["hwsim.trials_invalid"] += static_cast<double>(invalid);
  model.AddTo(&layer);
}

// ---------------------------------------------------------------------------
// Service workloads: the TuningService owns the round loop; the benchmark
// times Submit/WaitAll and the store calls, and reads each JobReport.

// One tenant: its own device executor, measurer and cost model.
struct Tenant {
  Tenant(const MachineModel& machine, double measure_latency_seconds)
      : device(1), measurer(machine, Options(&device, measure_latency_seconds)), model(&gbdt) {}

  static MeasureOptions Options(ThreadPool* device, double latency) {
    MeasureOptions options;
    options.thread_pool = device;
    options.measure_latency_seconds = latency;
    return options;
  }

  ThreadPool device;
  Measurer measurer;
  GbdtCostModel gbdt;
  TimingCostModel model;
};

JobSpec MakeJob(const Config& cfg, std::string name, std::vector<SearchTask> tasks,
                uint64_t seed, Tenant* tenant) {
  JobSpec spec;
  spec.name = std::move(name);
  NetworkSpec network{spec.name, {}};
  for (size_t i = 0; i < tasks.size(); ++i) {
    network.task_indices.push_back(static_cast<int>(i));
  }
  spec.tasks = std::move(tasks);
  spec.networks = {network};
  spec.objective = Objective::SumLatency();
  spec.options.measures_per_round = cfg.budget.trials;
  spec.options.seed = DeriveSeed(seed, 1);
  spec.options.search = SearchFor(cfg.budget, seed);
  spec.total_rounds = cfg.budget.rounds;
  spec.measurer = &tenant->measurer;
  spec.model = &tenant->model;
  return spec;
}

// Checks one finished job and adds its report to the repeat's totals.
void AddJob(const JobHandle& handle, const Tenant& tenant, RunResult* r) {
  const JobReport& report = handle.report();
  if (report.status != JobStatus::kCompleted) {
    Fail(r, "job " + handle.name() + " finished " + JobStatusName(report.status));
  }
  if (report.trials != tenant.measurer.trial_count() ||
      report.trials_valid + report.trials_invalid != report.trials) {
    Fail(r, "job " + handle.name() + " trial accounting does not add up");
  }
  if (std::fabs(report.queue_seconds + report.run_seconds - report.turnaround_seconds) >
      1e-9 * std::max(1.0, report.turnaround_seconds)) {
    Fail(r, "job " + handle.name() + ": queue + run != turnaround");
  }
  r->best_seconds.insert(r->best_seconds.end(), report.best_seconds.begin(),
                         report.best_seconds.end());
  r->trials += report.trials;
  r->trials_failed += report.trials_invalid + report.trials_cancelled;
  r->turnaround_s.push_back(report.turnaround_seconds);
  std::map<std::string, double>& layer = r->layer;
  const SearchPhaseTimes& phases = report.phases;
  layer["sketch.s"] += phases.sketch_seconds;
  layer["search.plan_s"] += phases.search_seconds;
  layer["search.commit_s"] += phases.commit_seconds;
  layer["hwsim.batch_wall_s"] += phases.measure_wall_seconds;
  layer["hwsim.trials"] += static_cast<double>(report.trials);
  layer["hwsim.trials_invalid"] += static_cast<double>(report.trials_invalid);
  layer["service.job_run_s"] += report.run_seconds;
  layer["service.job_queue_s"] += report.queue_seconds;
  layer["service.search_s"] += phases.search_seconds;
  layer["service.measure_wall_s"] += phases.measure_wall_seconds;
  layer["service.commit_s"] += phases.commit_seconds;
  layer["service.overlap_s"] += phases.overlap_seconds;
  tenant.model.AddTo(&layer);
}

void AddSharedCaches(const TuningService& service, RunResult* r) {
  ProgramCacheStats cache = service.SharedCacheStats();
  r->layer["program.cache_hits"] += static_cast<double>(cache.hits);
  r->layer["program.cache_misses"] += static_cast<double>(cache.misses);
  r->layer["program.cache_evictions"] += static_cast<double>(cache.evictions);
  r->layer["program.cross_client_hits"] += static_cast<double>(cache.cross_client_hits);
}

// Four concurrent jobs, each tuning the same two matmuls under one
// similarity tag (so they share one program cache across jobs), each with
// its own single-thread device whose emulated occupancy makes measurement
// the bottleneck.
constexpr int kFleetJobs = 4;

std::vector<SearchTask> FleetTasks() {
  return {MakeSearchTask("mm_64x64x64", MakeMatmul(64, 64, 64), 1, "mm"),
          MakeSearchTask("mm_64x32x64", MakeMatmul(64, 32, 64), 1, "mm")};
}

// `first`: the first repeat also checks the best programs on the interpreter.
void RunFleetSession(const Config& cfg, uint64_t seed, TraceSink* sink, bool first,
                     RunResult* r) {
  const Clock::time_point start = Clock::now();
  const Tracer root = sink != nullptr ? Tracer(sink, nullptr) : Tracer();
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<JobSpec> specs;
  for (int j = 0; j < kFleetJobs; ++j) {
    tenants.push_back(std::make_unique<Tenant>(MachineModel::IntelCpu20Core(),
                                               cfg.smoke ? 0.001 : 0.004));
    specs.push_back(MakeJob(cfg, "job" + std::to_string(j), FleetTasks(),
                            DeriveSeed(seed, static_cast<uint64_t>(j)), tenants.back().get()));
  }
  const std::vector<SearchTask> tasks = specs[0].tasks;  // the same in every job
  RecordStore store;
  TuningServiceOptions options;
  options.num_workers = cfg.threads;
  options.max_concurrent_jobs = kFleetJobs;
  options.record_store = &store;
  options.trace_sink = sink;
  TuningService service(options);
  r->setup_s.push_back(Since(start));

  const Clock::time_point tune_start = Clock::now();
  std::vector<JobHandle> handles;
  {
    CallTimer timer(root, "service.submit", &r->layer["service.submit_s"]);
    for (JobSpec& spec : specs) {
      handles.push_back(service.Submit(std::move(spec)));
    }
  }
  {
    CallTimer timer(root, "service.wait", &r->layer["service.wait_s"]);
    service.WaitAll();
  }
  r->tune_wall_s += Since(tune_start);

  double objective = 0.0;
  for (size_t j = 0; j < handles.size(); ++j) {
    AddJob(handles[j], *tenants[j], r);
    objective += handles[j].report().objective_value;
  }
  r->objective_ms.push_back(1e3 * objective);
  AddSharedCaches(service, r);
  // The fleet record store holds each task's best program over all jobs. It
  // must match the best the jobs reported, and it must compute what the
  // naive DAG computes (interpreter check; fast enough only for small DAGs).
  for (size_t t = 0; t < tasks.size(); ++t) {
    double jobs_best = kInf;
    for (const JobHandle& handle : handles) {
      jobs_best = std::min(jobs_best, handle.report().best_seconds[t]);
    }
    std::optional<TuningRecord> best = store.BestFor(tasks[t].task_id());
    if (!best.has_value() || best->seconds != jobs_best) {
      Fail(r, "record store best differs from the jobs' best on " + tasks[t].name);
    } else if (first) {
      std::string mismatch = VerifyAgainstNaive(store.ReplayBest(tasks[t].dag.get()));
      if (!mismatch.empty()) {
        Fail(r, "best program of " + tasks[t].name + " is wrong: " + mismatch);
      }
    }
  }
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? -1 : static_cast<int64_t>(size);
}

// MobileNet-V2 on a service with a record store: a cold incarnation, then
// SaveWarmState + RecordStore::SaveToFile, then a new service that loads
// both and re-runs the same job. Set-up is the restart gap; the measured
// tuning is the warm incarnation.
void RunWarmRestartSession(const Config& cfg, uint64_t seed, TraceSink* sink, bool /*first*/,
                           RunResult* r) {
  const Tracer root = sink != nullptr ? Tracer(sink, nullptr) : Tracer();
  const std::string artifacts_path = cfg.out_dir + "/warm-restart.artifacts.bin";
  const std::string records_path = cfg.out_dir + "/warm-restart.records.bin";
  TuningServiceOptions options;
  options.num_workers = cfg.threads;
  // Both incarnations are traced: the warm one compiles nothing, so the
  // builds, lowering and verification in a warm-restart trace are the cold
  // incarnation's.
  options.trace_sink = sink;

  // Cold incarnation (not timed).
  Tenant cold_tenant(MachineModel::IntelCpu20Core(), 0.0);
  auto cold_store = std::make_unique<RecordStore>();
  options.record_store = cold_store.get();
  auto cold = std::make_unique<TuningService>(options);
  JobHandle cold_job =
      cold->Submit(MakeJob(cfg, "mobilenet-v2", MobileNetV2Tasks(1).tasks, seed, &cold_tenant));
  cold->WaitAll();
  const JobReport cold_report = cold_job.report();

  double save_s = 0.0, load_s = 0.0;
  {
    CallTimer timer(root, "store.save", &save_s);
    if (!cold->SaveWarmState(artifacts_path) || !cold_store->SaveToFile(records_path)) {
      Fail(r, "cannot write the warm state under " + cfg.out_dir);
    }
  }
  cold.reset();  // the restart: the old incarnation is gone
  cold_store.reset();

  Tenant tenant(MachineModel::IntelCpu20Core(), 0.0);
  RecordStore store;
  std::unique_ptr<TuningService> warm;
  {
    CallTimer timer(root, "store.load", &load_s);
    if (!store.LoadFromFile(records_path).ok) {
      Fail(r, "cannot load " + records_path);
    }
    options.record_store = &store;
    options.warm_start_path = artifacts_path;
    warm = std::make_unique<TuningService>(options);
  }
  if (!warm->warm_start_stats().ok) {
    Fail(r, "cannot load " + artifacts_path);
  }
  r->setup_s.push_back(save_s + load_s);

  const Clock::time_point tune_start = Clock::now();
  JobHandle job;
  {
    CallTimer timer(root, "service.submit", &r->layer["service.submit_s"]);
    job = warm->Submit(MakeJob(cfg, "mobilenet-v2", MobileNetV2Tasks(1).tasks, seed, &tenant));
  }
  {
    CallTimer timer(root, "service.wait", &r->layer["service.wait_s"]);
    warm->WaitAll();
  }
  r->tune_wall_s += Since(tune_start);

  AddJob(job, tenant, r);
  if (job.report().best_seconds != cold_report.best_seconds) {
    Fail(r, "warm best latencies differ from the cold incarnation's");
  }
  r->objective_ms.push_back(1e3 * job.report().objective_value);
  AddSharedCaches(*warm, r);
  ProgramCacheStats cache = warm->SharedCacheStats();
  std::map<std::string, double>& layer = r->layer;
  layer["service.cold_run_s"] += cold_report.run_seconds;
  layer["store.save_s"] += save_s;
  layer["store.load_s"] += load_s;
  layer["store.artifact_bytes"] += static_cast<double>(FileBytes(artifacts_path));
  layer["store.record_bytes"] += static_cast<double>(FileBytes(records_path));
  layer["store.warm_inserts"] += static_cast<double>(cache.warm_inserts);
  layer["store.warm_misses"] += static_cast<double>(cache.misses);
}

// ---------------------------------------------------------------------------
// The workloads.

void RunResnetMbv2Session(const Config& cfg, uint64_t seed, TraceSink* sink, bool /*first*/,
                          RunResult* r) {
  RunStepSession(cfg, seed, MakeResnetMbv2, sink, r);
}

void RunC2dGpuSession(const Config& cfg, uint64_t seed, TraceSink* sink, bool /*first*/,
                      RunResult* r) {
  RunStepSession(cfg, seed, MakeC2dGpu, sink, r);
}

struct Workload {
  const char* name;
  bool service;
  Budget full;
  Budget smoke;
  // Runs one session; `first` is true throughout the first repeat.
  void (*session)(const Config& cfg, uint64_t seed, TraceSink* sink, bool first, RunResult* r);
};

// Budgets: sessions per repeat, rounds, trials per round, population,
// generations, fresh samples per round. The step-driven ResNet/MobileNet
// workload needs 23 warm-up rounds before the gradient picks start.
constexpr Workload kWorkloads[] = {
    {"resnet50-mbv2", false, {9, 28, 8, 32, 2, 12}, {1, 23, 4, 8, 1, 4}, RunResnetMbv2Session},
    {"c2d-gpu", false, {8, 20, 8, 64, 4, 24}, {1, 4, 4, 16, 1, 4}, RunC2dGpuSession},
    {"fleet-4job", true, {4, 30, 8, 24, 2, 12}, {1, 4, 4, 8, 1, 4}, RunFleetSession},
    {"warm-restart", true, {7, 20, 8, 32, 2, 12}, {1, 12, 4, 8, 1, 4}, RunWarmRestartSession},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Per-layer metrics: ratios of the summed counts, and the trace fold.

void Finish(const Config& cfg, bool service, RunResult* r) {
  std::map<std::string, double>& layer = r->layer;
  std::map<std::string, double>& e2e = r->e2e;
  e2e["tune_wall_s"] = r->tune_wall_s;
  e2e["trials_per_s"] = Ratio(static_cast<double>(r->trials), r->tune_wall_s);
  e2e["best_latency_ms"] = Median(r->objective_ms);
  if (cfg.target_ms > 0.0 && std::isfinite(Median(r->target_s))) {
    e2e["time_to_target_s"] = Median(r->target_s);
  }
  if (service) {
    e2e["job_turnaround_p50_s"] = Percentile(r->turnaround_s, 0.50);
    e2e["job_turnaround_max_s"] = Percentile(r->turnaround_s, 1.0);
  }
  if (!r->round_ms.empty()) {
    layer["search.round_ms.p50"] = Percentile(r->round_ms, 0.50);
    layer["search.round_ms.p75"] = Percentile(r->round_ms, 0.75);
  }
  layer["evolution.accept_ratio"] =
      Ratio(layer["evolution.children"], layer["evolution.child_attempts"]);
  layer["evolution.crossover_score_hit_rate"] =
      Ratio(layer["evolution.crossover_score_hits"],
            layer["evolution.crossover_score_hits"] + layer["evolution.crossover_score_misses"]);
  layer["program.cache_hit_rate"] =
      Ratio(layer["program.cache_hits"],
            layer["program.cache_hits"] + layer["program.cache_misses"]);
  if (service) {
    layer["service.overlap_fraction"] =
        Ratio(layer["service.overlap_s"], layer["service.measure_wall_s"]);
  }
}

double ArgNumber(const TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) {
      return std::strtod(v.c_str(), nullptr);
    }
  }
  return 0.0;
}

void AddTraceLayers(bool service, double untraced_tune_wall_s,
                    const std::vector<TraceEvent>& events, RunResult* traced) {
  // Count and busy seconds (summed durations) per span name.
  std::map<std::string, PhaseTotal> phases;
  for (PhaseTotal& phase : FoldEvents(events).phases) {
    phases[phase.name] = std::move(phase);
  }
  std::map<std::string, double> self = SelfSeconds(events);
  std::map<std::string, double>& layer = traced->layer;
  // Evolution's own work (selection, mutation, crossover), excluding the
  // artifact builds and predictions nested under its generations.
  layer["evolution.self_s"] = self["evolution"] + self["generation"];
  layer["program.build_busy_s"] = phases["artifact_build"].seconds;
  layer["lower.busy_s"] = phases["lower"].seconds;
  layer["lower.count"] = static_cast<double>(phases["lower"].count);
  layer["features.busy_s"] = phases["extract_features"].seconds;
  layer["features.count"] = static_cast<double>(phases["extract_features"].count);
  const PhaseTotal& structural = phases["verify_structural"];
  const PhaseTotal& resources = phases["verify_resources"];
  layer["analysis.verify_busy_s"] = structural.seconds + resources.seconds;
  layer["analysis.verify_count"] = static_cast<double>(structural.count + resources.count);
  double rejected = 0.0, queue = 0.0;
  for (const TraceEvent& e : events) {
    if (e.name == "verify_structural") {
      for (const auto& [k, v] : e.args) {
        rejected += k == "outcome" && v != "\"legal\"" ? 1.0 : 0.0;
      }
    } else if (e.name == "measure_trial") {
      queue += ArgNumber(e, "queue_seconds");
    } else if (service && e.name == "round" && e.category == "service") {
      traced->round_ms.push_back(1e3 * e.duration_seconds());
    }
  }
  layer["analysis.rejected"] = rejected;
  layer["hwsim.trial_busy_s"] = phases["measure_trial"].seconds;
  layer["hwsim.queue_s"] = queue;
  layer["telemetry.overhead_frac"] = traced->tune_wall_s / untraced_tune_wall_s - 1.0;
  layer["telemetry.spans"] = static_cast<double>(events.size());
  // Share of the tuning wall time that the library's own spans attribute:
  // on step-driven workloads the spans nested directly under the
  // benchmark's call spans, on service workloads the rounds of each job.
  double covered = 0.0;
  double wall = 0.0;
  if (service) {
    covered = CoveredSeconds(events, "job");
    wall = phases["job"].seconds;
  } else {
    for (const char* call :
         {"scheduler.pick", "search.plan", "hwsim.measure", "search.commit", "scheduler.record"}) {
      covered += CoveredSeconds(events, call);
    }
    wall = phases["tune"].seconds;
  }
  layer["telemetry.coverage"] = Ratio(covered, wall);
  for (const auto& [name, seconds] : self) {
    if (seconds < 0.0) {
      Fail(traced, "negative self time in layer " + name);
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"tune_wall_s", "s"},
    {"trials_per_s", "1/s"},
    {"time_to_target_s", "s"},
    {"best_latency_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"failed_trial_frac", "ratio"},
    {"job_turnaround_p50_s", "s"},
    {"job_turnaround_max_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"scheduler.pick_s", "s"},
    {"search.plan_s", "s"},
    {"search.commit_s", "s"},
    {"search.round_ms.p50", "ms"},
    {"search.round_ms.p75", "ms"},
    {"search.candidates", "count"},
    {"search.statically_rejected", "count"},
    {"sketch.s", "s"},
    {"evolution.self_s", "s"},
    {"evolution.child_attempts", "count"},
    {"evolution.children", "count"},
    {"evolution.accept_ratio", "ratio"},
    {"evolution.crossover_score_hit_rate", "ratio"},
    {"program.cache_hits", "count"},
    {"program.cache_misses", "count"},
    {"program.cache_hit_rate", "ratio"},
    {"program.cache_evictions", "count"},
    {"program.cross_client_hits", "count"},
    {"program.build_busy_s", "s"},
    {"lower.busy_s", "s"},
    {"lower.count", "count"},
    {"features.busy_s", "s"},
    {"features.count", "count"},
    {"analysis.verify_busy_s", "s"},
    {"analysis.verify_count", "count"},
    {"analysis.rejected", "count"},
    {"costmodel.train_s", "s"},
    {"costmodel.train_calls", "count"},
    {"costmodel.train_samples", "count"},
    {"costmodel.train_rows", "count"},
    {"costmodel.tree_nodes", "count"},
    {"costmodel.predict_busy_s", "s"},
    {"costmodel.programs_predicted", "count"},
    {"hwsim.batch_wall_s", "s"},
    {"hwsim.trial_busy_s", "s"},
    {"hwsim.queue_s", "s"},
    {"hwsim.trials", "count"},
    {"hwsim.trials_invalid", "count"},
    {"service.submit_s", "s"},
    {"service.wait_s", "s"},
    {"service.job_run_s", "s"},
    {"service.job_queue_s", "s"},
    {"service.search_s", "s"},
    {"service.measure_wall_s", "s"},
    {"service.commit_s", "s"},
    {"service.overlap_fraction", "ratio"},
    {"service.cold_run_s", "s"},
    {"store.save_s", "s"},
    {"store.load_s", "s"},
    {"store.artifact_bytes", "bytes"},
    {"store.record_bytes", "bytes"},
    {"store.warm_inserts", "count"},
    {"store.warm_misses", "count"},
    {"telemetry.overhead_frac", "ratio"},
    {"telemetry.spans", "count"},
    {"telemetry.coverage", "ratio"},
};

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Summary {
  double median = 0.0, min = 0.0, max = 0.0;
  size_t n = 0;
};

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (!values.empty()) {
    s.median = Median(values);
    s.min = *std::min_element(values.begin(), values.end());
    s.max = *std::max_element(values.begin(), values.end());
  }
  return s;
}

// Median (with min and max) over the repeats that measured `name`.
Summary Over(const std::vector<RunResult>& runs, const std::string& name, bool e2e) {
  std::vector<double> values;
  for (const RunResult& run : runs) {
    const auto& metrics = e2e ? run.e2e : run.layer;
    auto it = metrics.find(name);
    if (it != metrics.end()) {
      values.push_back(it->second);
    }
  }
  return Summarize(values);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

RunResult RunRepeat(const Config& cfg, const Workload& workload, TraceSink* sink,
                    bool first) {
  RunResult r;
  for (int s = 0; s < cfg.budget.sessions; ++s) {
    workload.session(cfg, DeriveSeed(cfg.seed, 1000 + static_cast<uint64_t>(s)), sink, first, &r);
  }
  return r;
}

int Run(const Config& cfg, const Workload& workload) {
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "e2e_tune: cannot create %s: %s\n", cfg.out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::printf("workload %s  seed %llu  threads %d  sessions/repeat %d  budget %.3g s%s\n",
              workload.name, static_cast<unsigned long long>(cfg.seed), cfg.threads,
              cfg.budget.sessions, cfg.seconds, cfg.smoke ? "  (smoke)" : "");
  std::fflush(stdout);

  // Untraced repeats until the next one, plus the traced repeat when there
  // is one, would overrun --seconds.
  const size_t min_untraced = cfg.smoke || cfg.trace ? 1 : 2;
  const double still_to_run = cfg.trace ? 2.0 : 1.0;  // repeats, counting the next
  std::vector<RunResult> runs;
  const Clock::time_point start = Clock::now();
  while (true) {
    runs.push_back(RunRepeat(cfg, workload, nullptr, runs.empty()));
    Finish(cfg, workload.service, &runs.back());
    std::printf("  repeat %zu: tune %.3f s, median session setup %.4f s\n", runs.size(),
                runs.back().tune_wall_s, Median(runs.back().setup_s));
    std::fflush(stdout);
    const double elapsed = Since(start);
    if (runs.size() >= min_untraced &&
        elapsed + still_to_run * elapsed / static_cast<double>(runs.size()) > cfg.seconds) {
      break;
    }
  }
  const double peak_rss_mb = PeakRssMb();
  int64_t trials = 0, failed = 0;
  for (const RunResult& run : runs) {
    trials += run.trials;
    failed += run.trials_failed;
  }
  const size_t untraced = runs.size();
  const double untraced_tune_s = Over(runs, "tune_wall_s", true).median;

  std::vector<std::string> errors;
  if (cfg.trace) {
    TraceSink sink;
    runs.push_back(RunRepeat(cfg, workload, &sink, false));
    AddTraceLayers(workload.service, untraced_tune_s, sink.Snapshot(), &runs.back());
    Finish(cfg, workload.service, &runs.back());
    const std::string trace_path = cfg.out_dir + "/" + workload.name + ".trace.jsonl";
    if (!sink.SaveToFile(trace_path)) {
      errors.push_back("cannot write " + trace_path);
    }
  }

  // Correctness: every repeat passed its own checks, and every repeat —
  // traced or not — found bit-identical per-task best latencies.
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].error.empty()) {
      errors.push_back("repeat " + std::to_string(i + 1) + ": " + runs[i].error);
    }
    if (runs[i].best_seconds != runs[0].best_seconds) {
      errors.push_back("repeat " + std::to_string(i + 1) +
                       ": per-task best latencies differ from repeat 1");
    }
  }

  const std::vector<RunResult> timed(runs.begin(), runs.begin() + static_cast<long>(untraced));
  std::map<std::string, Summary> e2e;
  for (const MetricDef& def : kEndToEnd) {
    Summary s = Over(timed, def.name, true);
    if (s.n > 0) {
      e2e[def.name] = s;
    }
  }
  // Set-up is timed once per session: the median over every session set-up
  // of the untraced repeats.
  std::vector<double> setups;
  for (const RunResult& run : timed) {
    setups.insert(setups.end(), run.setup_s.begin(), run.setup_s.end());
  }
  e2e["setup_s"] = Summarize(setups);
  e2e["peak_rss_mb"] = Summarize({peak_rss_mb});
  e2e["failed_trial_frac"] =
      Summarize({Ratio(static_cast<double>(failed), static_cast<double>(trials))});
  // Per-layer values: medians over the untraced repeats where those measure
  // the layer, else the traced repeat's (busy/self times, span counts).
  std::map<std::string, double> layers;
  for (const MetricDef& def : kPerLayer) {
    Summary s = Over(timed, def.name, false);
    layers[def.name] = s.n > 0 ? s.median : cfg.trace ? runs.back().layer[def.name] : 0.0;
  }
  // The loosest session objective halfway through the post-warm-up rounds;
  // targets.json holds the loosest such value over the calibration seeds.
  const std::vector<double>& calibration = runs[0].calibration_ms;
  const double calibration_ms =
      calibration.empty() ? 0.0 : *std::max_element(calibration.begin(), calibration.end());

  std::printf("end-to-end (median [min, max] over %zu untraced repeats)\n", untraced);
  for (const MetricDef& def : kEndToEnd) {
    auto it = e2e.find(def.name);
    if (it != e2e.end()) {
      std::printf("  %-26s %14.6g %-6s [%.6g, %.6g]\n", def.name, it->second.median, def.unit,
                  it->second.min, it->second.max);
    }
  }
  if (cfg.target_ms > 0.0 && e2e.count("time_to_target_s") == 0) {
    std::printf("  time_to_target_s: most sessions never reached %.6g ms\n", cfg.target_ms);
  }
  std::printf("per-layer (per repeat%s)\n",
              cfg.trace ? "; busy, self and span metrics from the traced repeat" : "");
  for (const MetricDef& def : kPerLayer) {
    std::printf("  %-34s %14.6g %s\n", def.name, layers[def.name], def.unit);
  }
  if (calibration_ms > 0.0) {
    std::printf("  loosest session objective halfway through the rounds: %.17g ms\n",
                calibration_ms);
  }
  for (const std::string& e : errors) {
    std::printf("CORRECTNESS FAILURE: %s\n", e.c_str());
  }

  std::string json = "{\"workload\":" + Quote(workload.name) +
                     ",\"seed\":" + std::to_string(cfg.seed) +
                     ",\"correct\":" + (errors.empty() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(trials) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"repeats\":" + std::to_string(untraced) +
                     ",\"calibration_objective_ms\":" + Num(calibration_ms) + ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    json += (i > 0 ? "," : "") + Quote(errors[i]);
  }
  json += "],\"end_to_end\":{";
  bool first = true;
  for (const MetricDef& def : kEndToEnd) {
    auto it = e2e.find(def.name);
    if (it == e2e.end()) {
      continue;
    }
    json += std::string(first ? "" : ",") + Quote(def.name) + ":{\"value\":" +
            Num(it->second.median) + ",\"unit\":" + Quote(def.unit) +
            ",\"min\":" + Num(it->second.min) + ",\"max\":" + Num(it->second.max) + "}";
    first = false;
  }
  json += "},\"per_layer\":{";
  first = true;
  for (const MetricDef& def : kPerLayer) {
    json += std::string(first ? "" : ",") + Quote(def.name) + ":{\"value\":" +
            Num(layers[def.name]) + ",\"unit\":" + Quote(def.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_tune --workload resnet50-mbv2|c2d-gpu|fleet-4job|warm-restart\n"
               "                [--seed N] [--seconds S] [--trace 0|1] [--target-ms T]\n"
               "                [--smoke] [--out DIR]\n"
               "       e2e_tune --selftest\n");
  return 2;
}

}  // namespace
}  // namespace e2e
}  // namespace ansor

int main(int argc, char** argv) {
  using namespace ansor::e2e;
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      int failures = SelfTest();
      std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value);
    } else if (arg == "--trace") {
      cfg.trace = std::atoi(value) != 0;
    } else if (arg == "--target-ms") {
      cfg.target_ms = std::atof(value);
    } else if (arg == "--out") {
      cfg.out_dir = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = FindWorkload(cfg.workload);
  if (workload == nullptr) {
    return Usage();
  }
  cfg.budget = cfg.smoke ? workload->smoke : workload->full;
  if (cfg.smoke) {
    cfg.seconds = 0.0;
  }
  // Keep freed memory in the process. Otherwise how much one session handed
  // back to the OS decides how many page faults the next one takes: the same
  // ResNet/MobileNet set-up measured 1.5 ms or 8 ms depending on it.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  cfg.threads = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  ansor::ThreadPool pool(static_cast<size_t>(cfg.threads));
  cfg.pool = &pool;
  return Run(cfg, *workload);
}
