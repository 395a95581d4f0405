#include "src/service/tuning_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

namespace ansor {

const char* JobStatusName(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kDeadlineExceeded: return "deadline_exceeded";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

// One entry of the metrics snapshot. Counters and gauges carry `value`;
// histograms carry their observations in `samples`.
struct MetricRow {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind;
  const char* name;
  const char* unit;
  double value = 0.0;
  std::vector<double> samples;
};

// Nearest-rank quantile of ascending `sorted`: the value at 1-based rank
// ceil(q * n), at least 1. 0 when empty.
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(std::max<size_t>(rank, 1), sorted.size()) - 1];
}

// Serializes `rows` into the snapshot's three sections, each in row order.
std::string MetricsJson(std::vector<MetricRow> rows) {
  std::string sections[3];
  for (MetricRow& row : rows) {
    std::string& out = sections[static_cast<int>(row.kind)];
    out += out.empty() ? "{\"name\":" : ",{\"name\":";
    out += JsonString(row.name);
    if (row.kind != MetricRow::Kind::kHistogram) {
      out += ",\"value\":" + JsonNumber(row.value) + ",\"unit\":" + JsonString(row.unit) + "}";
      continue;
    }
    std::vector<double>& v = row.samples;
    std::sort(v.begin(), v.end());
    const double sum = std::accumulate(v.begin(), v.end(), 0.0);
    const double n = static_cast<double>(v.size());
    out += ",\"unit\":" + JsonString(row.unit) + ",\"count\":" + JsonNumber(n) +
           ",\"sum\":" + JsonNumber(sum) + ",\"mean\":" + JsonNumber(v.empty() ? 0.0 : sum / n) +
           ",\"min\":" + JsonNumber(v.empty() ? 0.0 : v.front()) +
           ",\"max\":" + JsonNumber(v.empty() ? 0.0 : v.back()) +
           ",\"p50\":" + JsonNumber(NearestRank(v, 0.50)) +
           ",\"p95\":" + JsonNumber(NearestRank(v, 0.95)) +
           ",\"p99\":" + JsonNumber(NearestRank(v, 0.99)) + "}";
  }
  return "{\"counters\":[" + sections[0] + "],\"gauges\":[" + sections[1] +
         "],\"histograms\":[" + sections[2] + "]}";
}

}  // namespace

// Internal per-job state, jointly owned by the service and every JobHandle.
struct JobState {
  int64_t id = 0;
  JobSpec spec;
  // Reading of the service clock at Submit (the origin every report latency
  // is measured from).
  int64_t submit_nanos = 0;
  std::atomic<bool> cancel{false};

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;  // guarded by mu
  JobReport report;                       // guarded by mu; final once terminal

  void SetStatus(JobStatus s) {
    std::lock_guard<std::mutex> lock(mu);
    status = s;
  }
  void Finish(JobReport final_report) {
    {
      std::lock_guard<std::mutex> lock(mu);
      report = std::move(final_report);
      status = report.status;
    }
    cv.notify_all();
  }
};

int64_t JobHandle::id() const {
  CHECK(state_ != nullptr);
  return state_->id;
}

const std::string& JobHandle::name() const {
  CHECK(state_ != nullptr);
  return state_->spec.name;
}

JobStatus JobHandle::status() const {
  CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

bool JobHandle::Wait(double timeout_seconds) const {
  CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  auto terminal = [&] { return IsTerminal(state_->status); };
  if (std::isfinite(timeout_seconds)) {
    return state_->cv.wait_for(lock, std::chrono::duration<double>(
                                         std::max(0.0, timeout_seconds)),
                               terminal);
  }
  state_->cv.wait(lock, terminal);
  return true;
}

void JobHandle::Cancel() {
  CHECK(state_ != nullptr);
  state_->cancel.store(true, std::memory_order_release);
}

const JobReport& JobHandle::report() const {
  CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  CHECK(IsTerminal(state_->status)) << "JobHandle::report() before the job finished";
  return state_->report;
}

TuningService::TuningService(TuningServiceOptions options)
    : options_(std::move(options)),
      clock_(MonotonicClock::OrReal(options_.clock)),
      workers_(static_cast<size_t>(std::max(0, options_.num_workers))) {
  if (!options_.warm_start_path.empty()) {
    TraceSpan load(Tracer(options_.trace_sink, clock_), "store_load", "store");
    warm_start_stats_ = warm_store_.LoadFromFile(options_.warm_start_path);
    if (load.enabled()) {
      load.Arg("count", static_cast<int64_t>(warm_start_stats_.loaded));
    }
  }
  int drivers = std::max(1, options_.max_concurrent_jobs);
  drivers_.reserve(static_cast<size_t>(drivers));
  for (int i = 0; i < drivers; ++i) {
    drivers_.emplace_back([this] { DriverLoop(); });
  }
}

TuningService::~TuningService() { Shutdown(); }

ProgramCache* TuningService::SharedCacheForTag(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<ProgramCache>& cache = tag_caches_[tag];
  if (cache == nullptr) {
    cache = std::make_unique<ProgramCache>();
  }
  return cache.get();
}

void TuningService::WarmTagCache(ProgramCache* cache,
                                 const std::shared_ptr<const ComputeDAG>& dag,
                                 const Tracer* tracer) {
  if (warm_store_.size() == 0 || cache == nullptr || dag == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!warmed_[cache].insert(dag->CanonicalHash()).second) {
      return;  // this (cache, task) pair was already warmed
    }
  }
  // Outside mu_: warming only touches the cache's own shard locks, and a
  // concurrent job hitting the cache mid-warm just sees a prefix of the
  // snapshots — results are invariant either way (artifacts are pure).
  TraceSpan span(tracer, "warm_start", "store");
  size_t installed = warm_store_.WarmCache(cache, dag->CanonicalHash());
  if (span.enabled()) {
    span.Arg("count", static_cast<int64_t>(installed));
  }
}

JobHandle TuningService::Submit(JobSpec spec) {
  CHECK(!spec.tasks.empty()) << "JobSpec needs at least one task";
  CHECK(spec.measurer != nullptr) << "JobSpec needs a measurer";
  CHECK(spec.model != nullptr) << "JobSpec needs a cost model";
  CHECK(!spec.options.per_task_search)
      << "JobSpec must not set per_task_search: the service wires each task's search";
  auto job = std::make_shared<JobState>();
  job->id = next_job_id_.fetch_add(1);
  job->spec = std::move(spec);
  job->submit_nanos = clock_->NowNanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHECK(!shutdown_) << "Submit after Shutdown";
    queue_.push_back(job);
    jobs_.push_back(job);
  }
  cv_.notify_one();
  JobHandle handle;
  handle.state_ = std::move(job);
  return handle;
}

void TuningService::DriverLoop() {
  for (;;) {
    std::shared_ptr<JobState> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with a drained queue
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    RunJob(job.get());
  }
}

void TuningService::RunJob(JobState* job) {
  const int64_t start_nanos = clock_->NowNanos();
  job->SetStatus(JobStatus::kRunning);
  const JobSpec& spec = job->spec;

  // The job's root span: every span the job records — rounds, store phases,
  // and the search/evolution/measure children attributed through the
  // per-round tuner tracer — nests under it, so a trace fold recovers the
  // job's turnaround from its direct children.
  TraceSpan job_span(Tracer(options_.trace_sink, clock_).WithJob(job->id), "job", "service");
  if (job_span.enabled() && !spec.name.empty()) {
    job_span.Arg("name", spec.name);
  }

  // Wire the per-task search options: the shared worker pool, a distinct
  // cache client id per (job, task), and — for nonempty similarity tags —
  // the service-owned shared cache for that tag, unless the job's search
  // options inject a cache of their own.
  const size_t n_tasks = spec.tasks.size();
  std::vector<uint64_t> client_ids(n_tasks);
  std::vector<ProgramCache*> tag_caches(n_tasks, nullptr);
  Tracer warm_tracer = job_span.child();
  for (size_t i = 0; i < n_tasks; ++i) {
    client_ids[i] = next_client_id_.fetch_add(1);
    if (!spec.tasks[i].tag.empty()) {
      tag_caches[i] = SharedCacheForTag(spec.tasks[i].tag);
      // Fleet warm start: seed the shared cache with every persisted
      // artifact of this task before its tuner first touches it.
      WarmTagCache(tag_caches[i], spec.tasks[i].dag,
                   job_span.enabled() ? &warm_tracer : nullptr);
    }
  }
  TaskSchedulerOptions opts = spec.options;
  opts.per_task_search = [&](size_t i, const SearchTask&, SearchOptions* search) {
    search->thread_pool = &workers_;
    search->clock = clock_;  // one clock per service: all timings agree
    search->cache_client_id = client_ids[i];
    if (search->program_cache == nullptr && tag_caches[i] != nullptr) {
      search->program_cache = tag_caches[i];
    }
    if (search->record_store == nullptr) {
      search->record_store = options_.record_store;
    }
  };

  TaskScheduler scheduler(spec.tasks, spec.networks, spec.objective, spec.measurer,
                          spec.model, opts);

  const bool has_deadline = std::isfinite(spec.deadline_seconds);
  const int64_t deadline_nanos =
      has_deadline ? start_nanos + static_cast<int64_t>(spec.deadline_seconds * 1e9)
                   : TaskTuner::kNoDeadline;
  auto past_deadline = [&] { return has_deadline && clock_->NowNanos() >= deadline_nanos; };
  bool deadline_hit = false;
  int rounds = 0;
  while (rounds < spec.total_rounds && !job->cancel.load(std::memory_order_acquire)) {
    if (past_deadline()) {
      deadline_hit = true;
      break;
    }
    TraceSpan round_span(job_span.enabled()
                             ? job_span.child().WithRound(rounds)
                             : Tracer(),
                         "round", "service");
    int pick = scheduler.NextTask();
    TaskTuner* tuner = scheduler.tuners()[static_cast<size_t>(pick)].get();
    if (round_span.enabled()) {
      // "picked_task", not "task": the core attribution already emits a
      // "task" key in args (-1 here — the round span itself spans exactly
      // one task but the pick isn't known at construction).
      round_span.Arg("picked_task", static_cast<int64_t>(pick));
      // Everything the tuner records this round — planning, evolution,
      // features, measurement, commit — nests under this round's span with
      // the (job, task, round) attribution stamped on.
      tuner->set_tracer(round_span.child()
                            .WithTask(static_cast<int64_t>(pick))
                            .WithRound(rounds));
    }
    double before = tuner->best_seconds();
    // While this round's batch measures, other jobs' drivers search on the
    // same pool. A deadline reached mid-batch cancels its unstarted trials.
    double after = tuner->TuneRound(spec.options.measures_per_round, deadline_nanos);
    scheduler.RecordRound(pick, before, after);
    ++rounds;
    rounds_completed_.fetch_add(1, std::memory_order_relaxed);
    if (past_deadline()) {
      deadline_hit = true;
      break;
    }
  }

  const int64_t end_nanos = clock_->NowNanos();
  JobReport report;
  // A job that spent its whole budget is completed even if a cancel or the
  // deadline raced with the final round.
  report.status = rounds >= spec.total_rounds ? JobStatus::kCompleted
                  : deadline_hit              ? JobStatus::kDeadlineExceeded
                                              : JobStatus::kCancelled;
  report.rounds_completed = rounds;
  report.objective_value = scheduler.ObjectiveValue();
  report.allocations = scheduler.allocations();
  report.allocation_trace = scheduler.allocation_trace();
  for (size_t i = 0; i < n_tasks; ++i) {
    const TaskTuner& tuner = *scheduler.tuners()[i];
    report.trials += tuner.total_measures();
    report.trials_invalid += tuner.invalid_measures();
    report.trials_cancelled += tuner.cancelled_measures();
    report.best_seconds.push_back(tuner.best_seconds());
    report.phases.Add(tuner.phase_times());
    ProgramCacheClientStats cs = tuner.program_cache().ClientStats(client_ids[i]);
    report.cache.lookups += cs.lookups;
    report.cache.hits += cs.hits;
    report.cache.cross_client_hits += cs.cross_client_hits;
    if (options_.record_store != nullptr) {
      RecordClientStats rs = options_.record_store->ClientStatsFor(client_ids[i]);
      report.records.appended += rs.appended;
      report.records.deduplicated += rs.deduplicated;
    }
  }
  report.trials_valid = report.trials - report.trials_invalid;
  // All three from the same three clock readings; turnaround is computed as
  // the sum so the identity holds exactly in double arithmetic too.
  report.queue_seconds = SecondsBetween(job->submit_nanos, start_nanos);
  report.run_seconds = SecondsBetween(start_nanos, end_nanos);
  report.turnaround_seconds = report.queue_seconds + report.run_seconds;

  if (job_span.enabled()) {
    job_span.Arg("rounds", static_cast<int64_t>(rounds));
    job_span.Arg("outcome", JobStatusName(report.status));
    job_span.Finish();
  }
  job->Finish(std::move(report));
}

void TuningService::WaitAll() {
  std::vector<std::shared_ptr<JobState>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = jobs_;
  }
  for (const auto& job : snapshot) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] { return IsTerminal(job->status); });
  }
}

void TuningService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ && drivers_.empty()) {
      return;
    }
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& driver : drivers_) {
    driver.join();
  }
  drivers_.clear();
}

std::string TuningService::MetricsSnapshotJson() const {
  std::vector<std::shared_ptr<JobState>> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs = jobs_;
  }
  // Each report is read under its own job's lock with mu_ released, as
  // WaitAll does, so a snapshot never holds both.
  int64_t finished = 0, trials = 0, trials_invalid = 0, trials_cancelled = 0;
  std::vector<double> queue, run, turnaround;
  for (const auto& job : jobs) {
    std::lock_guard<std::mutex> lock(job->mu);
    if (!IsTerminal(job->status)) {
      continue;
    }
    const JobReport& r = job->report;
    ++finished;
    trials += r.trials;
    trials_invalid += r.trials_invalid;
    trials_cancelled += r.trials_cancelled;
    queue.push_back(r.queue_seconds);
    run.push_back(r.run_seconds);
    turnaround.push_back(r.turnaround_seconds);
  }
  const ProgramCacheStats cache = SharedCacheStats();

  using Kind = MetricRow::Kind;
  std::vector<MetricRow> rows;
  auto add = [&rows](Kind kind, const char* name, const char* unit, double value,
                     std::vector<double> samples = {}) {
    rows.push_back(MetricRow{kind, name, unit, value, std::move(samples)});
  };
  add(Kind::kCounter, "service.jobs_submitted", "jobs", static_cast<double>(jobs.size()));
  add(Kind::kCounter, "service.rounds_completed", "rounds",
      static_cast<double>(rounds_completed_.load(std::memory_order_relaxed)));
  add(Kind::kCounter, "service.jobs_finished", "jobs", static_cast<double>(finished));
  add(Kind::kCounter, "service.trials", "trials", static_cast<double>(trials));
  add(Kind::kCounter, "service.trials_invalid", "trials", static_cast<double>(trials_invalid));
  add(Kind::kCounter, "service.trials_cancelled", "trials",
      static_cast<double>(trials_cancelled));
  add(Kind::kGauge, "service.shared_caches", "caches", static_cast<double>(shared_cache_count()));
  add(Kind::kGauge, "service.shared_cache.hits", "count", static_cast<double>(cache.hits));
  add(Kind::kGauge, "service.shared_cache.misses", "count", static_cast<double>(cache.misses));
  add(Kind::kGauge, "service.shared_cache.evictions", "count",
      static_cast<double>(cache.evictions));
  add(Kind::kGauge, "service.shared_cache.cross_client_hits", "count",
      static_cast<double>(cache.cross_client_hits));
  add(Kind::kGauge, "service.shared_cache.warm_inserts", "count",
      static_cast<double>(cache.warm_inserts));
  add(Kind::kGauge, "service.warm_start.loaded", "artifacts",
      static_cast<double>(warm_start_stats_.loaded));
  if (options_.record_store != nullptr) {
    const RecordStoreStats s = options_.record_store->stats();
    add(Kind::kGauge, "store.appended", "count", static_cast<double>(s.appended));
    add(Kind::kGauge, "store.deduplicated", "count", static_cast<double>(s.deduplicated));
    add(Kind::kGauge, "store.improved", "count", static_cast<double>(s.improved));
    add(Kind::kGauge, "store.size", "count",
        static_cast<double>(options_.record_store->size()));
  }
  if (options_.trace_sink != nullptr) {
    add(Kind::kGauge, "trace.spans", "spans", static_cast<double>(options_.trace_sink->size()));
  }
  add(Kind::kHistogram, "job.queue_seconds", "seconds", 0.0, std::move(queue));
  add(Kind::kHistogram, "job.run_seconds", "seconds", 0.0, std::move(run));
  add(Kind::kHistogram, "job.turnaround_seconds", "seconds", 0.0, std::move(turnaround));
  return MetricsJson(std::move(rows));
}

ProgramCacheStats TuningService::SharedCacheStats() const {
  ProgramCacheStats total;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tag, cache] : tag_caches_) {
    ProgramCacheStats s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.cross_client_hits += s.cross_client_hits;
    total.warm_inserts += s.warm_inserts;
  }
  return total;
}

size_t TuningService::shared_cache_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tag_caches_.size();
}

bool TuningService::SaveWarmState(const std::string& path) const {
  TraceSpan span(Tracer(options_.trace_sink, clock_), "store_save", "store");
  ArtifactStore snapshot;
  {
    // Collect the caches under mu_, capture them outside it: CaptureCache
    // only takes per-shard cache locks, which jobs also take — never mu_ —
    // so the order here cannot deadlock with a running job.
    std::vector<const ProgramCache*> caches;
    {
      std::lock_guard<std::mutex> lock(mu_);
      caches.reserve(tag_caches_.size());
      for (const auto& entry : tag_caches_) {
        caches.push_back(entry.second.get());
      }
    }
    for (const ProgramCache* cache : caches) {
      snapshot.CaptureCache(*cache);
    }
  }
  if (span.enabled()) {
    span.Arg("count", static_cast<int64_t>(snapshot.size()));
  }
  return snapshot.SaveToFile(path);
}

}  // namespace ansor
