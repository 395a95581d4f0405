// The Ansor search policy (paper Fig. 4, §4-§5).
//
// One tuning round: sample fresh random programs from the sketches, mix in
// the best measured programs so far as the evolutionary initial population,
// evolve against the learned cost model, measure the top candidates (with an
// epsilon fraction of purely random programs for exploration), and retrain
// the model on the new measurements.
#ifndef ANSOR_SRC_SEARCH_SEARCH_POLICY_H_
#define ANSOR_SRC_SEARCH_SEARCH_POLICY_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/evolution/evolution.h"
#include "src/hwsim/measurer.h"
#include "src/program/program_cache.h"
#include "src/sketch/sketch.h"
#include "src/store/record_store.h"
#include "src/telemetry/clock.h"
#include "src/telemetry/trace.h"

namespace ansor {

// A tuning task: one subgraph to optimize (paper §6: "We define a task as a
// process performed to generate high-performance programs for a subgraph").
// The DAG is shared so that program states escaping the tuner (best programs
// in results) keep it alive.
struct SearchTask {
  std::string name;
  std::shared_ptr<const ComputeDAG> dag;
  // Number of appearances of this subgraph in its DNN(s) (the weight w_i).
  int weight = 1;
  // Structural similarity tag (same-tag tasks inform each other's gradient
  // estimate via the beta term of §6.2).
  std::string tag;

  uint64_t task_id() const { return dag->CanonicalHash(); }
  double flop_count() const { return dag->FlopCount(); }
};

inline SearchTask MakeSearchTask(std::string name, ComputeDAG dag, int weight = 1,
                                 std::string tag = "") {
  SearchTask task;
  task.name = std::move(name);
  task.dag = std::make_shared<const ComputeDAG>(std::move(dag));
  task.weight = weight;
  task.tag = std::move(tag);
  return task;
}

struct SearchOptions {
  int population = 64;
  int generations = 3;
  // Probability of producing offspring by node-based crossover instead of
  // mutation (0 disables crossover).
  double crossover_probability = 0.25;
  int random_samples_per_round = 24;  // fresh samples seeding each round
  uint64_t seed = 42;
  SamplerOptions sampler;
  SketchOptions sketch;
  // Ablations (§7.1 Fig. 7): disable the evolutionary fine-tuning ("No
  // fine-tuning": random sampling only).
  bool enable_fine_tuning = true;
  // Record sink (src/store/record_store.h): every valid measurement is
  // appended here, carrying its measured throughput and attributed to
  // cache_client_id, under the store's dedup policy (resume / share /
  // apply-without-search workflows). A TuningService
  // points every job's tuners at one store so the whole fleet's history
  // accumulates deduplicated in one place. Not owned; may be shared across
  // concurrent tuners.
  RecordStore* record_store = nullptr;
  // Pool for evolution, training features, and measurement trials when the
  // measurer has no device pool of its own; nullptr = ThreadPool::Global().
  // Results are invariant to the pool size (see the determinism tests).
  ThreadPool* thread_pool = nullptr;
  // Compiled-program cache shared by every consumer of a tuning round
  // (evolution scoring, crossover, the pre-measurement filter,
  // training-feature extraction). nullptr = the tuner creates its own
  // task-lifetime cache of ProgramCache::kDefaultCapacity entries; inject one
  // to observe its counters, to share artifacts across tasks, or to size it
  // (capacity 0 compiles every program from scratch). Results are invariant
  // to the cache and its capacity (see the determinism tests).
  ProgramCache* program_cache = nullptr;
  // Consumer id tagged onto every program-cache lookup this tuner makes
  // (evolution scoring, pre-measurement filter, training features) so a cache shared across tasks can attribute cross-task reuse
  // exactly (ProgramCache::ClientStats). 0 = anonymous. The TuningService
  // assigns each (job, task) a distinct id. Counters only; search results
  // are identical for any id.
  uint64_t cache_client_id = 0;
  // A program whose measurement comes back invalid is retried in later rounds
  // at most this many times in total before being blacklisted like a measured
  // program: transient hardware failures recover, deterministic failures stop
  // leaking one trial per round forever.
  int max_invalid_measures = 3;
  // Telemetry handle for this task's tuner: spans for sketch generation,
  // round planning (with evolution/generation children), training-feature
  // extraction, measurement and commit are attributed through it. Disabled
  // by default (one branch per would-be span); search results are
  // bit-identical either way. The TuningService stamps job/task ids on it
  // and re-parents it per round via TaskTuner::set_tracer.
  Tracer tracer;
  // Clock used for the tuner's per-phase time attribution (nullptr = the
  // process steady clock). Injected by the TuningService so every timing in
  // a job — report fields, trace spans, phase breakdowns — derives from the
  // single service clock (fake-clock testable).
  MonotonicClock* clock = nullptr;
};

// Wall-clock seconds a tuner (or a whole job) spent in each phase of the
// tuning loop, all accumulated inside TaskTuner. measure_wall is the
// submit→complete wall time of the round's measurement batch; commit
// includes copying the training features out of the cached artifacts.
struct SearchPhaseTimes {
  double sketch_seconds = 0.0;
  double search_seconds = 0.0;   // PlanRound: evolution + candidate filtering
  double measure_wall_seconds = 0.0;
  double commit_seconds = 0.0;   // result bookkeeping + cost-model training
  // Always 0; removed with service.overlap_fraction in the next benchmark
  // change.
  double overlap_seconds = 0.0;

  double TotalSeconds() const {
    return sketch_seconds + search_seconds + measure_wall_seconds + commit_seconds;
  }
  void Add(const SearchPhaseTimes& other) {
    sketch_seconds += other.sketch_seconds;
    search_seconds += other.search_seconds;
    measure_wall_seconds += other.measure_wall_seconds;
    commit_seconds += other.commit_seconds;
  }
};

// One planned-but-not-yet-committed tuning round: the candidates PlanRound
// selected for measurement and their precomputed signatures. TuneRound
// composes PlanRound + SubmitPlannedRound/Wait + CommitRound; the steps stay
// public for drivers that measure on a pool of their own choosing.
struct PlannedRound {
  std::vector<State> to_measure;
  std::vector<std::string> signatures;  // StepSignature per candidate
};

// Per-task tuner holding search state across rounds so the task scheduler can
// interleave tasks (paper §6: one round == "one unit of time resources").
class TaskTuner {
 public:
  TaskTuner(SearchTask task, Measurer* measurer, CostModel* model,
            SearchOptions options = SearchOptions());

  // Runs one tuning round with a budget of `num_measures` measurement trials:
  // PlanRound, SubmitPlannedRound, wait, CommitRound. Every driver (TuneTask,
  // TaskScheduler::Tune, the TuningService) runs rounds through here. When
  // the clock (SearchOptions::clock) passes `deadline_nanos` while the batch
  // is in flight, its unstarted trials are cancelled and not charged.
  // Returns the best latency (seconds) found so far; infinity until a valid
  // program is measured.
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();
  double TuneRound(int num_measures, int64_t deadline_nanos = kNoDeadline);

  // Step-wise (resumable) round interface ------------------------------------
  // Selects up to `num_measures` candidates (evolution + epsilon-random
  // exploration, deduplicated against already-measured programs, statically
  // filtered). Consumes the tuner RNG exactly as the same phase of TuneRound.
  PlannedRound PlanRound(int num_measures);
  // Enqueues the round's candidates for asynchronous measurement: on the
  // measurer's device pool when it has one, else
  // on `pool` (nullptr = SearchOptions::thread_pool). Empty rounds return a
  // completed handle.
  PendingMeasureBatch SubmitPlannedRound(const PlannedRound& round,
                                         ThreadPool* pool = nullptr);
  // Applies the measurement results: best-program tracking, blacklist
  // bookkeeping, cost-model training, history. `results` must be
  // index-aligned with round.to_measure. Cancelled results (deadline) are
  // skipped entirely: no budget spent, no blacklist entry, no training
  // sample. Returns the best latency so far.
  double CommitRound(PlannedRound round, const std::vector<MeasureResult>& results);

  const SearchTask& task() const { return task_; }
  double best_seconds() const { return best_seconds_; }
  double best_throughput() const { return best_throughput_; }
  const std::optional<State>& best_state() const { return best_state_; }
  int64_t total_measures() const { return total_measures_; }
  // Trials that came back invalid (counted separately: their signatures are
  // NOT blacklisted, so the program can be retried in a later round).
  int64_t invalid_measures() const { return invalid_measures_; }
  // Candidates the static program verifier rejected before measurement
  // (across evolution populations and the pre-measurement filter). Each
  // rejection is a trial that would previously have been spent discovering
  // the illegality dynamically.
  int64_t statically_rejected() const { return statically_rejected_; }
  // Number of distinct programs with a recorded valid measurement.
  size_t measured_signature_count() const { return measured_signatures_.size(); }
  // (cumulative trial count, best seconds) after each round.
  const std::vector<std::pair<int64_t, double>>& history() const { return history_; }
  // The task's compiled-program cache (owned unless injected via
  // SearchOptions::program_cache). Exposes hit/miss/eviction counters.
  const ProgramCache& program_cache() const { return *cache_; }

  // Trials whose results came back cancelled (deadline hit before start).
  int64_t cancelled_measures() const { return cancelled_measures_; }
  // Per-phase wall-time attribution accumulated across rounds (single
  // injected clock; see SearchOptions::clock). measure_wall is charged by
  // TuneRound only; drivers of the step-wise interface time their own waits.
  const SearchPhaseTimes& phase_times() const { return phase_times_; }
  // EvolutionStats summed over every PlanRound this tuner ran (the per-call
  // stats are reset by each Evolve, so round-spanning totals live here).
  const EvolutionStats& evolution_stats() const { return evolution_stats_; }
  // Re-attributes subsequent spans (round/parent change): the service driver
  // points this at the current round's span before running it.
  void set_tracer(const Tracer& tracer) { tracer_ = tracer; }

 private:
  std::vector<State> SampleRandomPrograms(int count);

  SearchTask task_;
  Measurer* measurer_;
  CostModel* model_;
  SearchOptions options_;
  std::unique_ptr<ProgramCache> owned_cache_;
  ProgramCache* cache_;
  MonotonicClock* clock_;
  Tracer tracer_;  // current attribution (options_.tracer until set_tracer)
  SearchPhaseTimes phase_times_;
  EvolutionStats evolution_stats_;
  Rng rng_;
  std::vector<State> sketches_;
  // Best measured programs (population seed for the next round).
  std::vector<std::pair<double, State>> measured_best_;
  double best_seconds_ = std::numeric_limits<double>::infinity();
  double best_throughput_ = 0.0;
  std::optional<State> best_state_;
  int64_t total_measures_ = 0;
  int64_t invalid_measures_ = 0;
  int64_t cancelled_measures_ = 0;
  int64_t statically_rejected_ = 0;
  std::vector<std::pair<int64_t, double>> history_;
  // Signatures of already-measured programs: never burn a trial twice on the
  // same program (mirrors TVM's measured-state dedup). Only programs with a
  // *valid* measurement enter this set; invalid results are tallied in
  // invalid_signature_counts_ and blacklisted only after
  // SearchOptions::max_invalid_measures failed attempts.
  std::unordered_set<std::string> measured_signatures_;
  std::unordered_map<std::string, int> invalid_signature_counts_;
};

struct TuneResult {
  double best_seconds = std::numeric_limits<double>::infinity();
  double best_throughput = 0.0;
  std::optional<State> best_state;
  std::vector<std::pair<int64_t, double>> history;
};

// Tunes a single task for `num_measure_trials` trials in rounds of
// `measures_per_round`, which must be positive (CHECKed).
TuneResult TuneTask(const SearchTask& task, Measurer* measurer, CostModel* model,
                    int num_measure_trials, int measures_per_round = 16,
                    SearchOptions options = SearchOptions());

}  // namespace ansor

#endif  // ANSOR_SRC_SEARCH_SEARCH_POLICY_H_
