#include "src/search/search_policy.h"

#include <algorithm>
#include <unordered_set>

#include "src/support/logging.h"
#include "src/support/thread_pool.h"

namespace ansor {
namespace {

// Fraction of each measured batch drawn from random sampling instead of
// evolution (epsilon-greedy exploration).
constexpr double kEpsRandom = 0.1;

}  // namespace

TaskTuner::TaskTuner(SearchTask task, Measurer* measurer, CostModel* model,
                     SearchOptions options)
    : task_(std::move(task)),
      measurer_(measurer),
      model_(model),
      options_(options),
      clock_(MonotonicClock::OrReal(options.clock)),
      tracer_(options.tracer),
      rng_(options.seed ^ task_.task_id()) {
  // Task-lifetime compiled-program cache: owned by the tuner unless the
  // caller injected one to observe or share it.
  if (options_.program_cache != nullptr) {
    cache_ = options_.program_cache;
  } else {
    owned_cache_ = std::make_unique<ProgramCache>();
    cache_ = owned_cache_.get();
  }
  const int64_t t0 = clock_->NowNanos();
  {
    TraceSpan sketch(tracer_, "sketch", "search");
    sketches_ = GenerateSketches(task_.dag.get(), options_.sketch);
    sketch.Arg("count", static_cast<int64_t>(sketches_.size()));
  }
  phase_times_.sketch_seconds += SecondsBetween(t0, clock_->NowNanos());
}

std::vector<State> TaskTuner::SampleRandomPrograms(int count) {
  std::vector<State> result;
  if (sketches_.empty()) {
    return result;
  }
  int attempts = 0;
  int max_attempts = count * 8;
  while (static_cast<int>(result.size()) < count && attempts < max_attempts) {
    ++attempts;
    const State& sketch = sketches_[rng_.Index(sketches_.size())];
    State program = SampleCompleteProgram(sketch, task_.dag.get(), &rng_, options_.sampler);
    if (!program.failed()) {
      result.push_back(std::move(program));
    }
  }
  return result;
}

PlannedRound TaskTuner::PlanRound(int num_measures) {
  PlannedRound round;
  if (sketches_.empty() || num_measures <= 0) {
    return round;
  }
  const int64_t t0 = clock_->NowNanos();
  TraceSpan plan_span(tracer_, "plan_round", "search");
  Tracer plan_tracer = plan_span.child();
  const Tracer* plan_ptr = plan_span.enabled() ? &plan_tracer : nullptr;

  // Candidate generation. Signatures are kept alongside the candidates so
  // the commit bookkeeping never rebuilds them.
  std::unordered_set<std::string> picked;
  auto add_candidate = [&](const State& s) {
    if (static_cast<int>(round.to_measure.size()) >= num_measures) {
      return;
    }
    std::string sig = StepSignature(s);
    if (measured_signatures_.count(sig) > 0) {
      return;  // already measured validly in a previous round
    }
    auto invalid_it = invalid_signature_counts_.find(sig);
    if (invalid_it != invalid_signature_counts_.end() &&
        invalid_it->second >= options_.max_invalid_measures) {
      return;  // failed measurement too often: treat as deterministically bad
    }
    if (!picked.insert(sig).second) {
      return;
    }
    // Pre-measurement static filter: a candidate the verifier proves illegal
    // for this machine (failed lowering, bounds/domain/ordering violation,
    // resource limits) must not burn a trial. The report rides on the cached
    // artifact, so candidates the evolution already compiled are filtered
    // for free.
    ProgramArtifactPtr artifact = cache_->GetOrBuild(s, options_.cache_client_id, plan_ptr);
    if (!artifact->statically_legal(&measurer_->machine(), plan_ptr)) {
      ++statically_rejected_;
      return;
    }
    round.to_measure.push_back(s);
    round.signatures.push_back(std::move(sig));
  };

  if (options_.enable_fine_tuning) {
    // Initial population: fresh random samples + best measured programs.
    std::vector<State> init = SampleRandomPrograms(options_.random_samples_per_round);
    for (const auto& [seconds, state] : measured_best_) {
      init.push_back(state);
    }
    EvolutionOptions evo;
    evo.population = options_.population;
    evo.generations = options_.generations;
    evo.crossover_probability = options_.crossover_probability;
    evo.sampler = options_.sampler;
    evo.thread_pool = options_.thread_pool;
    evo.program_cache = cache_;
    evo.cache_client_id = options_.cache_client_id;
    if (plan_ptr != nullptr) {
      evo.tracer = *plan_ptr;
    }
    EvolutionarySearch evolution(task_.dag.get(), model_, rng_.Fork(), evo);
    // The epsilon share is truncated toward zero, so below 10 trials per
    // round it is 0 and no slot is reserved for random programs: evolution
    // is asked for the whole round, and random programs fill only the slots
    // its candidates leave empty (already measured, blacklisted or
    // statically illegal).
    int n_evolved =
        std::max(1, num_measures - static_cast<int>(kEpsRandom * num_measures));
    for (const State& s : evolution.Evolve(init, n_evolved)) {
      add_candidate(s);
    }
    statically_rejected_ += evolution.stats().statically_rejected;
    AccumulateEvolutionStats(evolution.stats(), &evolution_stats_);
  }
  // Epsilon-greedy random exploration (all candidates when fine-tuning is
  // disabled — the "No fine-tuning" ablation). All num_measures programs are
  // drawn even when evolution already filled the round, and add_candidate
  // drops the ones that no longer fit: the draws advance rng_, which seeds
  // every later round, so drawing fewer would change the search.
  for (const State& s : SampleRandomPrograms(num_measures)) {
    add_candidate(s);
  }
  plan_span.Arg("count", static_cast<int64_t>(round.to_measure.size()));
  phase_times_.search_seconds += SecondsBetween(t0, clock_->NowNanos());
  return round;
}

PendingMeasureBatch TaskTuner::SubmitPlannedRound(const PlannedRound& round,
                                                  ThreadPool* pool) {
  return measurer_->SubmitBatch(round.to_measure, pool != nullptr ? pool : options_.thread_pool,
                                tracer_.enabled() ? &tracer_ : nullptr);
}

double TaskTuner::CommitRound(PlannedRound round, const std::vector<MeasureResult>& results) {
  if (round.to_measure.empty()) {
    return best_seconds_;
  }
  CHECK_EQ(results.size(), round.to_measure.size());
  const int64_t t0 = clock_->NowNanos();
  TraceSpan commit_span(tracer_, "commit_round", "search");
  // Budget accounting: only trials that actually started count (a cancelled
  // item never reached the device — see MeasureResult::cancelled — so the
  // tuner's spent budget stays equal to the measurer's trial counter).
  int64_t started = 0;
  for (const MeasureResult& r : results) {
    if (!r.cancelled) {
      ++started;
    } else {
      ++cancelled_measures_;
    }
  }
  total_measures_ += started;

  // Training features are copied out of the cached artifacts (compiled during
  // planning); a candidate's copy is cleared below when its result must not
  // train a sample.
  std::vector<FeatureMatrix> features(round.to_measure.size());
  {
    TraceSpan span(tracer_, "training_features", "search");
    Tracer nested = span.child();
    const Tracer* nested_ptr = span.enabled() ? &nested : nullptr;
    ThreadPool::OrGlobal(options_.thread_pool)
        .ParallelFor(round.to_measure.size(), [&](size_t i) {
          features[i] =
              cache_->GetOrBuild(round.to_measure[i], options_.cache_client_id, nested_ptr)
                  ->features();
        });
  }

  // Update best + training data. Only programs that measured valid are
  // recorded in measured_signatures_: a transient invalid result must not
  // permanently blacklist the program. Invalid results are tallied per
  // signature and blacklist only after max_invalid_measures attempts.
  std::vector<double> throughputs(round.to_measure.size(), 0.0);
  for (size_t i = 0; i < round.to_measure.size(); ++i) {
    if (results[i].cancelled) {
      // Never started: not a failure, not a training sample, retryable later.
      features[i].Clear();
      continue;
    }
    if (!results[i].valid) {
      ++invalid_measures_;
      int failures = ++invalid_signature_counts_[round.signatures[i]];
      // A possibly-transient failure must not teach the model the program has
      // zero throughput. Once the failure count reaches the blacklist
      // threshold the program is confirmed deterministically bad: train the
      // zero-throughput sample so the model steers away from its family.
      if (failures < options_.max_invalid_measures) {
        features[i].Clear();
      }
      continue;
    }
    invalid_signature_counts_.erase(round.signatures[i]);  // a transient failure recovered
    measured_signatures_.insert(std::move(round.signatures[i]));
    throughputs[i] = results[i].throughput;
    if (results[i].seconds < best_seconds_) {
      best_seconds_ = results[i].seconds;
      best_throughput_ = results[i].throughput;
      best_state_ = round.to_measure[i];
      best_state_->RetainDag(task_.dag);
    }
    measured_best_.emplace_back(results[i].seconds, round.to_measure[i]);
    if (options_.record_store != nullptr) {
      TuningRecord record;
      record.task_id = task_.task_id();
      record.seconds = results[i].seconds;
      record.throughput = results[i].throughput;
      record.steps = round.to_measure[i].steps();
      options_.record_store->Add(std::move(record), options_.cache_client_id);
    }
  }
  std::sort(measured_best_.begin(), measured_best_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (measured_best_.size() > 16) {
    measured_best_.resize(16);
  }

  if (options_.enable_fine_tuning) {
    TraceSpan train(commit_span.enabled() ? commit_span.child() : Tracer(),
                    "model_train", "costmodel");
    train.Arg("count", static_cast<int64_t>(features.size()));
    model_->Update(task_.task_id(), features, throughputs);
  }
  history_.emplace_back(total_measures_, best_seconds_);
  phase_times_.commit_seconds += SecondsBetween(t0, clock_->NowNanos());
  return best_seconds_;
}

double TaskTuner::TuneRound(int num_measures, int64_t deadline_nanos) {
  PlannedRound round = PlanRound(num_measures);
  if (round.to_measure.empty()) {
    return best_seconds_;
  }
  const int64_t t0 = clock_->NowNanos();
  PendingMeasureBatch batch = SubmitPlannedRound(round);
  if (deadline_nanos != kNoDeadline &&
      !batch.WaitFor(SecondsBetween(clock_->NowNanos(), deadline_nanos))) {
    // Deadline passed mid-batch: unstarted trials come back cancelled (not
    // charged to any budget); in-flight ones finish, so Wait() cannot hang.
    batch.Cancel();
  }
  std::vector<MeasureResult> results = batch.Wait();
  phase_times_.measure_wall_seconds += SecondsBetween(t0, clock_->NowNanos());
  return CommitRound(std::move(round), results);
}

TuneResult TuneTask(const SearchTask& task, Measurer* measurer, CostModel* model,
                    int num_measure_trials, int measures_per_round, SearchOptions options) {
  CHECK_GT(measures_per_round, 0);  // a round of no trials never advances the budget
  TaskTuner tuner(task, measurer, model, options);
  int done = 0;
  while (done < num_measure_trials) {
    int batch = std::min(measures_per_round, num_measure_trials - done);
    tuner.TuneRound(batch);
    done += batch;
  }
  TuneResult result;
  result.best_seconds = tuner.best_seconds();
  result.best_throughput = tuner.best_throughput();
  result.best_state = tuner.best_state();
  result.history = tuner.history();
  return result;
}

}  // namespace ansor
