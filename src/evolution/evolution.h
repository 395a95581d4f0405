// Evolutionary search with a learned cost model (paper §5.1).
//
// "The evolution starts from the sampled initial generation ... the
// probability of selecting a program is proportional to its fitness predicted
// by the learned cost model ... for the selected programs, we randomly apply
// one of the evolution operations."
//
// Operators implemented (all on the rewriting-step "genes", replayed and
// verified after editing):
//   * tile size mutation      — moves a factor between tile levels, keeping
//                               the product equal (always valid);
//   * parallel granularity    — changes the fuse count feeding a parallel
//     mutation                  annotation;
//   * pragma mutation         — changes auto_unroll_max_step;
//   * vectorize mutation      — toggles the innermost vectorize annotation;
//   * computation location    — moves a fused producer to another loop level;
//   * node-based crossover    — per-DAG-node adoption of step parameters from
//                               the parent whose node scores higher.
//
// The per-generation hot path is a parallel, batched pipeline over the
// content-addressed ProgramArtifact layer (src/program):
//   1. the whole population is resolved to ProgramArtifacts in parallel
//      (lowered + feature-extracted once per distinct program, served from
//      the task-lifetime ProgramCache thereafter) and scored with one
//      batched CostModel::PredictBatch call;
//   2. the admissible members join the best-so-far set, deduplicated on
//      their artifacts' ProgramArtifact::signature() (the StepSignature the
//      cache derived its key from), so the calling thread neither copies nor
//      re-signs a State to keep or trim it;
//   3. child generation runs on a thread pool in waves. The calling thread
//      draws one seed per slot from the search's RNG (the draw Rng::Fork
//      makes); the worker seeds the slot's stream from it, then draws the
//      operator, the parents and checks skeletons itself before running the
//      operator, so results are bit-identical across thread counts for a
//      fixed seed;
//   4. crossover reads per-stage parent scores from a memo private to the
//      Evolve call, keyed by artifact identity, so an artifact is scored at
//      most once per call whatever the generation or wave that needs it
//      again. Threading contract: before a generation's waves the calling
//      thread creates the entry of every admissible member (workers never
//      insert); the first worker that needs an entry's scores computes them
//      with one PredictStatements call under the entry's once-flag, and any
//      other worker that needs them waits on that flag (concurrent Predict*
//      calls are allowed, see cost_model.h). After each wave the calling
//      thread counts the wave's requests as hits and misses in slot order.
//      The memo holds each artifact it keys (no address is reused while the
//      call runs) and dies with the call: the tuner retrains its model
//      between two Evolve calls of a task, so scores kept longer would never
//      be read again.
// What stays serial on the calling thread: drawing the slot seeds, the
// batched population PredictBatch, admitting children and sorting the best
// set, and destroying a retired generation. A State is plain schedule data
// (iterators, relation records, the step list; most of its ops are the
// DAG's own or its shared rewrites), so destroying one frees a few dozen
// blocks. Releasing retired
// generations on the pool instead was measured slower: glibc frees a block
// another thread allocated under that thread's arena lock, and the workers
// contend on it.
//
// State lifetime inside Evolve. The population, each wave's children and
// the best set hold std::shared_ptr<const State> handles, never State
// values:
//   * creation — init's non-failed states are copied into handles once;
//     every other State is built by a pool worker inside a wave (the
//     mutation or crossover replay) and published into that slot's handle;
//   * immutability — a State is never modified once published;
//   * readers — any pool thread may read it in the following waves and
//     generations, as a parent or to resolve its artifact; the wave's
//     ParallelFor join orders the publication before all of those reads;
//   * release — a State is destroyed once every holder has let go: its
//     generation retires (the next population replaces it) and, if it
//     entered the best set, the best set trims it or Evolve returns; a
//     child the wave discards is released at the end of that wave;
//   * no handle escapes Evolve: it returns copies of the <= num_out best.
#ifndef ANSOR_SRC_EVOLUTION_EVOLUTION_H_
#define ANSOR_SRC_EVOLUTION_EVOLUTION_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/costmodel/cost_model.h"
#include "src/ir/state.h"
#include "src/program/program_cache.h"
#include "src/sampler/annotation.h"
#include "src/support/thread_pool.h"
#include "src/telemetry/trace.h"

namespace ansor {

struct EvolutionOptions {
  int population = 128;
  int generations = 4;
  double crossover_probability = 0.25;  // otherwise mutate
  SamplerOptions sampler;
  // Pool running per-generation scoring and child generation. nullptr means
  // ThreadPool::Global(). Injectable so tests can prove that search results
  // are invariant to the thread count (pool size 1 vs N).
  ThreadPool* thread_pool = nullptr;
  // Compiled-program cache serving lowering and features. nullptr means
  // Evolve uses a private per-call cache; the search policy injects its
  // task-lifetime cache here so artifacts survive across tuning rounds.
  // Results are bit-identical for any cache and any capacity, including
  // 0 = disabled.
  ProgramCache* program_cache = nullptr;
  // Consumer id tagged onto every program_cache lookup so a cache shared
  // across tasks can attribute cross-task reuse (ProgramCache::GetOrBuild).
  // 0 = anonymous. Counters only; results are identical for any id.
  uint64_t cache_client_id = 0;
  // Telemetry handle: when enabled, Evolve records an "evolution" span with
  // one "generation" child per generation plus "model_predict" and
  // "artifact_build" descendants. Disabled (the default) costs one branch
  // per would-be span; results are bit-identical either way — tracing only
  // reads clocks.
  Tracer tracer;
};

// Counters for the child-generation hot path, reset by each Evolve() call.
struct EvolutionStats {
  int64_t child_attempts = 0;      // mutation/crossover slots executed
  int64_t children_generated = 0;  // valid offspring admitted to a population
  // Population members the static program verifier rejected (failed
  // lowering, bounds/domain/ordering violations, resource limits): they are
  // zero-weighted during scoring, so they are never parents or returned.
  int64_t statically_rejected = 0;
  // Crossover parent stage-score lookups served from the call's memo (the
  // artifact was requested earlier in this call) vs scored fresh; a miss is
  // one artifact's PredictStatements scoring.
  int64_t crossover_score_hits = 0;
  int64_t crossover_score_misses = 0;
};

// Adds `delta`'s counters into `total`: stats() resets per Evolve() call, so
// a round-spanning consumer (TaskTuner) accumulates.
void AccumulateEvolutionStats(const EvolutionStats& delta, EvolutionStats* total);

class EvolutionarySearch {
 public:
  EvolutionarySearch(const ComputeDAG* dag, CostModel* model, Rng rng,
                     EvolutionOptions options = EvolutionOptions());

  // Runs evolution from the initial population; returns up to `num_out`
  // distinct best states by predicted fitness.
  std::vector<State> Evolve(const std::vector<State>& init, int num_out);

  // Hot-path counters of the most recent Evolve() call.
  const EvolutionStats& stats() const { return stats_; }

  // Individual operators, exposed for tests. All draw from the search's own
  // RNG and return the canonical State::Failure on an invalid edit (callers
  // discard); a partially-replayed state is never returned.
  State MutateTileSize(const State& state);
  State MutatePragma(const State& state);
  State MutateParallelGranularity(const State& state);
  State MutateVectorize(const State& state);
  State MutateComputeLocation(const State& state);
  State Crossover(const State& a, const State& b);

  // Replays `steps` with SplitStep lengths rewritten by `edit(step_index,
  // extent, lengths*)`; other steps replay verbatim. Exposed for tests: a
  // mid-replay failure must normalize to State::Failure (empty step history).
  State ReplayWithSplitEdit(
      const std::vector<Step>& steps,
      const std::function<void(size_t, int64_t, std::vector<int64_t>*)>& edit);

 private:
  // Operator implementations drawing from an explicit per-slot RNG stream so
  // child generation parallelizes deterministically.
  State MutateTileSize(const State& state, Rng* rng);
  State MutatePragma(const State& state, Rng* rng);
  State MutateParallelGranularity(const State& state, Rng* rng);
  State MutateVectorize(const State& state, Rng* rng);
  State MutateComputeLocation(const State& state, Rng* rng);
  State RandomMutation(const State& state, Rng* rng);
  // Summed PredictStatements score per stage name of one program.
  using StageScores = std::unordered_map<std::string, double>;
  // Crossover with both parents' per-stage scores supplied by the caller
  // (from the call's memo on the hot path).
  State Crossover(const State& a, const State& b, const StageScores& score_a,
                  const StageScores& score_b, Rng* rng);
  // Resolves one state's artifact and scores it fresh (the public Crossover;
  // the hot path reads the call's memo instead).
  StageScores ComputeStageScores(const State& state);
  // Normalizes any failed state to the canonical State::Failure.
  State Normalized(State state) const;

  const ComputeDAG* dag_;
  CostModel* model_;
  Rng rng_;
  EvolutionOptions options_;
  EvolutionStats stats_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_EVOLUTION_EVOLUTION_H_
