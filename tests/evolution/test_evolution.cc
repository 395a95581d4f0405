#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

#include "src/evolution/evolution.h"
#include "src/hwsim/measurer.h"
#include "src/exec/interpreter.h"
#include "src/sketch/sketch.h"
#include "src/store/bytes.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

std::vector<State> InitPopulation(const ComputeDAG* dag, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<State> init = SampleLowerablePopulation(dag, count, &rng);
  EXPECT_EQ(init.size(), static_cast<size_t>(count));
  return init;
}

TEST(Evolution, TileSizeMutationPreservesProductAndSemantics) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 4, 1);
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(2));
  int mutated_ok = 0;
  for (const State& parent : init) {
    for (int trial = 0; trial < 5; ++trial) {
      State child = es.MutateTileSize(parent);
      if (child.failed()) {
        continue;
      }
      ++mutated_ok;
      EXPECT_EQ(VerifyAgainstNaive(child), "") << child.ToString();
    }
  }
  EXPECT_GT(mutated_ok, 10);
}

TEST(Evolution, PragmaMutationChangesValue) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 8, 3);
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(4));
  bool changed = false;
  for (const State& parent : init) {
    State child = es.MutatePragma(parent);
    if (child.failed()) {
      continue;
    }
    // Same steps except possibly a pragma value.
    ASSERT_EQ(child.steps().size(), parent.steps().size());
    for (size_t i = 0; i < child.steps().size(); ++i) {
      if (child.steps()[i].kind == StepKind::kPragma &&
          child.steps()[i].pragma_value != parent.steps()[i].pragma_value) {
        changed = true;
      }
    }
  }
  EXPECT_TRUE(changed);
}

TEST(Evolution, VectorizeMutationTogglesAnnotation) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 4, 5);
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(6));
  int ok = 0;
  for (const State& parent : init) {
    for (int t = 0; t < 4; ++t) {
      State child = es.MutateVectorize(parent);
      if (!child.failed()) {
        ++ok;
        EXPECT_EQ(VerifyAgainstNaive(child), "");
      }
    }
  }
  EXPECT_GT(ok, 4);
}

TEST(Evolution, ComputeLocationMutationVerifies) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 6, 7);
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(8));
  int ok = 0;
  for (const State& parent : init) {
    State child = es.MutateComputeLocation(parent);
    if (child.failed() || !Lower(child).ok) {
      continue;  // unsupported placements are rejected downstream
    }
    EXPECT_EQ(VerifyAgainstNaive(child), "") << child.ToString();
    ++ok;
  }
  EXPECT_GT(ok, 0);
}

TEST(Evolution, CrossoverMergesAndVerifies) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  Rng rng(9);
  // Parents sampled from the SAME sketch so skeletons match.
  const State& sketch = sketches[0];
  std::vector<State> parents;
  while (parents.size() < 2) {
    State s = SampleCompleteProgram(sketch, &dag, &rng);
    if (!s.failed() && Lower(s).ok && !s.steps().empty()) {
      // Crossover requires matching step skeletons.
      if (parents.empty() || s.steps().size() == parents[0].steps().size()) {
        parents.push_back(std::move(s));
      }
    }
  }
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(10));
  int ok = 0;
  for (int t = 0; t < 10; ++t) {
    State child = es.Crossover(parents[0], parents[1]);
    if (child.failed() || !Lower(child).ok) {
      continue;
    }
    EXPECT_EQ(VerifyAgainstNaive(child), "") << child.ToString();
    ++ok;
  }
  EXPECT_GT(ok, 5);
}

TEST(Evolution, CrossoverRejectsMismatchedSkeletons) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  ASSERT_GE(sketches.size(), 2u);
  Rng rng(11);
  State a = SampleCompleteProgram(sketches[0], &dag, &rng);
  State b = SampleCompleteProgram(sketches[1], &dag, &rng);
  if (a.failed() || b.failed() || a.steps().size() == b.steps().size()) {
    GTEST_SKIP() << "could not construct mismatched parents";
  }
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(12));
  State child = es.Crossover(a, b);
  EXPECT_TRUE(child.failed());
}

TEST(Evolution, EvolveImprovesPredictedFitness) {
  // With a cost model that prefers programs whose innermost loops are
  // vectorized, evolution should enrich the population accordingly. We use
  // the GBDT model trained on simulator data for realism.
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  auto init = InitPopulation(&dag, 16, 13);

  // Train the model on the initial population's simulated throughput.
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<FeatureMatrix> features;
  std::vector<double> throughputs;
  for (const State& s : init) {
    features.push_back(ExtractStateFeatures(s));
    MeasureResult r = measurer.Measure(s);
    throughputs.push_back(r.valid ? r.throughput : 0.0);
  }
  model.Update(dag.CanonicalHash(), features, throughputs);

  EvolutionOptions options;
  options.population = 32;
  options.generations = 3;
  EvolutionarySearch es(&dag, &model, Rng(14), options);
  auto best = es.Evolve(init, 8);
  ASSERT_FALSE(best.empty());

  // The evolved best (by prediction) should measure at least as fast as the
  // median of the initial random population.
  std::vector<double> init_seconds;
  for (const State& s : init) {
    init_seconds.push_back(measurer.Measure(s).seconds);
  }
  double evolved_best = 1e30;
  for (const State& s : best) {
    MeasureResult r = measurer.Measure(s);
    if (r.valid) {
      evolved_best = std::min(evolved_best, r.seconds);
    }
  }
  std::sort(init_seconds.begin(), init_seconds.end());
  EXPECT_LT(evolved_best, init_seconds[init_seconds.size() / 2] * 1.05);
}

TEST(Evolution, FailedMutationsNormalizeToEmptyStepHistory) {
  // Regression: a mid-replay failure used to return the partially-replayed
  // state. Any failed result must be the canonical State::Failure with an
  // empty step history, so partial states can never leak into a population.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 6, 21);
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(22));
  for (const State& parent : init) {
    for (int t = 0; t < 8; ++t) {
      for (const State& child : {es.MutateTileSize(parent), es.MutatePragma(parent),
                          es.MutateParallelGranularity(parent), es.MutateVectorize(parent),
                          es.MutateComputeLocation(parent),
                          es.Crossover(parent, init[0])}) {
        if (child.failed()) {
          EXPECT_TRUE(child.steps().empty()) << child.error();
          EXPECT_FALSE(child.error().empty());
        }
      }
    }
  }
}

TEST(Evolution, ReplayWithSplitEditNormalizesMidReplayFailure) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(23));
  // Valid split, then a fuse whose range is out of bounds: the replay fails
  // on the second step and must not return the one-step partial state.
  std::vector<Step> steps;
  steps.push_back(MakeSplitStep("C", 0, {4}));
  steps.push_back(MakeFuseStep("C", 5, 3));
  State result = es.ReplayWithSplitEdit(
      steps, [](size_t, int64_t, std::vector<int64_t>*) {});
  EXPECT_TRUE(result.failed());
  EXPECT_TRUE(result.steps().empty());
  EXPECT_FALSE(result.error().empty());
}

TEST(Evolution, UnlowerableStatesGetNoSelectionWeight) {
  // Regression: states whose lowering/feature extraction fails used to keep
  // selection weight and could be picked as parents. With the fix, a
  // population of only unlowerable states terminates without generating a
  // single child.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  // Valid step application (C is a real stage, iterator 0 exists) whose
  // lowering fails: C does not read D, so compute_at cannot be lowered.
  State bad(&dag);
  ASSERT_TRUE(bad.ComputeAt("D", "C", 0));
  ASSERT_FALSE(bad.failed());
  ASSERT_FALSE(Lower(bad).ok);

  RandomCostModel model(1);
  EvolutionOptions options;
  options.population = 8;
  options.generations = 2;
  EvolutionarySearch es(&dag, &model, Rng(24), options);
  auto best = es.Evolve({bad, bad, bad, bad}, 4);
  EXPECT_TRUE(best.empty());
  EXPECT_EQ(es.stats().child_attempts, 0);
}

TEST(Evolution, EvolveDeterministicAcrossThreadCounts) {
  // Same seed => bit-identical populations and stats whether child generation
  // runs on one, three or four threads (per-slot forked RNG streams).
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 8, 25);
  ThreadPool pool1(1);
  ThreadPool pool3(3);
  ThreadPool pool4(4);

  auto run = [&](ThreadPool* pool) {
    RandomCostModel model(7);
    EvolutionOptions options;
    options.population = 16;
    options.generations = 3;
    options.thread_pool = pool;
    EvolutionarySearch es(&dag, &model, Rng(26), options);
    auto best = es.Evolve(init, 6);
    std::vector<std::string> sigs;
    for (const State& s : best) {
      sigs.push_back(StepSignature(s));
    }
    return std::make_pair(sigs, es.stats());
  };

  auto [sigs1, stats1] = run(&pool1);
  EXPECT_GT(stats1.children_generated, 0);
  for (ThreadPool* pool : {&pool3, &pool4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << pool->num_threads());
    auto [sigs, stats] = run(pool);
    EXPECT_EQ(sigs, sigs1);
    EXPECT_EQ(stats.children_generated, stats1.children_generated);
    EXPECT_EQ(stats.child_attempts, stats1.child_attempts);
    EXPECT_EQ(stats.crossover_score_hits, stats1.crossover_score_hits);
    EXPECT_EQ(stats.crossover_score_misses, stats1.crossover_score_misses);
  }
}

// Forwards to a RandomCostModel and records every program whose statements
// it scores, with the per-stage sums of the scores returned. Pool workers
// score crossover parents concurrently, so recording takes a lock.
class CountingCostModel : public CostModel {
 public:
  explicit CountingCostModel(uint64_t seed) : inner_(seed) {}
  void Update(uint64_t, const std::vector<FeatureMatrix>&,
              const std::vector<double>&) override {}
  std::vector<double> PredictBatch(const std::vector<const FeatureMatrix*>& programs) override {
    return inner_.PredictBatch(programs);
  }
  std::vector<double> PredictStatements(const FeatureMatrix& rows) override {
    std::vector<double> preds = inner_.PredictStatements(rows);
    std::lock_guard<std::mutex> lock(mu_);
    scored.push_back(&rows);
    stage_sums.push_back(StageSums(rows, preds));
    return preds;
  }

  static std::unordered_map<std::string, double> StageSums(const FeatureMatrix& rows,
                                                           const std::vector<double>& preds) {
    std::unordered_map<std::string, double> sums;
    for (size_t r = 0; r < preds.size(); ++r) {
      sums[rows.row_stages()[r]] += preds[r];
    }
    return sums;
  }

  std::vector<const FeatureMatrix*> scored;
  std::vector<std::unordered_map<std::string, double>> stage_sums;

 private:
  std::mutex mu_;
  RandomCostModel inner_;
};

TEST(Evolution, EvolveScoresEachCrossoverParentOncePerCall) {
  // Crossover-only evolution over several generations: parents recur across
  // waves and generations, and the call's memo must score each artifact with
  // one PredictStatements call, holding the scores a direct call gives.
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  auto init = InitPopulation(&dag, 8, 29);
  EvolutionOptions options;
  options.population = 24;
  options.generations = 3;
  options.crossover_probability = 1.0;

  auto run = [&](size_t cache_capacity, CountingCostModel* model) {
    ProgramCache cache(cache_capacity);
    options.program_cache = &cache;
    EvolutionarySearch es(&dag, model, Rng(30), options);
    std::vector<std::string> sigs;
    for (const State& s : es.Evolve(init, 4)) {
      sigs.push_back(StepSignature(s));
    }
    // The memo holds every artifact it keys until the call returns, so no
    // address is reused within the call: a repeated address would be an
    // artifact scored twice.
    std::set<const FeatureMatrix*> distinct(model->scored.begin(), model->scored.end());
    EXPECT_EQ(distinct.size(), model->scored.size());
    EXPECT_EQ(es.stats().crossover_score_misses, static_cast<int64_t>(model->scored.size()));
    if (cache_capacity > 0) {
      RandomCostModel direct(3);
      for (size_t p = 0; p < model->scored.size(); ++p) {
        const FeatureMatrix& rows = *model->scored[p];
        EXPECT_EQ(model->stage_sums[p],
                  CountingCostModel::StageSums(rows, direct.PredictStatements(rows)));
      }
    }
    return std::make_pair(sigs, es.stats());
  };

  CountingCostModel cached_model(3);
  auto [sigs, stats] = run(ProgramCache::kDefaultCapacity, &cached_model);
  EXPECT_GT(stats.crossover_score_hits, 0);
  EXPECT_FALSE(cached_model.scored.empty());

  // Capacity 0: every population lookup builds a fresh artifact, so a parent
  // that recurs in a later generation is a new memo key and is scored again.
  // Results cannot tell the difference.
  CountingCostModel uncached_model(3);
  auto [uncached_sigs, uncached_stats] = run(0, &uncached_model);
  EXPECT_EQ(uncached_sigs, sigs);
  EXPECT_GT(uncached_stats.crossover_score_misses, stats.crossover_score_misses);
}

TEST(Evolution, EvolveReportsCacheStats) {
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  auto init = InitPopulation(&dag, 8, 29);
  RandomCostModel model(3);
  EvolutionOptions options;
  options.population = 24;
  options.generations = 2;
  options.crossover_probability = 1.0;  // crossover-only: exercise the memo
  ProgramCache cache;
  options.program_cache = &cache;
  EvolutionarySearch es(&dag, &model, Rng(30), options);
  es.Evolve(init, 4);
  const EvolutionStats& stats = es.stats();
  EXPECT_GT(stats.child_attempts, 0);
  // Each compatible crossover makes exactly two parent requests, and misses
  // are bounded by one scoring per population member per generation.
  EXPECT_EQ((stats.crossover_score_hits + stats.crossover_score_misses) % 2, 0);
  EXPECT_LE(stats.crossover_score_misses,
            static_cast<int64_t>(options.population + 8) * options.generations);
  // Population scoring went through the injected ProgramCache: at minimum
  // every generation's population resolution is counted.
  EXPECT_GT(cache.stats().lookups(), 0);
}

TEST(Evolution, EvolveReturnsDistinctStates) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 8, 15);
  RandomCostModel model(3);
  EvolutionOptions options;
  options.population = 16;
  options.generations = 2;
  EvolutionarySearch es(&dag, &model, Rng(16), options);
  auto best = es.Evolve(init, 6);
  std::set<std::string> sigs;
  for (const State& s : best) {
    EXPECT_TRUE(sigs.insert(StepSignature(s)).second);
  }
}

// Scores every program and every statement 1.0: all fitness values tie, so
// the order of the best set is decided by std::sort's tie handling alone.
class ConstantCostModel : public CostModel {
 public:
  void Update(uint64_t, const std::vector<FeatureMatrix>&,
              const std::vector<double>&) override {}
  std::vector<double> PredictBatch(const std::vector<const FeatureMatrix*>& programs) override {
    return std::vector<double>(programs.size(), 1.0);
  }
  std::vector<double> PredictStatements(const FeatureMatrix& rows) override {
    return std::vector<double>(rows.rows(), 1.0);
  }
};

// Order-sensitive digest of an Evolve() result: each state's step signature
// and printed loop structure.
uint64_t DigestStates(const std::vector<State>& states) {
  std::string bytes;
  for (const State& s : states) {
    bytes += StepSignature(s);
    bytes += '\n';
    bytes += s.ToString();
    bytes += '\n';
  }
  return Fnv1a64(bytes.data(), bytes.size());
}

struct EvolveGolden {
  size_t count;
  uint64_t digest;
  int64_t child_attempts;
  int64_t children_generated;
  int64_t statically_rejected;
  int64_t crossover_score_hits;
  int64_t crossover_score_misses;
  int64_t program_cache_lookups;  // ProgramCacheStats::lookups()
  int64_t program_cache_evictions;
};

// Runs Evolve on a 1-thread and a 4-thread pool, each with a fresh default
// ProgramCache, and checks both against the golden values. The hit/miss
// split of the cache is pinned only as a sum: pool workers racing on one key
// each count a miss, so the split depends on timing while the number of
// lookups does not.
void ExpectEvolveGolden(const ComputeDAG* dag,
                        const std::function<std::unique_ptr<CostModel>()>& make_model,
                        const std::vector<State>& init, EvolutionOptions options,
                        uint64_t seed, int num_out, const EvolveGolden& golden) {
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    ProgramCache cache;
    std::unique_ptr<CostModel> model = make_model();
    options.thread_pool = &pool;
    options.program_cache = &cache;
    EvolutionarySearch es(dag, model.get(), Rng(seed), options);
    std::vector<State> best = es.Evolve(init, num_out);
    const EvolutionStats& st = es.stats();
    EXPECT_EQ(best.size(), golden.count);
    EXPECT_EQ(DigestStates(best), golden.digest);
    EXPECT_EQ(st.child_attempts, golden.child_attempts);
    EXPECT_EQ(st.children_generated, golden.children_generated);
    EXPECT_EQ(st.statically_rejected, golden.statically_rejected);
    EXPECT_EQ(st.crossover_score_hits, golden.crossover_score_hits);
    EXPECT_EQ(st.crossover_score_misses, golden.crossover_score_misses);
    EXPECT_EQ(cache.stats().lookups(), golden.program_cache_lookups);
    EXPECT_EQ(cache.stats().evictions, golden.program_cache_evictions);
  }
}

TEST(Evolution, EvolveIsBitExactGolden) {
  // Pins Evolve's returned states and counters for fixed seeds, so a change
  // to how the population, children or best set are held must keep results
  // bit-identical.
  {
    SCOPED_TRACE("cpu matmul, random model");
    ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
    auto init = InitPopulation(&dag, 8, 31);
    EvolutionOptions options;
    options.population = 24;
    options.generations = 3;
    ExpectEvolveGolden(
        &dag, [] { return std::make_unique<RandomCostModel>(9); }, init, options, 32, 6,
        {6, 2474958785331541125ull, 108, 72, 0, 7, 11, 80, 0});
  }
  {
    // Every score ties: which states survive the best-set trim, and in what
    // order they come back, is std::sort's tie order.
    SCOPED_TRACE("cpu matmul, constant model");
    ComputeDAG dag = testing::Matmul(32, 32, 32);
    auto init = InitPopulation(&dag, 8, 33);
    EvolutionOptions options;
    options.population = 24;
    options.generations = 2;
    ExpectEvolveGolden(
        &dag, [] { return std::make_unique<ConstantCostModel>(); }, init, options, 34, 5,
        {5, 1257397480101026069ull, 71, 48, 0, 2, 6, 56, 0});
  }
  {
    // GPU sampling (fused, thread-bound iterators).
    SCOPED_TRACE("gpu conv2d");
    ComputeDAG dag = MakeConv2d(1, 4, 6, 6, 8, 3, 3, 1, 1);
    SamplerOptions sampler;
    sampler.gpu = true;
    Rng rng(35);
    auto init = SampleLowerablePopulation(&dag, 6, &rng, sampler);
    ASSERT_EQ(init.size(), 6u);
    EvolutionOptions options;
    options.population = 16;
    options.generations = 2;
    options.sampler = sampler;
    ExpectEvolveGolden(
        &dag, [] { return std::make_unique<RandomCostModel>(11); }, init, options, 36, 4,
        {4, 2011894952983832525ull, 56, 32, 0, 3, 5, 38, 0});
  }
}

struct EvolveCallGolden {
  uint64_t digest;  // DigestStates of the call's result
  int64_t child_attempts;
  int64_t children_generated;
  int64_t statically_rejected;
  int64_t crossover_score_hits;
  int64_t crossover_score_misses;
};

TEST(Evolution, ConsecutiveEvolveCallsAreBitExactGolden) {
  // Two Evolve calls on one search: the second starts from the RNG state the
  // first left behind, so this pins how each wave hands its slots their
  // streams, not only the first call's draws. Crossover and mutation are
  // equally likely, so both kinds of slot run in every wave.
  ComputeDAG dag = MakeConv2d(1, 4, 6, 6, 8, 3, 3, 1, 1);
  SamplerOptions sampler;
  sampler.gpu = true;
  Rng rng(37);
  std::vector<State> init = SampleLowerablePopulation(&dag, 8, &rng, sampler);
  ASSERT_EQ(init.size(), 8u);
  const EvolveCallGolden golden[2] = {
      {2872862920382551508ull, 57, 32, 0, 7, 11},
      {2218945937293103726ull, 42, 32, 0, 13, 9},
  };
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    ProgramCache cache;
    RandomCostModel model(13);
    EvolutionOptions options;
    options.population = 16;
    options.generations = 2;
    options.crossover_probability = 0.5;
    options.sampler = sampler;
    options.thread_pool = &pool;
    options.program_cache = &cache;
    EvolutionarySearch es(&dag, &model, Rng(38), options);
    std::vector<State> population = init;
    for (int call = 0; call < 2; ++call) {
      SCOPED_TRACE(::testing::Message() << "call=" << call);
      std::vector<State> best = es.Evolve(population, 6);
      const EvolutionStats& st = es.stats();
      const EvolveCallGolden& g = golden[call];
      EXPECT_EQ(DigestStates(best), g.digest);
      EXPECT_EQ(st.child_attempts, g.child_attempts);
      EXPECT_EQ(st.children_generated, g.children_generated);
      EXPECT_EQ(st.statically_rejected, g.statically_rejected);
      EXPECT_EQ(st.crossover_score_hits, g.crossover_score_hits);
      EXPECT_EQ(st.crossover_score_misses, g.crossover_score_misses);
      population.insert(population.end(), best.begin(), best.end());
    }
  }
}

}  // namespace
}  // namespace ansor
