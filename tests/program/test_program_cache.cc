#include <gtest/gtest.h>

#include <set>

#include "src/evolution/evolution.h"
#include "src/program/program_cache.h"
#include "src/scheduler/task_scheduler.h"
#include "src/search/search_policy.h"
#include "src/sketch/sketch.h"
#include "src/support/thread_pool.h"
#include "tests/testing.h"

namespace ansor {
namespace {

// Distinct single-split states over one DAG: cheap cache keys with distinct
// signatures.
State SplitState(const ComputeDAG* dag, int64_t len) {
  State s(dag);
  EXPECT_TRUE(s.Split("C", 0, {len}));
  return s;
}

TEST(ProgramCache, ArtifactCarriesLoweringFeaturesAndSignature) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s = SplitState(&dag, 4);
  ProgramCache cache;
  ProgramArtifactPtr artifact = cache.GetOrBuild(s);
  ASSERT_NE(artifact, nullptr);
  EXPECT_TRUE(artifact->ok());
  EXPECT_EQ(artifact->signature(), StepSignature(s));
  EXPECT_FALSE(artifact->features().empty());
  EXPECT_EQ(artifact->features().rows(), artifact->row_stages().size());
  // The artifact must hold exactly what a direct compile produces.
  FeatureMatrix direct = ExtractFeatures(Lower(s));
  EXPECT_EQ(artifact->features(), direct);
  EXPECT_EQ(artifact->row_stages(), direct.row_stages());
}

TEST(ProgramCache, EqualSignaturesShareOneArtifact) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  ProgramCache cache;
  // Distinct State objects, identical step history: one artifact.
  ProgramArtifactPtr a = cache.GetOrBuild(SplitState(&dag, 4));
  ProgramArtifactPtr b = cache.GetOrBuild(SplitState(&dag, 4));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  ProgramCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(ProgramCache, LruEvictionOrder) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  // One shard so the LRU order is global and exact.
  ProgramCache cache(/*capacity=*/2, /*num_shards=*/1);
  State s1 = SplitState(&dag, 2);
  State s2 = SplitState(&dag, 4);
  State s3 = SplitState(&dag, 8);

  cache.GetOrBuild(s1);
  cache.GetOrBuild(s2);
  EXPECT_EQ(cache.size(), 2u);
  cache.GetOrBuild(s1);  // hit: s1 becomes most recent, s2 is now LRU
  cache.GetOrBuild(s3);  // evicts s2, not s1

  ProgramCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(cache.size(), 2u);

  cache.GetOrBuild(s1);  // survived the eviction: hit
  EXPECT_EQ(cache.stats().hits, 2);
  cache.GetOrBuild(s2);  // was evicted: miss
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(ProgramCache, CapacityZeroBypassesStorage) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  ProgramCache cache(/*capacity=*/0);
  State s = SplitState(&dag, 4);
  ProgramArtifactPtr a = cache.GetOrBuild(s);
  ProgramArtifactPtr b = cache.GetOrBuild(s);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());  // nothing is stored
  EXPECT_EQ(cache.size(), 0u);
  ProgramCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 0);
  // Bypass must be semantically invisible: both builds agree bit-for-bit.
  EXPECT_EQ(a->signature(), b->signature());
  EXPECT_EQ(a->features(), b->features());
}

TEST(ProgramCache, FailedStatesAreNotCached) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  ProgramCache cache;
  State bad(&dag);
  EXPECT_FALSE(bad.Split("no_such_stage", 0, {2}));
  ASSERT_TRUE(bad.failed());
  ProgramArtifactPtr artifact = cache.GetOrBuild(bad);
  ASSERT_NE(artifact, nullptr);
  EXPECT_FALSE(artifact->ok());
  // Failed states share the normalized empty step history, so caching them
  // would alias every failure onto one artifact.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProgramCache, DagIdentityIsPartOfTheKey) {
  // Identical step lists over different DAGs must not alias, so one cache
  // can safely be shared across tasks.
  ComputeDAG dag_a = testing::Matmul(16, 16, 16);
  ComputeDAG dag_b = testing::Matmul(32, 32, 32);
  ProgramCache cache;
  ProgramArtifactPtr a = cache.GetOrBuild(SplitState(&dag_a, 4));
  ProgramArtifactPtr b = cache.GetOrBuild(SplitState(&dag_b, 4));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(ProgramCacheConcurrency, ShardedParallelGetOrBuild) {
  // Hammer a small sharded cache from a pool; run under the tsan preset.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  Rng rng(3);
  auto population = SampleLowerablePopulation(&dag, 8, &rng);
  ASSERT_EQ(population.size(), 8u);

  ProgramCache cache(/*capacity=*/64, /*num_shards=*/4);
  ThreadPool pool(4);
  const size_t kLookups = 128;
  std::vector<ProgramArtifactPtr> out(kLookups);
  pool.ParallelFor(kLookups, [&](size_t i) {
    out[i] = cache.GetOrBuild(population[i % population.size()]);
  });

  for (size_t i = 0; i < kLookups; ++i) {
    ASSERT_NE(out[i], nullptr);
    EXPECT_TRUE(out[i]->ok());
    EXPECT_EQ(out[i]->signature(), StepSignature(population[i % population.size()]));
  }
  ProgramCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups(), static_cast<int64_t>(kLookups));
  EXPECT_GT(stats.hits, 0);
  EXPECT_LE(cache.size(), 8u);
}

TEST(ProgramCacheConcurrency, ConcurrentStageScoreMemos) {
  // Parallel crossover-heavy evolution against a shared cache exercises the
  // artifact score-memo locking; run under the tsan preset.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  Rng rng(5);
  auto init = SampleLowerablePopulation(&dag, 8, &rng);
  ASSERT_FALSE(init.empty());
  ProgramCache cache;
  ThreadPool pool(4);
  RandomCostModel model(9);
  EvolutionOptions options;
  options.population = 16;
  options.generations = 2;
  options.crossover_probability = 1.0;
  options.thread_pool = &pool;
  options.program_cache = &cache;
  EvolutionarySearch es(&dag, &model, Rng(10), options);
  EXPECT_FALSE(es.Evolve(init, 4).empty());
  EXPECT_GT(es.stats().crossover_score_hits + es.stats().crossover_score_misses, 0);
}

// Same seed ⇒ bit-identical evolution results for any thread count and any
// cache capacity (0 = disabled, tiny = eviction-heavy, default).
TEST(ProgramCacheDeterminism, EvolveThreadAndCapacityMatrix) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  Rng init_rng(25);
  auto init = SampleLowerablePopulation(&dag, 8, &init_rng);
  ASSERT_EQ(init.size(), 8u);

  // GBDT model trained identically per run so crossover stage scores are
  // real learned values, not constants.
  auto run = [&](size_t threads, size_t capacity) {
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

    ThreadPool pool(threads);
    ProgramCache cache(capacity);
    EvolutionOptions options;
    options.population = 16;
    options.generations = 3;
    options.crossover_probability = 0.5;
    options.thread_pool = &pool;
    options.program_cache = &cache;
    EvolutionarySearch es(&dag, &model, Rng(26), options);
    std::vector<std::string> sigs;
    for (const State& s : es.Evolve(init, 6)) {
      sigs.push_back(StepSignature(s));
    }
    EXPECT_FALSE(sigs.empty());
    return sigs;
  };

  auto reference = run(1, ProgramCache::kDefaultCapacity);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t capacity : {size_t{0}, size_t{2}, ProgramCache::kDefaultCapacity}) {
      EXPECT_EQ(run(threads, capacity), reference)
          << "threads=" << threads << " capacity=" << capacity;
    }
  }
}

// Same matrix through the full tuning loop: TuneTask must produce a
// bit-identical history whether the task cache is disabled, tiny, or
// default-sized, on 1 or 4 threads.
TEST(ProgramCacheDeterminism, TuneTaskThreadAndCapacityMatrix) {
  auto run = [&](size_t threads, size_t capacity) {
    ThreadPool pool(threads);
    MeasureOptions mopts;
    mopts.thread_pool = &pool;
    Measurer measurer(MachineModel::IntelCpu20Core(), mopts);
    GbdtCostModel model;
    SearchTask task = MakeSearchTask("t", testing::Matmul(64, 64, 64));
    SearchOptions options = testing::SmallSearchOptions();
    options.thread_pool = &pool;
    ProgramCache cache(capacity);
    options.program_cache = &cache;
    return TuneTask(task, &measurer, &model, /*trials=*/24, 8, options);
  };

  TuneResult reference = run(1, ProgramCache::kDefaultCapacity);
  ASSERT_TRUE(reference.best_state.has_value());
  auto check = [&](size_t threads, size_t capacity) {
    TuneResult r = run(threads, capacity);
    ASSERT_EQ(r.history.size(), reference.history.size());
    for (size_t i = 0; i < r.history.size(); ++i) {
      EXPECT_EQ(r.history[i].first, reference.history[i].first);
      EXPECT_EQ(r.history[i].second, reference.history[i].second)  // bit-identical
          << "threads=" << threads << " capacity=" << capacity << " round=" << i;
    }
    EXPECT_EQ(r.best_seconds, reference.best_seconds);
    ASSERT_TRUE(r.best_state.has_value());
    EXPECT_EQ(StepSignature(*r.best_state), StepSignature(*reference.best_state));
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t capacity : {size_t{0}, size_t{8}, ProgramCache::kDefaultCapacity}) {
      check(threads, capacity);
    }
  }
}

TEST(ProgramCacheIntegration, TuneRoundReusesArtifactsAcrossConsumers) {
  // One round compiles each candidate at most once across evolution scoring,
  // the pre-measurement filter and training-feature extraction — so cache
  // hits must appear,
  // and a second round seeded with the best measured programs must hit on
  // artifacts compiled in round one.
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchTask task = MakeSearchTask("t", testing::Matmul(32, 32, 32));
  TaskTuner tuner(task, &measurer, &model, testing::SmallSearchOptions());

  tuner.TuneRound(8);
  ProgramCacheStats after_one = tuner.program_cache().stats();
  EXPECT_GT(after_one.lookups(), 0);
  EXPECT_GT(after_one.hits, 0);

  tuner.TuneRound(8);
  ProgramCacheStats after_two = tuner.program_cache().stats();
  EXPECT_GT(after_two.hits, after_one.hits);
}

TEST(ProgramCacheIntegration, SchedulerAggregatesPerTaskCaches) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeSearchTask("a", testing::Matmul(16, 16, 16)),
                                   MakeSearchTask("b", testing::MatmulRelu(16, 16, 16))};
  std::vector<NetworkSpec> nets(1);
  nets[0].name = "net";
  nets[0].task_indices = {0, 1};
  TaskSchedulerOptions options;
  options.measures_per_round = 8;
  options.search = testing::SmallSearchOptions();
  TaskScheduler scheduler(std::move(tasks), std::move(nets), Objective::SumLatency(),
                          &measurer, &model, options);
  scheduler.Tune(4);
  // Each tuner owns its task-lifetime cache: the scheduler's total is the sum.
  ProgramCacheStats total;
  for (const auto& tuner : scheduler.tuners()) {
    ProgramCacheStats s = tuner->program_cache().stats();
    total.hits += s.hits;
    total.misses += s.misses;
  }
  EXPECT_GT(total.lookups(), 0);
  EXPECT_GT(total.hits, 0);
}

}  // namespace
}  // namespace ansor
