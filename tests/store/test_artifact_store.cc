// ArtifactStore: snapshot capture/restore round trips, lazy warm artifacts,
// and the zero-rebuild warm-start determinism contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>

#include "src/costmodel/cost_model.h"
#include "src/hwsim/measurer.h"
#include "src/lower/loop_tree.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/store/artifact_store.h"
#include "src/store/bytes.h"
#include "src/support/thread_pool.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

std::shared_ptr<const ComputeDAG> SharedMatmul() {
  return std::make_shared<const ComputeDAG>(testing::Matmul(16, 16, 16));
}

// A few distinct valid programs on the DAG.
std::vector<State> SamplePrograms(const ComputeDAG* dag) {
  std::vector<State> states;
  {
    State s(dag);
    EXPECT_TRUE(s.Split("C", 0, {4}));
    EXPECT_TRUE(s.Annotate("C", 0, IterAnnotation::kParallel));
    states.push_back(std::move(s));
  }
  {
    State s(dag);
    EXPECT_TRUE(s.Split("C", 1, {8}));
    states.push_back(std::move(s));
  }
  {
    State s(dag);
    EXPECT_TRUE(s.Fuse("C", 0, 2));
    states.push_back(std::move(s));
  }
  return states;
}

TEST(ArtifactStoreTest, CaptureSerializeLoadRoundTrip) {
  auto dag = SharedMatmul();
  ProgramCache cache(64, /*num_shards=*/1);
  for (const State& s : SamplePrograms(dag.get())) {
    cache.GetOrBuild(s);
  }
  ArtifactStore store;
  EXPECT_EQ(store.CaptureCache(cache, "mm"), 3u);
  EXPECT_EQ(store.stats().added, 3);

  ArtifactStore loaded;
  ArtifactLoadStats stats = loaded.Deserialize(store.Serialize());
  EXPECT_TRUE(stats);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(loaded.size(), 3u);
  // Every field of every snapshot survives: tag, flags, steps, bit-exact
  // features and resource verdicts re-encode to the same bytes, in order.
  EXPECT_EQ(loaded.Serialize(), store.Serialize());
}

TEST(ArtifactStoreTest, DedupByTaskAndSignature) {
  auto dag = SharedMatmul();
  ProgramCache cache(64, 1);
  for (const State& s : SamplePrograms(dag.get())) {
    cache.GetOrBuild(s);
  }
  ArtifactStore store;
  EXPECT_EQ(store.CaptureCache(cache, "a"), 3u);
  EXPECT_EQ(store.CaptureCache(cache, "b"), 0u);  // same programs: all duplicates
  EXPECT_EQ(store.stats().added, 3);
  EXPECT_EQ(store.stats().deduplicated, 3);
}

TEST(ArtifactStoreTest, WarmCacheServesEverythingWithoutRebuilds) {
  auto dag = SharedMatmul();
  std::vector<State> programs = SamplePrograms(dag.get());
  ProgramCache cold(64, 1);
  for (const State& s : programs) {
    cold.GetOrBuild(s);
  }
  ArtifactStore store;
  store.CaptureCache(cold, "");

  ProgramCache warm(64, 1);
  EXPECT_EQ(store.WarmCache(&warm, dag), 3u);
  EXPECT_EQ(warm.stats().warm_inserts, 3);
  EXPECT_EQ(warm.stats().lookups(), 0);  // warm inserts are not lookups

  for (const State& s : programs) {
    ProgramArtifactPtr a = warm.GetOrBuild(s);
    EXPECT_FALSE(a->materialized()) << "warm hit must not re-lower";
  }
  EXPECT_EQ(warm.stats().hits, 3);
  EXPECT_EQ(warm.stats().misses, 0);
}

TEST(ArtifactStoreTest, LazyMaterializationMatchesColdBuild) {
  auto dag = SharedMatmul();
  State state = SamplePrograms(dag.get())[0];
  ProgramCache cold_cache(8, 1);
  ProgramArtifactPtr cold = cold_cache.GetOrBuild(state);

  ArtifactStore store;
  store.CaptureCache(cold_cache, "");
  ProgramCache warm_cache(8, 1);
  ASSERT_EQ(store.WarmCache(&warm_cache, dag), 1u);
  ProgramArtifactPtr warm = warm_cache.GetOrBuild(state);

  // Everything the scoring/filtering path reads is served unmaterialized...
  ASSERT_FALSE(warm->materialized());
  EXPECT_EQ(warm->signature(), cold->signature());
  EXPECT_TRUE(warm->features() == cold->features());
  EXPECT_EQ(warm->statically_legal(), cold->statically_legal());
  ASSERT_FALSE(warm->materialized());
  // ...and on-demand materialization reproduces the cold build exactly.
  EXPECT_EQ(warm->verifier_report().ToString(), cold->verifier_report().ToString());
  EXPECT_TRUE(warm->materialized());
  EXPECT_EQ(warm->verifier_report().legal(), cold->verifier_report().legal());
}

TEST(ArtifactStoreTest, ResourceVerdictsRestoreWithoutMaterializing) {
  auto dag = SharedMatmul();
  State state = SamplePrograms(dag.get())[0];
  MachineModel machine = MachineModel::IntelCpu20Core();
  ProgramCache cold_cache(8, 1);
  ProgramArtifactPtr cold = cold_cache.GetOrBuild(state);
  bool cold_passed = !cold->resource_verdict(machine)->failed();

  ArtifactStore store;
  store.CaptureCache(cold_cache, "");
  ProgramCache warm_cache(8, 1);
  store.WarmCache(&warm_cache, dag);
  ProgramArtifactPtr warm = warm_cache.GetOrBuild(state);
  EXPECT_EQ(!warm->resource_verdict(machine)->failed(), cold_passed);
  EXPECT_FALSE(warm->materialized()) << "memoized verdict must not re-lower";
}

// The programs of the LowerGolden corpus (tests/lower/test_lower.cc): 12
// fixed-seed sampled programs of each of four DAGs, on CPU and on GPU.
std::vector<State> LowerGoldenCorpus(
    const std::vector<std::shared_ptr<const ComputeDAG>>& dags) {
  std::vector<State> programs;
  for (bool gpu : {false, true}) {
    SamplerOptions options;
    options.gpu = gpu;
    for (size_t d = 0; d < dags.size(); ++d) {
      std::vector<State> sketches = GenerateSketches(dags[d].get());
      Rng rng(2000 + d + (gpu ? 100 : 0));
      int kept = 0;
      for (int attempt = 0; attempt < 400 && kept < 12; ++attempt) {
        State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())],
                                              dags[d].get(), &rng, options);
        if (!program.failed()) {
          programs.push_back(std::move(program));
          ++kept;
        }
      }
    }
  }
  return programs;
}

// An artifact checks resources against the summary it keeps in place of its
// loop tree. For every machine preset, plus a narrow model on which every
// kind of violation fires, a cold artifact's and a store-restored warm
// artifact's resource_verdict must equal VerifyResources on a fresh lowering:
// the verdict and every diagnostic, in order. Besides the LowerGolden corpus
// the programs include a C1D l256c64k3 state whose vectorized pad loop has
// extent 258, over both CPUs' register budgets: the violation the vendor
// baseline's expert annotation makes on that workload.
TEST(ArtifactStoreTest, ResourceVerdictsMatchVerifyResourcesOnLowerGoldenCorpus) {
  std::vector<std::shared_ptr<const ComputeDAG>> dags = {
      std::make_shared<const ComputeDAG>(testing::MatmulRelu(64, 64, 64)),
      std::make_shared<const ComputeDAG>(MakeConv2d(1, 16, 14, 14, 32, 3, 3, 1, 1)),
      std::make_shared<const ComputeDAG>(testing::ReluPadMatmul(16, 8, 64, 48)),
      std::make_shared<const ComputeDAG>(MakeNorm(4, 1024))};
  std::vector<State> programs = LowerGoldenCorpus(dags);
  ASSERT_EQ(programs.size(), 96u);
  dags.push_back(std::make_shared<const ComputeDAG>(MakeConv1d(1, 64, 256, 64, 3, 1, 1)));
  State expert(dags.back().get());
  const int pad_iters = static_cast<int>(expert.stage(expert.StageIndex("pad")).iters.size());
  ASSERT_TRUE(expert.Annotate("pad", pad_iters - 1, IterAnnotation::kVectorize));
  programs.push_back(expert);

  MachineModel narrow = MachineModel::NvidiaGpu();
  narrow.name = "narrow";
  narrow.memory_capacity_bytes = 32 * 1024;
  narrow.max_vector_extent = 4;
  narrow.max_threads_per_core = 32;
  const std::vector<MachineModel> machines = {MachineModel::IntelCpu20Core(),
                                              MachineModel::ArmCpu4Core(),
                                              MachineModel::NvidiaGpu(), narrow};

  // The store captures the cold cache before any resource verdict exists, so
  // every warm verdict below is re-derived, not restored.
  ProgramCache cold_cache(1024, 1);
  for (const State& s : programs) {
    cold_cache.GetOrBuild(s);
  }
  ArtifactStore store;
  store.CaptureCache(cold_cache, "");
  ProgramCache warm_cache(1024, 1);
  for (const auto& dag : dags) {
    store.WarmCache(&warm_cache, dag);
  }

  std::set<std::string> failed_on;
  std::set<std::string> narrow_violations;
  for (const State& s : programs) {
    const LoweredProgram lowered = Lower(s);
    ProgramArtifactPtr cold = cold_cache.GetOrBuild(s);
    ProgramArtifactPtr warm = warm_cache.GetOrBuild(s);
    ASSERT_NE(cold.get(), warm.get());
    for (const MachineModel& machine : machines) {
      const CheckVerdict expected = VerifyResources(lowered, machine);
      for (const ProgramArtifactPtr& artifact : {cold, warm}) {
        std::shared_ptr<const CheckVerdict> got = artifact->resource_verdict(machine);
        EXPECT_EQ(got->verdict, expected.verdict) << machine.name << "\n" << StepSignature(s);
        EXPECT_EQ(got->diagnostics, expected.diagnostics) << machine.name;
      }
      if (expected.failed()) {
        failed_on.insert(machine.name);
      }
      if (machine.name == narrow.name) {
        for (const std::string& diagnostic : expected.diagnostics) {
          for (const char* kind : {"buffer footprint", "vectorized loop", "thread-bound loop"}) {
            if (diagnostic.find(kind) != std::string::npos) {
              narrow_violations.insert(kind);
            }
          }
        }
      }
    }
    EXPECT_TRUE(warm->materialized());
  }
  const CheckVerdict c1d = VerifyResources(Lower(expert), MachineModel::IntelCpu20Core());
  ASSERT_EQ(c1d.diagnostics.size(), 1u);
  EXPECT_NE(c1d.diagnostics[0].find("vectorized loop extent 258"), std::string::npos)
      << c1d.diagnostics[0];
  EXPECT_EQ(failed_on, (std::set<std::string>{MachineModel::IntelCpu20Core().name,
                                              MachineModel::ArmCpu4Core().name, "narrow"}));
  EXPECT_EQ(narrow_violations.size(), 3u) << "each kind of resource violation must fire";
}

// Four pool threads read legality at once from shared cold and warm
// artifacts: statically_legal(&machine) races on the resource memo and, on a
// warm artifact, on the materialization that derives the summary it checks;
// verifier_report() races on the same materialization. Every thread must see
// what a serial build computes.
TEST(ArtifactStoreTest, ConcurrentLegalityReadsOnSharedColdAndWarmArtifacts) {
  auto dag = SharedMatmul();
  std::vector<State> programs = SamplePrograms(dag.get());
  ProgramCache cold_cache(64, 1);
  std::vector<ProgramArtifactPtr> shared;
  for (const State& s : programs) {
    shared.push_back(cold_cache.GetOrBuild(s));
  }
  ArtifactStore store;
  store.CaptureCache(cold_cache, "");
  ProgramCache warm_cache(64, 1);
  ASSERT_EQ(store.WarmCache(&warm_cache, dag), programs.size());
  for (const State& s : programs) {
    shared.push_back(warm_cache.GetOrBuild(s));
    ASSERT_FALSE(shared.back()->materialized());
  }
  MachineModel tiny = MachineModel::IntelCpu20Core();
  tiny.name = "tiny";
  tiny.memory_capacity_bytes = 1024;  // no 16x16 matmul fits
  const std::vector<MachineModel> machines = {MachineModel::IntelCpu20Core(), tiny};
  auto describe = [&machines](const ProgramArtifact& a) {
    std::string entry = a.signature();
    for (const MachineModel& machine : machines) {
      entry += a.statically_legal(&machine) ? " legal" : " illegal";
    }
    return entry + "\n" + a.verifier_report().ToString();
  };

  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> seen(kThreads,
                                             std::vector<std::string>(shared.size()));
  std::atomic<size_t> arrived{0};
  {
    // One task per worker; each spins until all four run, so the first reads
    // of every artifact overlap. The pool's destructor joins them.
    ThreadPool pool(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      pool.Enqueue([&, t] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) {
        }
        for (size_t i = 0; i < shared.size(); ++i) {
          const size_t k = (i + t) % shared.size();
          seen[t][k] = describe(*shared[k]);
        }
      });
    }
  }
  std::vector<std::string> expected;
  for (size_t k = 0; k < shared.size(); ++k) {
    expected.push_back(describe(ProgramArtifact(programs[k % programs.size()])));
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], expected) << "thread " << t;
  }
  for (const ProgramArtifactPtr& a : shared) {
    EXPECT_TRUE(a->materialized());
  }
}

TEST(ArtifactStoreTest, FileRoundTripAndMissingFile) {
  auto dag = SharedMatmul();
  ProgramCache cache(64, 1);
  for (const State& s : SamplePrograms(dag.get())) {
    cache.GetOrBuild(s);
  }
  ArtifactStore store;
  store.CaptureCache(cache, "t");
  std::string path = ::testing::TempDir() + "/ansor_artifacts_test.bin";
  ASSERT_TRUE(store.SaveToFile(path));
  ArtifactStore loaded;
  EXPECT_TRUE(loaded.LoadFromFile(path));
  EXPECT_EQ(loaded.size(), 3u);
  std::remove(path.c_str());

  ArtifactStore missing;
  EXPECT_FALSE(missing.LoadFromFile(path));
  EXPECT_EQ(missing.size(), 0u);
}

TEST(ArtifactStoreTest, InterruptedSaveAtEveryByteKeepsOldState) {
  auto dag = SharedMatmul();
  std::vector<State> programs = SamplePrograms(dag.get());
  ProgramCache cache(64, 1);
  cache.GetOrBuild(programs[0]);
  ArtifactStore old_store;
  old_store.CaptureCache(cache, "t");
  for (const State& s : programs) {
    cache.GetOrBuild(s);
  }
  ArtifactStore new_store;
  new_store.CaptureCache(cache, "t");
  std::string path = ::testing::TempDir() + "/ansor_interrupted_artifacts.bin";
  ASSERT_TRUE(old_store.SaveToFile(path));

  auto loads = [&](const ArtifactStore& expected) {
    ArtifactStore loaded;
    return loaded.LoadFromFile(path).ok && loaded.Serialize() == expected.Serialize();
  };
  testing::ExpectEveryCutSaveKeepsOldFile(
      path, new_store.Serialize().size(), [&] { return new_store.SaveToFile(path); },
      [&] { return loads(old_store); });

  ASSERT_TRUE(new_store.SaveToFile(path));
  EXPECT_TRUE(loads(new_store));
  std::remove(path.c_str());
}

TEST(ArtifactStoreTest, CorruptionNeverCrashes) {
  auto dag = SharedMatmul();
  ProgramCache cache(64, 1);
  for (const State& s : SamplePrograms(dag.get())) {
    cache.GetOrBuild(s);
  }
  ArtifactStore store;
  store.CaptureCache(cache, "");
  std::string bytes = store.Serialize();

  for (size_t cut = 0; cut < bytes.size(); cut += 5) {
    ArtifactStore truncated;
    ArtifactLoadStats stats = truncated.Deserialize(bytes.substr(0, cut));
    if (stats.ok) {
      EXPECT_EQ(stats.loaded + stats.skipped, 3u) << "cut=" << cut;
    }
  }
  for (size_t pos = 8; pos < bytes.size(); pos += 11) {
    std::string corrupted = bytes;
    corrupted[pos] ^= 0x40;
    ArtifactStore store2;
    ArtifactLoadStats stats = store2.Deserialize(corrupted);  // must not crash
    EXPECT_LE(stats.loaded, 3u);
  }
}

TEST(ArtifactStoreTest, CraftedHugeStepCountFailsCleanly) {
  // One snapshot body claiming 2^28 steps in a 28-byte container: the count
  // exceeds the bytes left, so the body is skipped before its step list is
  // sized, instead of aborting the process that warm-starts from it.
  ByteWriter body;
  body.PutU64(1);            // task id
  body.PutVarint(0);         // tag: string 0
  body.PutU8(0);             // flags
  body.PutVarint(1u << 28);  // step count
  ByteWriter w;
  w.PutRaw("ANSRART1", 8);
  w.PutVarint(1);
  w.PutString("t");
  w.PutVarint(1);  // one snapshot
  w.PutVarint(body.size());
  w.PutRaw(body.buffer().data(), body.size());
  ArtifactStore store;
  ArtifactLoadStats stats = store.Deserialize(w.Take());
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(store.size(), 0u);
}

// The warm-start determinism matrix: a search resumed from a snapshot of an
// identical prior run is bit-identical to that run and rebuilds nothing.
TEST(WarmStartDeterminism, ResumedRunIsBitIdenticalWithZeroRebuilds) {
  auto run = [](ProgramCache* cache) {
    SearchTask task = MakeSearchTask("mm", testing::Matmul(16, 16, 16));
    Measurer measurer(MachineModel::IntelCpu20Core());
    GbdtCostModel model;
    SearchOptions options = testing::SmallSearchOptions();
    options.program_cache = cache;
    return TuneTask(task, &measurer, &model, 16, 8, options);
  };

  ProgramCache cold_cache(4096, 1);
  TuneResult cold = run(&cold_cache);
  ASSERT_TRUE(cold.best_state.has_value());

  ArtifactStore store;
  store.CaptureCache(cold_cache, "");
  ASSERT_GT(store.size(), 0u);

  // Round trip through bytes: the resumed process only has the file.
  ArtifactStore restored;
  ASSERT_TRUE(restored.Deserialize(store.Serialize()));
  ProgramCache warm_cache(4096, 1);
  auto dag = std::make_shared<const ComputeDAG>(testing::Matmul(16, 16, 16));
  ASSERT_GT(restored.WarmCache(&warm_cache, dag), 0u);

  TuneResult warm = run(&warm_cache);
  EXPECT_EQ(warm.best_seconds, cold.best_seconds);  // bit-identical
  EXPECT_EQ(warm.history, cold.history);
  ASSERT_TRUE(warm.best_state.has_value());
  EXPECT_EQ(StepSignature(*warm.best_state), StepSignature(*cold.best_state));

  ProgramCacheStats stats = warm_cache.stats();
  EXPECT_EQ(stats.misses, 0) << "a resumed run must rebuild nothing it has seen";
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.warm_inserts, 0);
}

}  // namespace
}  // namespace ansor
