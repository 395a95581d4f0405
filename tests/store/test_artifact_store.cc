// ArtifactStore: snapshot capture/restore round trips, lazy warm artifacts,
// and the zero-rebuild warm-start determinism contract.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/costmodel/cost_model.h"
#include "src/hwsim/measurer.h"
#include "src/store/artifact_store.h"
#include "src/store/bytes.h"
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
  EXPECT_EQ(warm->lowered().ToString(), cold->lowered().ToString());
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
