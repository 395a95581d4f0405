// ArtifactStore: snapshot capture/restore round trips, warm artifacts that
// equal their cold builds, and the zero-rebuild warm-start determinism
// contract.
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
  EXPECT_EQ(store.CaptureCache(cache), 3u);
  EXPECT_EQ(store.stats().added, 3);

  ArtifactStore loaded;
  ArtifactLoadStats stats = loaded.Deserialize(store.Serialize());
  EXPECT_TRUE(stats);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(loaded.size(), 3u);
  // Every field of every snapshot survives: steps, bit-exact features,
  // verifier reports and resource verdicts re-encode to the same bytes, in
  // order.
  EXPECT_EQ(loaded.Serialize(), store.Serialize());
}

TEST(ArtifactStoreTest, DedupByTaskAndSignature) {
  auto dag = SharedMatmul();
  ProgramCache cache(64, 1);
  for (const State& s : SamplePrograms(dag.get())) {
    cache.GetOrBuild(s);
  }
  ArtifactStore store;
  EXPECT_EQ(store.CaptureCache(cache), 3u);
  EXPECT_EQ(store.CaptureCache(cache), 0u);  // same programs: all duplicates
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
  store.CaptureCache(cold);

  ProgramCache warm(64, 1);
  EXPECT_EQ(store.WarmCache(&warm, dag->CanonicalHash()), 3u);
  EXPECT_EQ(warm.stats().warm_inserts, 3);
  EXPECT_EQ(warm.stats().lookups(), 0);  // warm inserts are not lookups

  for (const State& s : programs) {
    warm.GetOrBuild(s);
  }
  EXPECT_EQ(warm.stats().hits, 3);
  EXPECT_EQ(warm.stats().misses, 0);
}

// A warm artifact is the cold build: same report, summary, features and
// resource verdicts, diagnostics included, on a machine every program fits
// and on one none fits.
TEST(ArtifactStoreTest, WarmArtifactMatchesColdBuild) {
  auto dag = SharedMatmul();
  MachineModel tiny = MachineModel::IntelCpu20Core();
  tiny.name = "tiny";
  tiny.memory_capacity_bytes = 1024;  // no 16x16 matmul fits
  const std::vector<MachineModel> machines = {MachineModel::IntelCpu20Core(), tiny};
  std::vector<State> programs = SamplePrograms(dag.get());
  ProgramCache cold_cache(8, 1);
  for (const State& s : programs) {
    cold_cache.GetOrBuild(s);
  }
  ArtifactStore store;
  store.CaptureCache(cold_cache);
  ArtifactStore restored;
  ASSERT_TRUE(restored.Deserialize(store.Serialize()));
  ProgramCache warm_cache(8, 1);
  ASSERT_EQ(restored.WarmCache(&warm_cache, dag->CanonicalHash()), programs.size());

  for (const State& s : programs) {
    ProgramArtifactPtr cold = cold_cache.GetOrBuild(s);
    ProgramArtifactPtr warm = warm_cache.GetOrBuild(s);
    ASSERT_NE(cold.get(), warm.get());
    EXPECT_EQ(warm->signature(), cold->signature());
    EXPECT_EQ(warm->task_id(), cold->task_id());
    EXPECT_EQ(warm->ok(), cold->ok());
    EXPECT_TRUE(warm->features() == cold->features());
    EXPECT_EQ(warm->verifier_report().ToString(), cold->verifier_report().ToString());
    EXPECT_EQ(warm->statically_legal(), cold->statically_legal());
    const ResourceSummary& want = cold->resource_summary();
    const ResourceSummary& got = warm->resource_summary();
    EXPECT_EQ(got.lowered, want.lowered);
    EXPECT_EQ(got.footprint_bytes, want.footprint_bytes);
    ASSERT_EQ(got.loops.size(), want.loops.size());
    for (size_t i = 0; i < got.loops.size(); ++i) {
      EXPECT_EQ(got.loops[i].stage, want.loops[i].stage);
      EXPECT_EQ(got.loops[i].annotation, want.loops[i].annotation);
      EXPECT_EQ(got.loops[i].extent, want.loops[i].extent);
    }
    for (const MachineModel& machine : machines) {
      const CheckVerdict expected = cold->resource_verdict(machine);
      const CheckVerdict restored_verdict = warm->resource_verdict(machine);
      EXPECT_EQ(restored_verdict.verdict, expected.verdict) << machine.name;
      EXPECT_EQ(restored_verdict.diagnostics, expected.diagnostics) << machine.name;
      EXPECT_EQ(warm->statically_legal(&machine), cold->statically_legal(&machine));
    }
    EXPECT_TRUE(cold->resource_verdict(tiny).failed());
  }
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
// extent 258, over both CPUs' register budgets (the violation an expert
// annotation that ignores the register budget makes there), and a dense
// state whose lowering fails, so its verdict is kSkipped on every machine.
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
  dags.push_back(std::make_shared<const ComputeDAG>(MakeDense(16, 16, 16)));
  State unlowerable(dags.back().get());
  ASSERT_TRUE(unlowerable.ComputeAt("bias_relu", "dense", 0));
  ASSERT_FALSE(Lower(unlowerable).ok);
  programs.push_back(unlowerable);

  MachineModel narrow = MachineModel::NvidiaGpu();
  narrow.name = "narrow";
  narrow.memory_capacity_bytes = 32 * 1024;
  narrow.max_vector_extent = 4;
  narrow.max_threads_per_core = 32;
  const std::vector<MachineModel> machines = {MachineModel::IntelCpu20Core(),
                                              MachineModel::ArmCpu4Core(),
                                              MachineModel::NvidiaGpu(), narrow};

  // One store captures the cold cache before any resource verdict is
  // computed and one after every cold verdict is, so neither what a cold
  // artifact was asked before capture nor the order of the asks can change
  // what a warm artifact answers.
  ProgramCache cold_cache(1024, 1);
  for (const State& s : programs) {
    cold_cache.GetOrBuild(s);
  }
  ArtifactStore before;
  before.CaptureCache(cold_cache);
  for (const State& s : programs) {
    for (const MachineModel& machine : machines) {
      cold_cache.GetOrBuild(s)->resource_verdict(machine);
    }
  }
  ArtifactStore after;
  after.CaptureCache(cold_cache);
  ProgramCache warm_before(1024, 1);
  ProgramCache warm_after(1024, 1);
  for (const auto& dag : dags) {
    ASSERT_GT(before.WarmCache(&warm_before, dag->CanonicalHash()), 0u);
    ASSERT_GT(after.WarmCache(&warm_after, dag->CanonicalHash()), 0u);
  }

  std::set<std::string> failed_on;
  std::set<std::string> narrow_violations;
  for (const State& s : programs) {
    const LoweredProgram lowered = Lower(s);
    ProgramArtifactPtr cold = cold_cache.GetOrBuild(s);
    ProgramArtifactPtr warm = warm_before.GetOrBuild(s);
    ProgramArtifactPtr rewarm = warm_after.GetOrBuild(s);
    ASSERT_NE(cold.get(), warm.get());
    ASSERT_NE(cold.get(), rewarm.get());
    for (const MachineModel& machine : machines) {
      const CheckVerdict expected = VerifyResources(lowered, machine);
      for (const ProgramArtifactPtr& artifact : {cold, warm, rewarm}) {
        const CheckVerdict got = artifact->resource_verdict(machine);
        EXPECT_EQ(got.verdict, expected.verdict) << machine.name << "\n" << StepSignature(s);
        EXPECT_EQ(got.diagnostics, expected.diagnostics) << machine.name;
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
  }
  for (const MachineModel& machine : machines) {
    EXPECT_EQ(VerifyResources(Lower(unlowerable), machine).verdict, VerifierVerdict::kSkipped);
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
// artifacts through statically_legal(&machine) and verifier_report(). The
// artifacts are immutable, so the reads need no synchronization; every
// thread must see what a serial build computes.
TEST(ArtifactStoreTest, ConcurrentLegalityReadsOnSharedColdAndWarmArtifacts) {
  auto dag = SharedMatmul();
  std::vector<State> programs = SamplePrograms(dag.get());
  ProgramCache cold_cache(64, 1);
  std::vector<ProgramArtifactPtr> shared;
  for (const State& s : programs) {
    shared.push_back(cold_cache.GetOrBuild(s));
  }
  ArtifactStore store;
  store.CaptureCache(cold_cache);
  ProgramCache warm_cache(64, 1);
  ASSERT_EQ(store.WarmCache(&warm_cache, dag->CanonicalHash()), programs.size());
  for (const State& s : programs) {
    shared.push_back(warm_cache.GetOrBuild(s));
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
}

TEST(ArtifactStoreTest, FileRoundTripAndMissingFile) {
  auto dag = SharedMatmul();
  ProgramCache cache(64, 1);
  for (const State& s : SamplePrograms(dag.get())) {
    cache.GetOrBuild(s);
  }
  ArtifactStore store;
  store.CaptureCache(cache);
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
  old_store.CaptureCache(cache);
  for (const State& s : programs) {
    cache.GetOrBuild(s);
  }
  ArtifactStore new_store;
  new_store.CaptureCache(cache);
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
  store.CaptureCache(cache);
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
  // One snapshot body claiming 2^28 steps in a 24-byte container: the count
  // exceeds the bytes left, so the body is skipped before its step list is
  // sized, instead of aborting the process that warm-starts from it.
  ByteWriter body;
  body.PutU64(1);            // task id
  body.PutVarint(1u << 28);  // step count
  ByteWriter w;
  w.PutRaw("ANSRART3", 8);
  w.PutVarint(0);  // no strings
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

// A container whose string table holds "t" and one snapshot body: task 1,
// no steps, an empty feature matrix, then `tail` (the verifier report and
// resource summary).
std::string OneSnapshotContainer(const std::string& magic, const ByteWriter& tail) {
  ByteWriter body;
  body.PutU64(1);     // task id
  body.PutVarint(0);  // step count
  body.PutVarint(0);  // feature dim
  body.PutVarint(0);  // feature rows
  body.PutRaw(tail.buffer().data(), tail.size());
  ByteWriter w;
  w.PutRaw(magic.data(), magic.size());
  w.PutVarint(1);
  w.PutString("t");
  w.PutVarint(1);  // one snapshot
  w.PutVarint(body.size());
  w.PutRaw(body.buffer().data(), body.size());
  return w.Take();
}

// Every verdict byte, annotation byte and count in a snapshot's report and
// summary is checked before it is trusted: a verdict byte of 3, an annotation
// past kVThread, and a diagnostic or loop count above the bytes left each
// skip the snapshot. The well-formed control shows the layout the bad cases
// perturb. A payload of an earlier format is refused as a whole: ANSRART1
// held pass/fail bits in place of the report, and ANSRART2 a cache tag per
// snapshot.
TEST(ArtifactStoreTest, CraftedReportAndSummaryFieldsFailCleanly) {
  // `verdict0`/`diagnostics0` fill the first check; the other four pass.
  auto tail = [](uint8_t verdict0, uint64_t diagnostics0, uint8_t annotation,
                 uint64_t num_loops) {
    ByteWriter w;
    w.PutU8(verdict0);
    w.PutVarint(diagnostics0);
    for (uint64_t i = 0; i < diagnostics0 && i < 8; ++i) {
      w.PutVarint(0);  // diagnostic: string 0
    }
    for (int c = 1; c < kNumVerifierChecks; ++c) {
      w.PutU8(static_cast<uint8_t>(VerifierVerdict::kPass));
      w.PutVarint(0);
    }
    w.PutU8(1);          // lowered
    w.PutZigzag(4096);   // footprint bytes
    w.PutVarint(num_loops);
    for (uint64_t i = 0; i < num_loops && i < 8; ++i) {
      w.PutVarint(0);  // stage: string 0
      w.PutU8(annotation);
      w.PutZigzag(8);  // extent
    }
    return w;
  };
  const auto pass = static_cast<uint8_t>(VerifierVerdict::kPass);
  const auto fail = static_cast<uint8_t>(VerifierVerdict::kFail);
  const auto vectorize = static_cast<uint8_t>(IterAnnotation::kVectorize);
  const auto past_last = static_cast<uint8_t>(static_cast<int>(IterAnnotation::kVThread) + 1);

  ArtifactStore control;
  ArtifactLoadStats loaded =
      control.Deserialize(OneSnapshotContainer("ANSRART3", tail(fail, 1, vectorize, 1)));
  ASSERT_TRUE(loaded.ok);
  ASSERT_EQ(loaded.loaded, 1u);
  ProgramCache cache(8, 1);
  ASSERT_EQ(control.WarmCache(&cache, 1), 1u);
  cache.ForEach([](const ProgramArtifactPtr& a) {
    EXPECT_EQ(a->verifier_report().check(VerifierCheck::kLowering).diagnostics,
              std::vector<std::string>{"t"});
    EXPECT_FALSE(a->statically_legal());
    ASSERT_EQ(a->resource_summary().loops.size(), 1u);
    EXPECT_EQ(a->resource_summary().loops[0].annotation, IterAnnotation::kVectorize);
    EXPECT_EQ(a->resource_summary().footprint_bytes, 4096);
  });

  const std::vector<std::pair<std::string, ByteWriter>> crafted = {
      {"verdict byte 3", tail(3, 0, vectorize, 1)},
      {"annotation past kVThread", tail(pass, 0, past_last, 1)},
      {"diagnostic count above the bytes left", tail(fail, 1u << 20, vectorize, 1)},
      {"loop count above the bytes left", tail(pass, 0, vectorize, 1u << 20)},
  };
  for (const auto& [name, bad] : crafted) {
    ArtifactStore store;
    ArtifactLoadStats stats = store.Deserialize(OneSnapshotContainer("ANSRART3", bad));
    EXPECT_TRUE(stats.ok) << name;
    EXPECT_EQ(stats.loaded, 0u) << name;
    EXPECT_EQ(stats.skipped, 1u) << name;
    EXPECT_EQ(store.size(), 0u) << name;
  }

  for (const char* old_magic : {"ANSRART1", "ANSRART2"}) {
    ArtifactStore old_format;
    ArtifactLoadStats old_stats =
        old_format.Deserialize(OneSnapshotContainer(old_magic, tail(pass, 0, vectorize, 1)));
    EXPECT_FALSE(old_stats.ok) << old_magic;
    EXPECT_EQ(old_stats.loaded, 0u) << old_magic;
    EXPECT_EQ(old_format.size(), 0u) << old_magic;
  }
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
  store.CaptureCache(cold_cache);
  ASSERT_GT(store.size(), 0u);

  // Round trip through bytes: the resumed process only has the file.
  ArtifactStore restored;
  ASSERT_TRUE(restored.Deserialize(store.Serialize()));
  ProgramCache warm_cache(4096, 1);
  auto dag = std::make_shared<const ComputeDAG>(testing::Matmul(16, 16, 16));
  ASSERT_GT(restored.WarmCache(&warm_cache, dag->CanonicalHash()), 0u);

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
