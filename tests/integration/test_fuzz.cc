// Fuzz-style robustness tests: the schedule machinery must never abort on
// arbitrary step sequences — invalid programs fail gracefully (failed state /
// failed lowering / failed measurement), because the evolutionary search
// routinely produces and discards such candidates.
#include <gtest/gtest.h>

#include "src/exec/interpreter.h"
#include "src/hwsim/measurer.h"
#include "src/program/program_cache.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/store/artifact_store.h"
#include "src/store/record_store.h"
#include "tests/testing.h"

namespace ansor {
namespace {

// Generates a random (frequently invalid) step targeting random stages and
// iterators.
Step RandomStep(Rng* rng, const std::vector<std::string>& stage_names) {
  const std::string& stage = stage_names[rng->Index(stage_names.size())];
  switch (rng->Int(0, 9)) {
    case 0:
      return MakeSplitStep(stage, static_cast<int>(rng->Int(0, 6)),
                           {rng->Int(1, 8), rng->Int(1, 4)});
    case 1:
      return MakeFollowSplitStep(stage, static_cast<int>(rng->Int(0, 6)),
                                 static_cast<int>(rng->Int(0, 4)),
                                 static_cast<int>(rng->Int(2, 4)));
    case 2:
      return MakeFuseStep(stage, static_cast<int>(rng->Int(0, 5)),
                          static_cast<int>(rng->Int(2, 4)));
    case 3: {
      std::vector<int> order;
      size_t n = rng->Index(6) + 1;
      for (size_t i = 0; i < n; ++i) {
        order.push_back(static_cast<int>(rng->Int(0, static_cast<int64_t>(n) - 1)));
      }
      return MakeReorderStep(stage, order);
    }
    case 4:
      return MakeComputeAtStep(stage, stage_names[rng->Index(stage_names.size())],
                               static_cast<int>(rng->Int(0, 8)));
    case 5:
      return MakeComputeInlineStep(stage);
    case 6:
      return MakeCacheWriteStep(stage);
    case 7:
      return MakeRfactorStep(stage, static_cast<int>(rng->Int(0, 6)));
    case 8:
      return MakeAnnotationStep(stage, static_cast<int>(rng->Int(0, 8)),
                                static_cast<IterAnnotation>(rng->Int(0, 6)));
    default:
      return MakePragmaStep(stage, static_cast<int>(rng->Int(0, 600)));
  }
}

class StepFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StepFuzz, RandomStepSequencesNeverAbort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  ComputeDAG dag = testing::MatmulRelu(12, 12, 12);
  std::vector<std::string> stage_names = {"C", "D", "C.cache", "C.rf", "nonexistent"};
  Measurer measurer(MachineModel::IntelCpu20Core());

  for (int seq = 0; seq < 20; ++seq) {
    std::vector<Step> steps;
    int n_steps = static_cast<int>(rng.Int(1, 10));
    for (int i = 0; i < n_steps; ++i) {
      steps.push_back(RandomStep(&rng, stage_names));
    }
    State state = State::Replay(&dag, steps);
    if (state.failed()) {
      continue;  // graceful rejection
    }
    // Valid replays must lower-or-fail gracefully and, when they lower and
    // execute, must preserve semantics.
    LoweredProgram prog = Lower(state);
    if (!prog.ok) {
      continue;
    }
    EXPECT_EQ(VerifyAgainstNaive(state), "") << state.ToString();
    MeasureResult r = measurer.Measure(state);
    if (r.valid) {
      EXPECT_GT(r.seconds, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepFuzz, ::testing::Range(0, 10));

// A well-formed binary record container to mutate: a few tasks, realistic
// step lists, known totals.
std::string SeedRecordBytes() {
  RecordStore store;
  for (uint64_t task = 1; task <= 3; ++task) {
    for (int i = 0; i < 5; ++i) {
      TuningRecord r;
      r.task_id = task;
      r.seconds = 1e-3 / (1 + i);
      r.throughput = 1e9 * (1 + i);
      r.steps = {MakeSplitStep("C", 0, {4, static_cast<int64_t>(i + 1)}),
                 MakeAnnotationStep("C", 0, IterAnnotation::kParallel),
                 MakePragmaStep("C", 16 * (i + 1))};
      store.Add(std::move(r));
    }
  }
  return store.Serialize();
}

class BinaryRecordFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BinaryRecordFuzz, MutatedContainersNeverAbort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1013 + 17);
  const std::string seed = SeedRecordBytes();

  // Truncation at arbitrary offsets: loaded + skipped never exceeds the
  // record count the intact file carries, and nothing crashes.
  for (int trial = 0; trial < 40; ++trial) {
    std::string cut = seed.substr(0, rng.Index(seed.size() + 1));
    RecordStore store;
    RecordLoadStats stats = store.Deserialize(cut);
    EXPECT_EQ(store.size(), stats.loaded);
    EXPECT_LE(stats.loaded + stats.skipped, 15u);
  }

  // Random byte corruption (1-8 flips): decode must stay graceful, and
  // whatever does load must survive a second round trip unchanged (i.e. the
  // decoder never fabricates a record its own encoder cannot reproduce).
  for (int trial = 0; trial < 40; ++trial) {
    std::string bytes = seed;
    int flips = static_cast<int>(rng.Int(1, 8));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Index(bytes.size())] ^= static_cast<char>(rng.Int(1, 255));
    }
    RecordStore mutated;
    mutated.Deserialize(bytes);
    RecordStore reloaded;
    RecordLoadStats stats = reloaded.Deserialize(mutated.Serialize());
    EXPECT_TRUE(stats.ok);
    EXPECT_EQ(stats.skipped, 0u);
    EXPECT_TRUE(testing::SameRecords(reloaded.Snapshot(), mutated.Snapshot()));
  }

  // Pure garbage, with and without a valid magic prefix.
  for (int trial = 0; trial < 40; ++trial) {
    std::string bytes;
    size_t len = rng.Index(400);
    for (size_t c = 0; c < len; ++c) {
      bytes += static_cast<char>(rng.Int(0, 255));
    }
    RecordStore store;
    store.Deserialize(bytes);                  // must not crash
    store.Deserialize("ANSRREC1" + bytes);     // recognized container, junk body
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryRecordFuzz, ::testing::Range(0, 4));

class ArtifactFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ArtifactFuzz, MutatedSnapshotsNeverAbort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 271 + 31);
  ComputeDAG dag = testing::Matmul(12, 12, 12);
  ProgramCache cache(16, 1);
  {
    State a(&dag);
    ASSERT_TRUE(a.Split("C", 0, {4}));
    cache.GetOrBuild(a);
    State b(&dag);
    ASSERT_TRUE(b.Fuse("C", 0, 2));
    cache.GetOrBuild(b);
  }
  ArtifactStore seed_store;
  seed_store.CaptureCache(cache);
  const std::string seed = seed_store.Serialize();

  for (int trial = 0; trial < 60; ++trial) {
    std::string bytes = seed;
    switch (trial % 3) {
      case 0:
        bytes = bytes.substr(0, rng.Index(bytes.size() + 1));
        break;
      case 1:
        for (int f = 0; f < 4; ++f) {
          bytes[rng.Index(bytes.size())] ^= static_cast<char>(rng.Int(1, 255));
        }
        break;
      default: {
        bytes.clear();
        size_t len = rng.Index(300);
        for (size_t c = 0; c < len; ++c) {
          bytes += static_cast<char>(rng.Int(0, 255));
        }
        bytes = "ANSRART3" + bytes;
        break;
      }
    }
    ArtifactStore store;
    ArtifactLoadStats stats = store.Deserialize(bytes);  // must not crash
    EXPECT_EQ(store.size(), stats.loaded);
    // Whatever survived must be coherent enough to warm a cache.
    ProgramCache warm(16, 1);
    store.WarmCache(&warm, dag.CanonicalHash());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArtifactFuzz, ::testing::Range(0, 4));

TEST(SamplerFuzz, HighTweakProbabilityStaysSound) {
  // Force the compute-location tweak on every sample: many placements are
  // invalid and must be rejected by lowering, never crash; valid ones verify.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  SamplerOptions options;
  options.location_tweak_probability = 1.0;
  Rng rng(123);
  int valid = 0;
  for (int trial = 0; trial < 30; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng,
                                          options);
    if (program.failed() || !Lower(program).ok) {
      continue;
    }
    EXPECT_EQ(VerifyAgainstNaive(program), "") << program.ToString();
    ++valid;
  }
  EXPECT_GT(valid, 5);
}

TEST(MeasurerFuzz, BatchWithMixedValidity) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  Measurer measurer(MachineModel::IntelCpu20Core());
  std::vector<State> batch;
  for (int i = 0; i < 6; ++i) {
    State s(&dag);
    if (i % 2 == 1) {
      s.Split("C", 99, {2});  // poison half the batch
    }
    batch.push_back(std::move(s));
  }
  auto results = measurer.MeasureBatch(batch);
  ASSERT_EQ(results.size(), 6u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].valid, i % 2 == 0);
  }
}

}  // namespace
}  // namespace ansor
