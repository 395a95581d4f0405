#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/exec/interpreter.h"
#include "src/sampler/annotation.h"
#include "src/search/search_policy.h"
#include "src/sketch/sketch.h"
#include "src/store/record_store.h"
#include "tests/testing.h"

namespace ansor {
namespace {

TEST(StepSerialization, RoundTripsEveryKind) {
  std::vector<Step> steps = {
      MakeSplitStep("C", 2, {4, 8, 2}),
      MakeFollowSplitStep("D", 0, 3, 2),
      MakeFuseStep("C", 1, 3),
      MakeReorderStep("C", {3, 1, 0, 2}),
      MakeComputeAtStep("C.cache", "C", 5),
      MakeComputeInlineStep("B"),
      MakeComputeRootStep("B"),
      MakeCacheWriteStep("C"),
      MakeRfactorStep("S", 2),
      MakeAnnotationStep("C", 4, IterAnnotation::kVectorize),
      MakePragmaStep("C", 512),
  };
  for (const Step& step : steps) {
    std::string text = SerializeStep(step);
    auto parsed = ParseStep(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(SerializeStep(*parsed), text);
    EXPECT_EQ(parsed->kind, step.kind);
    EXPECT_EQ(parsed->stage, step.stage);
    EXPECT_EQ(parsed->iter, step.iter);
    EXPECT_EQ(parsed->lengths, step.lengths);
    EXPECT_EQ(parsed->order, step.order);
    EXPECT_EQ(parsed->target_stage, step.target_stage);
    EXPECT_EQ(parsed->target_iter, step.target_iter);
    EXPECT_EQ(parsed->annotation, step.annotation);
    EXPECT_EQ(parsed->pragma_value, step.pragma_value);
  }
}

TEST(StepSerialization, StageNamesWithDots) {
  Step step = MakeComputeAtStep("conv2d.cache", "relu", 7);
  auto parsed = ParseStep(SerializeStep(step));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stage, "conv2d.cache");
  EXPECT_EQ(parsed->target_stage, "relu");
}

TEST(StepSerialization, MalformedInputsRejected) {
  EXPECT_FALSE(ParseStep("").has_value());
  EXPECT_FALSE(ParseStep("nonsense").has_value());
  EXPECT_FALSE(ParseStep("XX,1,2@C").has_value());
  EXPECT_FALSE(ParseStep("SP@C").has_value());  // missing fields
}

TEST(RecordSerialization, RoundTrip) {
  TuningRecord record;
  record.task_id = 0xdeadbeef12345678ULL;
  record.seconds = 1.25e-4;
  record.steps = {MakeSplitStep("C", 0, {8}), MakeAnnotationStep("C", 0,
                                                                 IterAnnotation::kParallel)};
  std::string line = SerializeRecord(record);
  auto parsed = ParseRecord(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->task_id, record.task_id);
  EXPECT_NEAR(parsed->seconds, record.seconds, record.seconds * 1e-5);
  ASSERT_EQ(parsed->steps.size(), 2u);
}

TEST(RecordSerialization, MalformedLinesRejected) {
  EXPECT_FALSE(ParseRecord("").has_value());
  EXPECT_FALSE(ParseRecord("task=12").has_value());
  EXPECT_FALSE(ParseRecord("task=12|seconds=abc|steps=").has_value() &&
               std::isfinite(ParseRecord("task=12|seconds=abc|steps=")->seconds) == false);
  EXPECT_FALSE(ParseRecord("a=1|b=2|c=3").has_value());
}

// A single tuner's record log is a RecordStore in append-log mode (no
// dedup), written in the legacy text codec where a case pins that format.
const RecordStore::Options kAppendLog{/*dedup=*/false};

TEST(RecordLogTest, BestForPicksLowestLatency) {
  RecordStore log(kAppendLog);
  log.Add({1, 5e-3, 0.0, {}});
  log.Add({1, 2e-3, 0.0, {}});
  log.Add({2, 1e-3, 0.0, {}});
  auto best = log.BestFor(1);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->seconds, 2e-3);
  EXPECT_FALSE(log.BestFor(99).has_value());
}

TEST(RecordLogTest, SerializeDeserializeAll) {
  RecordStore log(kAppendLog);
  log.Add({7, 1e-3, 0.0, {MakeSplitStep("C", 0, {4})}});
  log.Add({8, 2e-3, 0.0, {MakeCacheWriteStep("C")}});
  RecordStore copy(kAppendLog);
  EXPECT_EQ(copy.Deserialize(log.Serialize(RecordCodec::kText)).loaded, 2u);
  EXPECT_EQ(copy.records().size(), 2u);
  EXPECT_EQ(copy.records()[0].task_id, 7u);
}

TEST(RecordLogTest, LoadFromFileReportsLoadedAndSkipped) {
  // Two good lines, two malformed: the load must surface exactly what it
  // kept and what it dropped instead of silently shrinking the log.
  std::string path = ::testing::TempDir() + "/ansor_records_mixed.log";
  {
    RecordStore good(kAppendLog);
    good.Add({1, 1e-3, 0.0, {MakeSplitStep("C", 0, {4})}});
    good.Add({2, 2e-3, 0.0, {MakeCacheWriteStep("C")}});
    ASSERT_TRUE(good.SaveToFile(path, RecordCodec::kText));
    std::ofstream append(path, std::ios::app);
    append << "task=12|seconds=1e-3|steps=XX,0,4@C\n";  // unknown step kind
    append << "total garbage line\n";
  }
  RecordStore loaded(kAppendLog);
  RecordLoadStats stats = loaded.LoadFromFile(path);
  EXPECT_TRUE(stats);
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(loaded.records().size(), 2u);

  RecordLoadStats missing = loaded.LoadFromFile(path + ".does_not_exist");
  EXPECT_FALSE(missing);
  EXPECT_EQ(missing.loaded, 0u);
  std::remove(path.c_str());
}

TEST(RecordLogTest, ReadsBinaryStores) {
  // Loading auto-detects the codec: a log kept in text reads a binary store
  // too, so the migration path runs in both directions.
  RecordStore store;
  TuningRecord r;
  r.task_id = 9;
  r.seconds = 4e-3;
  r.throughput = 2e9;
  r.steps = {MakeSplitStep("C", 0, {2})};
  store.Add(std::move(r));
  std::string path = ::testing::TempDir() + "/ansor_records_binary.bin";
  ASSERT_TRUE(store.SaveToFile(path, RecordCodec::kBinary));

  RecordStore log(kAppendLog);
  RecordLoadStats stats = log.LoadFromFile(path);
  EXPECT_TRUE(stats);
  EXPECT_TRUE(stats.index_ok);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].task_id, 9u);
  EXPECT_DOUBLE_EQ(log.records()[0].throughput, 2e9);
  std::remove(path.c_str());
}

TEST(RecordLogTest, FileRoundTrip) {
  RecordStore log(kAppendLog);
  log.Add({42, 3e-3, 0.0, {MakeSplitStep("C", 1, {2, 2})}});
  std::string path = ::testing::TempDir() + "/ansor_records_test.log";
  ASSERT_TRUE(log.SaveToFile(path, RecordCodec::kText));
  RecordStore loaded(kAppendLog);
  ASSERT_TRUE(loaded.LoadFromFile(path));
  ASSERT_EQ(loaded.records().size(), 1u);
  EXPECT_EQ(loaded.records()[0].task_id, 42u);
  std::remove(path.c_str());
}

TEST(RecordLogTest, ReplayBestReconstructsProgram) {
  // Tune briefly with logging enabled, then replay the best program from the
  // log and verify it measures identically.
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  SearchTask task = MakeSearchTask("mm", dag);
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  RecordStore log(kAppendLog);
  SearchOptions options;
  options.population = 12;
  options.generations = 1;
  options.record_store = &log;
  TuneResult result = TuneTask(task, &measurer, &model, 16, 8, options);
  ASSERT_TRUE(result.best_state.has_value());
  EXPECT_GT(log.records().size(), 0u);

  State replayed = log.ReplayBest(task.dag.get());
  ASSERT_FALSE(replayed.failed());
  MeasureResult again = measurer.Measure(replayed);
  ASSERT_TRUE(again.valid);
  EXPECT_DOUBLE_EQ(again.seconds, result.best_seconds);
  EXPECT_EQ(VerifyAgainstNaive(replayed), "");
}

TEST(RecordLogTest, ReplayBestFailsForUnknownTask) {
  RecordStore log(kAppendLog);
  ComputeDAG dag = testing::Matmul(8, 8, 8);
  State replayed = log.ReplayBest(&dag);
  EXPECT_TRUE(replayed.failed());
}

TEST(RecordLogTest, SampledProgramsRoundTripThroughSerialization) {
  // Property: any sampled program's step list survives serialize -> parse ->
  // replay with identical structure.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  Rng rng(31);
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng);
    if (program.failed()) {
      continue;
    }
    std::vector<Step> round_tripped;
    for (const Step& step : program.steps()) {
      auto parsed = ParseStep(SerializeStep(step));
      ASSERT_TRUE(parsed.has_value()) << SerializeStep(step);
      round_tripped.push_back(std::move(*parsed));
    }
    State replayed = State::Replay(&dag, round_tripped);
    ASSERT_FALSE(replayed.failed());
    ASSERT_EQ(replayed.stages().size(), program.stages().size());
    for (size_t s = 0; s < program.stages().size(); ++s) {
      EXPECT_EQ(replayed.stages()[s].iters.size(), program.stages()[s].iters.size());
    }
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

}  // namespace
}  // namespace ansor
