// The ComputeDAG's precomputed rewrites (cache_write pairs and inlined
// consumers) are immutable ops shared by every State that replays the step
// on the DAG's own op. These tests check that replays really share them,
// that a shared op compiles to exactly what a privately built one does, and
// that concurrent replays on one DAG are race-free.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/program_verifier.h"
#include "src/features/feature_extraction.h"
#include "src/ir/state.h"
#include "src/lower/loop_tree.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

bool HasStep(const std::vector<Step>& steps, StepKind kind) {
  for (const Step& step : steps) {
    if (step.kind == kind) {
      return true;
    }
  }
  return false;
}

// Fixed-seed complete programs sampled from the DAG's sketches.
std::vector<State> SamplePrograms(const ComputeDAG* dag, bool gpu, uint64_t seed, size_t count) {
  std::vector<State> sketches = GenerateSketches(dag);
  SamplerOptions options;
  options.gpu = gpu;
  Rng rng(seed);
  std::vector<State> programs;
  for (int attempt = 0; attempt < 400 && programs.size() < count; ++attempt) {
    State program =
        SampleCompleteProgram(sketches[rng.Index(sketches.size())], dag, &rng, options);
    if (!program.failed()) {
      programs.push_back(std::move(program));
    }
  }
  return programs;
}

// The first sampled program whose steps contain `kind`.
State FirstProgramWith(const ComputeDAG* dag, bool gpu, StepKind kind) {
  for (State& program : SamplePrograms(dag, gpu, 41, 64)) {
    if (HasStep(program.steps(), kind)) {
      return program;
    }
  }
  ADD_FAILURE() << "no sampled program applies step kind " << static_cast<int>(kind);
  return State::Failure(dag, "not sampled");
}

// Applies `steps` one public primitive at a time to a State whose stages
// hold private copies of the DAG's ops, so every cache_write and
// compute_inline builds its own rewrite instead of taking the DAG's.
State BuildStepByStep(const ComputeDAG* dag, const std::vector<Step>& steps) {
  State state(dag);
  for (Stage& stage : state.stages()) {
    stage.op = std::make_shared<Operation>(*stage.op);
  }
  for (const Step& step : steps) {
    bool ok = false;
    switch (step.kind) {
      case StepKind::kSplit:
        ok = state.Split(step.stage, step.iter, step.lengths);
        break;
      case StepKind::kFollowSplit:
        ok = state.FollowSplit(step.stage, step.iter, step.src_step, step.n_parts);
        break;
      case StepKind::kFuse:
        ok = state.Fuse(step.stage, step.iter, step.fuse_count);
        break;
      case StepKind::kReorder:
        ok = state.Reorder(step.stage, step.order);
        break;
      case StepKind::kComputeAt:
        ok = state.ComputeAt(step.stage, step.target_stage, step.target_iter);
        break;
      case StepKind::kComputeInline:
        ok = state.ComputeInline(step.stage);
        break;
      case StepKind::kComputeRoot:
        ok = state.ComputeRoot(step.stage);
        break;
      case StepKind::kCacheWrite:
        ok = state.CacheWrite(step.stage, nullptr);
        break;
      case StepKind::kRfactor:
        ok = state.Rfactor(step.stage, step.iter, nullptr);
        break;
      case StepKind::kAnnotation:
        ok = state.Annotate(step.stage, step.iter, step.annotation);
        break;
      case StepKind::kPragma:
        ok = state.Pragma(step.stage, step.pragma_value);
        break;
    }
    EXPECT_TRUE(ok) << state.error();
  }
  return state;
}

// Two replays of `program`'s steps hold the same op in every stage, and what
// they compile to equals the private step-by-step build.
void ExpectSharedAndEquivalent(const ComputeDAG* dag, const State& program) {
  State first = State::Replay(dag, program.steps());
  State second = State::Replay(dag, program.steps());
  ASSERT_FALSE(first.failed()) << first.error();
  ASSERT_EQ(first.stages().size(), second.stages().size());
  for (size_t i = 0; i < first.stages().size(); ++i) {
    EXPECT_EQ(first.stages()[i].op.get(), second.stages()[i].op.get())
        << "stage " << first.stages()[i].name();
  }

  State private_build = BuildStepByStep(dag, program.steps());
  ASSERT_FALSE(private_build.failed()) << private_build.error();
  ASSERT_EQ(private_build.stages().size(), first.stages().size());
  for (size_t i = 0; i < first.stages().size(); ++i) {
    EXPECT_NE(private_build.stages()[i].op.get(), first.stages()[i].op.get())
        << "stage " << first.stages()[i].name() << " did not build its own op";
  }

  LoweredProgram shared_lowered = Lower(first);
  LoweredProgram private_lowered = Lower(private_build);
  ASSERT_TRUE(shared_lowered.ok) << shared_lowered.error;
  EXPECT_EQ(shared_lowered.ToString(), private_lowered.ToString());
  EXPECT_EQ(ExtractFeatures(shared_lowered), ExtractFeatures(private_lowered));
  VerifierReport shared_report = VerifyProgram(first, shared_lowered);
  EXPECT_EQ(shared_report.ToString(), VerifyProgram(private_build, private_lowered).ToString());
  EXPECT_TRUE(shared_report.legal()) << shared_report.ToString();
}

TEST(StateSharing, ReplaysShareRewrittenOperations) {
  {
    SCOPED_TRACE("gpu conv2d, cache_write");
    ComputeDAG dag = MakeConv2d(1, 128, 28, 28, 128, 3, 3, 1, 1);
    State program = FirstProgramWith(&dag, /*gpu=*/true, StepKind::kCacheWrite);
    ASSERT_FALSE(program.failed());
    const int conv = dag.OpIndexOf("conv2d");
    const CacheWriteOps* shared = dag.SharedCacheWrite(dag.op(conv));
    ASSERT_NE(shared, nullptr);
    State replayed = State::Replay(&dag, program.steps());
    EXPECT_EQ(replayed.stage(replayed.StageIndex("conv2d.cache")).op, shared->cache);
    EXPECT_EQ(replayed.stage(replayed.StageIndex("conv2d")).op, shared->consumer);
    ExpectSharedAndEquivalent(&dag, program);
  }
  {
    SCOPED_TRACE("cpu relu-pad-matmul, compute_inline");
    ComputeDAG dag = testing::ReluPadMatmul();
    State program = FirstProgramWith(&dag, /*gpu=*/false, StepKind::kComputeInline);
    ASSERT_FALSE(program.failed());
    const OperationRef* shared = dag.SharedInline(dag.op(dag.OpIndexOf("B")),
                                                  dag.op(dag.OpIndexOf("C")));
    ASSERT_NE(shared, nullptr);
    State replayed = State::Replay(&dag, program.steps());
    EXPECT_EQ(replayed.stage(replayed.StageIndex("C")).op, *shared);
    ExpectSharedAndEquivalent(&dag, program);
  }
}

TEST(StateSharing, RewrittenOperationsFallBackToPrivateOps) {
  // Only the DAG's own ops have precomputed rewrites: a reduction producer
  // has no inlined consumers, only reductions have a cache_write pair, and
  // an op a State rewrote gets none.
  ComputeDAG dag = testing::ReluPadMatmul();
  const OperationRef& c = dag.op(dag.OpIndexOf("C"));
  const OperationRef& e = dag.op(dag.OpIndexOf("E"));
  EXPECT_NE(dag.SharedInline(c, e), nullptr);
  EXPECT_EQ(dag.SharedInline(e, c), nullptr);  // E does not feed C
  auto copy = std::make_shared<const Operation>(*e);
  EXPECT_EQ(dag.SharedCacheWrite(copy), nullptr);
  EXPECT_EQ(dag.SharedInline(c, copy), nullptr);
  ASSERT_NE(dag.SharedCacheWrite(e), nullptr);
  EXPECT_EQ(dag.SharedCacheWrite(e)->cache->name(), "E.cache");
  EXPECT_EQ(dag.SharedCacheWrite(c), nullptr);                           // elementwise
  EXPECT_EQ(dag.SharedCacheWrite(dag.op(dag.OpIndexOf("A"))), nullptr);  // placeholder
}

TEST(StateSharing, ConcurrentReplaysOnOneDag) {
  // Four threads replay and lower the same sampled GPU conv programs on one
  // DAG at once: the shared ops are read-only, so every thread must get the
  // serial result.
  ComputeDAG dag = MakeConv2d(1, 128, 28, 28, 128, 3, 3, 1, 1);
  std::vector<State> programs = SamplePrograms(&dag, /*gpu=*/true, 43, 12);
  ASSERT_EQ(programs.size(), 12u);
  bool any_cache_write = false;
  std::vector<std::string> expected;
  for (const State& program : programs) {
    any_cache_write |= HasStep(program.steps(), StepKind::kCacheWrite);
    expected.push_back(Lower(State::Replay(&dag, program.steps())).ToString());
  }
  EXPECT_TRUE(any_cache_write);

  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < programs.size(); ++k) {
        // Each thread walks the list from a different offset.
        size_t p = (k + static_cast<size_t>(t) * 3) % programs.size();
        State replayed = State::Replay(&dag, programs[p].steps());
        got[static_cast<size_t>(t)].push_back(Lower(replayed).ToString());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < programs.size(); ++k) {
      size_t p = (k + static_cast<size_t>(t) * 3) % programs.size();
      EXPECT_EQ(got[static_cast<size_t>(t)][k], expected[p]) << "thread " << t << " program " << p;
    }
  }
}

}  // namespace
}  // namespace ansor
