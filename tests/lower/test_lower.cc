#include <gtest/gtest.h>

#include <set>

#include "src/analysis/program_verifier.h"
#include "src/exec/interpreter.h"
#include "src/features/feature_extraction.h"
#include "src/lower/loop_tree.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/store/bytes.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

int CountNodes(const LoopTreeNode& node, LoopTreeKind kind) {
  int count = node.kind == kind ? 1 : 0;
  for (const auto& child : node.children) {
    count += CountNodes(*child, kind);
  }
  return count;
}

int CountNodes(const LoweredProgram& program, LoopTreeKind kind) {
  int count = 0;
  for (const auto& root : program.roots) {
    count += CountNodes(*root, kind);
  }
  return count;
}

TEST(Lower, NaiveProgramStructure) {
  ComputeDAG dag = testing::MatmulRelu(8, 8, 8);
  State state(&dag);
  LoweredProgram prog = Lower(state);
  ASSERT_TRUE(prog.ok) << prog.error;
  // C gets an init nest (2 loops) and a main nest (3 loops); D gets 2 loops.
  EXPECT_EQ(prog.roots.size(), 3u);
  EXPECT_EQ(CountNodes(prog, LoopTreeKind::kLoop), 2 + 3 + 2);
  EXPECT_EQ(CountNodes(prog, LoopTreeKind::kStore), 3);
  EXPECT_EQ(prog.output_buffers, (std::vector<std::string>{"D"}));
}

TEST(Lower, GuardEmittedForNonExactSplit) {
  ComputeDAG dag = testing::MatmulRelu(10, 10, 10);
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {3}));
  LoweredProgram prog = Lower(state);
  ASSERT_TRUE(prog.ok) << prog.error;
  EXPECT_GT(CountNodes(prog, LoopTreeKind::kIf), 0);
}

TEST(Lower, NoGuardForExactSplit) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {4}));
  LoweredProgram prog = Lower(state);
  ASSERT_TRUE(prog.ok) << prog.error;
  EXPECT_EQ(CountNodes(prog, LoopTreeKind::kIf), 0);
}

TEST(Lower, InlinedStageEmitsNoLoops) {
  ComputeDAG dag = testing::MatmulRelu(8, 8, 8);
  State state(&dag);
  // D cannot be inlined (no consumer); inline nothing, but check that a
  // 3-op chain drops the inlined stage.
  ComputeDAG dag2 = testing::ReluPadMatmul(4, 2, 8, 6);
  State s2(&dag2);
  ASSERT_TRUE(s2.ComputeInline("B"));
  ASSERT_TRUE(s2.ComputeInline("C"));
  LoweredProgram prog = Lower(s2);
  ASSERT_TRUE(prog.ok) << prog.error;
  // Only E remains: init nest (2 loops) + main nest (3 loops).
  EXPECT_EQ(CountNodes(prog, LoopTreeKind::kLoop), 5);
  EXPECT_EQ(prog.buffers.count("B"), 0u);
  EXPECT_EQ(prog.buffers.count("C"), 0u);
}

TEST(Lower, ComputeAtIdentityConsumer) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  State state(&dag);
  // Tile C with SSRSRS-lite, follow-split D, fuse C into D.
  ASSERT_TRUE(state.Split("C", 0, {4}));      // i -> i.0(4), i.1(4)   [step 0]
  ASSERT_TRUE(state.Split("C", 2, {4}));      // j -> j.0(4), j.1(4)   [step 1]
  ASSERT_TRUE(state.Reorder("C", {0, 2, 1, 3, 4}));
  ASSERT_TRUE(state.FollowSplit("D", 0, 0, 2));
  ASSERT_TRUE(state.FollowSplit("D", 2, 1, 2));
  ASSERT_TRUE(state.Reorder("D", {0, 2, 1, 3}));
  ASSERT_TRUE(state.ComputeAt("C", "D", 1));
  LoweredProgram prog = Lower(state);
  ASSERT_TRUE(prog.ok) << prog.error;
  std::string printed = prog.ToString();
  EXPECT_NE(printed.find("C["), std::string::npos);
  EXPECT_NE(printed.find("D["), std::string::npos);
}

TEST(Lower, ComputeAtNonIdentityFails) {
  // E reads C with a reduction index (not identity): compute_at must be
  // rejected gracefully, not crash.
  ComputeDAG dag = testing::ReluPadMatmul(4, 2, 8, 6);
  State state(&dag);
  ASSERT_TRUE(state.ComputeAt("C", "E", 0));
  LoweredProgram prog = Lower(state);
  EXPECT_FALSE(prog.ok);
  EXPECT_NE(prog.error.find("identity"), std::string::npos);
}

TEST(Lower, ComputeAtCoverageMismatchFails) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  State state(&dag);
  // Tile C but give D a mismatching manual split (4 vs 8): lowering must
  // detect that producer tile and consumer coverage do not line up.
  ASSERT_TRUE(state.Split("C", 0, {4}));
  ASSERT_TRUE(state.Split("D", 0, {8}));
  ASSERT_TRUE(state.ComputeAt("C", "D", 0));
  LoweredProgram prog = Lower(state);
  EXPECT_FALSE(prog.ok);
}

TEST(Lower, FailedStatePropagates) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  state.Split("C", 99, {2});
  LoweredProgram prog = Lower(state);
  EXPECT_FALSE(prog.ok);
}

TEST(Lower, CacheWriteProducesTwoNests) {
  ComputeDAG dag = testing::Matmul(8, 8, 8);
  State state(&dag);
  ASSERT_TRUE(state.CacheWrite("C", nullptr));
  LoweredProgram prog = Lower(state);
  ASSERT_TRUE(prog.ok) << prog.error;
  EXPECT_EQ(prog.buffers.count("C.cache"), 1u);
  // C.cache init + C.cache main + C copy.
  EXPECT_EQ(prog.roots.size(), 3u);
}

TEST(Lower, BuffersIncludePlaceholders) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  LoweredProgram prog = Lower(state);
  ASSERT_TRUE(prog.ok);
  EXPECT_EQ(prog.buffers.count("A"), 1u);
  EXPECT_EQ(prog.buffers.count("B"), 1u);
  EXPECT_EQ(prog.buffers.count("C"), 1u);
  EXPECT_EQ(prog.buffers.count("D"), 1u);
}

TEST(Lower, AnnotationsSurviveLowering) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  ASSERT_TRUE(state.Annotate("C", 0, IterAnnotation::kParallel));
  ASSERT_TRUE(state.Annotate("C", 1, IterAnnotation::kVectorize));
  LoweredProgram prog = Lower(state);
  ASSERT_TRUE(prog.ok);
  std::string printed = prog.ToString();
  EXPECT_NE(printed.find("parallel"), std::string::npos);
  EXPECT_NE(printed.find("vectorize"), std::string::npos);
}

// --- Golden lowering ------------------------------------------------------------

// FNV-1a over what a program build derives from a schedule: the printed
// lowered program (loop structure, index expressions, guards), the feature
// matrix bytes and row stages, and the structural verifier's verdict, for
// fixed-seed sampled programs of four DAGs, each on CPU and on GPU. Between them
// the programs use every step kind that shapes lowering (split, follow_split,
// fuse, reorder, compute_at, compute_inline, cache_write, rfactor) and GPU
// thread binding; the test checks that coverage before it checks the hash.
// The constant pins the lowering semantics and must never be re-pinned: a
// mismatch means the schedule IR or lowering changed what it builds.
TEST(LowerGolden, HashOverSampledProgramsOnCpuAndGpu) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    h ^= Fnv1a64(static_cast<const char*>(data), n);
    h *= 0x100000001b3ULL;
  };
  std::vector<ComputeDAG> dags = {testing::MatmulRelu(64, 64, 64),
                                  MakeConv2d(1, 16, 14, 14, 32, 3, 3, 1, 1),
                                  testing::ReluPadMatmul(16, 8, 64, 48),
                                  MakeNorm(4, 1024)};
  std::set<StepKind> kinds;
  std::set<IterAnnotation> annotations;
  int sampled = 0;
  int legal = 0;
  for (bool gpu : {false, true}) {
    SamplerOptions options;
    options.gpu = gpu;
    for (size_t d = 0; d < dags.size(); ++d) {
      std::vector<State> sketches = GenerateSketches(&dags[d]);
      ASSERT_FALSE(sketches.empty());
      Rng rng(2000 + d + (gpu ? 100 : 0));
      int kept = 0;
      for (int attempt = 0; attempt < 400 && kept < 12; ++attempt) {
        State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dags[d],
                                              &rng, options);
        if (program.failed()) {
          continue;
        }
        for (const Step& step : program.steps()) {
          kinds.insert(step.kind);
          annotations.insert(step.annotation);
        }
        LoweredProgram lowered = Lower(program);
        const std::string text = lowered.ToString();
        mix(text.data(), text.size());
        if (lowered.ok) {
          FeatureMatrix features = ExtractFeatures(lowered);
          mix(features.data().data(), features.data().size() * sizeof(float));
          for (const std::string& stage : features.row_stages()) {
            mix(stage.data(), stage.size());
          }
        }
        const char verdict = VerifyProgram(program, lowered).legal() ? 'L' : 'I';
        mix(&verdict, 1);
        legal += verdict == 'L' ? 1 : 0;
        ++kept;
      }
      sampled += kept;
    }
  }
  for (StepKind kind : {StepKind::kSplit, StepKind::kFollowSplit, StepKind::kFuse,
                        StepKind::kReorder, StepKind::kComputeAt, StepKind::kComputeInline,
                        StepKind::kCacheWrite, StepKind::kRfactor}) {
    EXPECT_EQ(kinds.count(kind), 1u) << "no sampled program has step kind "
                                     << static_cast<int>(kind);
  }
  EXPECT_EQ(annotations.count(IterAnnotation::kBlockX), 1u);
  EXPECT_EQ(annotations.count(IterAnnotation::kThreadX), 1u);
  EXPECT_EQ(sampled, 96);
  EXPECT_GT(legal, 0);
  EXPECT_EQ(h, 0x143cf897075851eeULL) << std::hex << "0x" << h << std::dec << " legal=" << legal;
}

}  // namespace
}  // namespace ansor
