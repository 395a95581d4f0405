#include <gtest/gtest.h>

#include <limits>

#include "src/ir/stage_exprs.h"
#include "src/ir/state.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/store/bytes.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

TEST(State, InitialStagesMatchComputeOps) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  ASSERT_EQ(state.stages().size(), 2u);  // C and D (placeholders have no stage)
  EXPECT_EQ(state.stages()[0].name(), "C");
  EXPECT_EQ(state.stages()[1].name(), "D");
  // C: i, j space + k reduce.
  const Stage& c = state.stages()[0];
  ASSERT_EQ(c.iters.size(), 3u);
  EXPECT_EQ(c.iters[0].kind, IterKind::kSpace);
  EXPECT_EQ(c.iters[2].kind, IterKind::kReduce);
  EXPECT_EQ(c.iters[2].extent, 16);
}

TEST(State, SplitCreatesParts) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {4, 2}));
  const Stage& c = state.stages()[0];
  ASSERT_EQ(c.iters.size(), 5u);
  EXPECT_EQ(c.iters[0].extent, 2);  // outer = 16 / (4*2)
  EXPECT_EQ(c.iters[1].extent, 4);
  EXPECT_EQ(c.iters[2].extent, 2);
  EXPECT_EQ(c.iters[0].name, "i.0");
  EXPECT_EQ(c.iters[2].name, "i.2");
  // Strides: inner to outer 1, 2, 8.
  EXPECT_EQ(c.iters[2].stride, 1);
  EXPECT_EQ(c.iters[1].stride, 2);
  EXPECT_EQ(c.iters[0].stride, 8);
}

TEST(State, SplitNonExactMarksGuard) {
  ComputeDAG dag = testing::MatmulRelu(10, 10, 10);
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {3}));  // ceil(10/3)=4, 12 > 10
  const Stage& c = state.stages()[0];
  EXPECT_EQ(c.iters[0].extent, 4);
  EXPECT_EQ(c.guarded_axes.size(), 1u);
}

TEST(State, SplitInvalidIterFails) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  EXPECT_FALSE(state.Split("C", 99, {4}));
  EXPECT_TRUE(state.failed());
}

TEST(State, FuseCombinesExtents) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  ASSERT_TRUE(state.Fuse("D", 0, 2));
  const Stage& d = state.stages()[1];
  ASSERT_EQ(d.iters.size(), 1u);
  EXPECT_EQ(d.iters[0].extent, 256);
}

TEST(State, FuseMixedKindsFails) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  // C iters: i (space), j (space), k (reduce); fusing j and k must fail.
  EXPECT_FALSE(state.Fuse("C", 1, 2));
}

TEST(State, ReorderPermutes) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  ASSERT_TRUE(state.Reorder("C", {2, 0, 1}));
  const Stage& c = state.stages()[0];
  EXPECT_EQ(c.iters[0].kind, IterKind::kReduce);
}

TEST(State, ReorderRejectsNonPermutation) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  EXPECT_FALSE(state.Reorder("C", {0, 0, 1}));
}

TEST(State, ComputeInlineRewritesConsumer) {
  ComputeDAG dag = testing::ReluPadMatmul();
  State state(&dag);
  // Inline B (relu) into C (pad).
  ASSERT_TRUE(state.ComputeInline("B"));
  int c_idx = state.StageIndex("C");
  const Stage& c = state.stage(c_idx);
  // C's body should now reference A directly (B was inlined).
  std::vector<const ExprNode*> loads;
  CollectLoads(c.op->body, &loads);
  bool reads_a = false;
  bool reads_b = false;
  for (const ExprNode* l : loads) {
    reads_a |= l->buffer->name == "A";
    reads_b |= l->buffer->name == "B";
  }
  EXPECT_TRUE(reads_a);
  EXPECT_FALSE(reads_b);
  EXPECT_EQ(state.stage(state.StageIndex("B")).loc.kind, ComputeLocKind::kInlined);
}

TEST(State, InlineReductionFails) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  EXPECT_FALSE(state.ComputeInline("C"));
}

TEST(State, CacheWriteSplitsStage) {
  ComputeDAG dag = testing::Matmul();
  State state(&dag);
  int new_stage = -1;
  ASSERT_TRUE(state.CacheWrite("C", &new_stage));
  ASSERT_EQ(state.stages().size(), 2u);
  EXPECT_EQ(state.stages()[0].name(), "C.cache");
  EXPECT_EQ(state.stages()[1].name(), "C");
  EXPECT_EQ(new_stage, 0);
  // The cache carries the reduction; C is now an identity read.
  EXPECT_TRUE(HasReduce(state.stages()[0].op->body));
  EXPECT_FALSE(HasReduce(state.stages()[1].op->body));
  // C has no reduce iterators anymore.
  EXPECT_EQ(state.stages()[1].iters.size(), 2u);
}

TEST(State, RfactorRequiresSplitReduction) {
  ComputeDAG dag = testing::Matmul();
  State state(&dag);
  // k not split yet -> must fail.
  EXPECT_FALSE(state.Rfactor("C", 2, nullptr));
}

TEST(State, RfactorCreatesStage) {
  ComputeDAG dag = testing::Matmul(4, 4, 16);
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 2, {4}));  // k -> k.0 (4), k.1 (4)
  int new_stage = -1;
  ASSERT_TRUE(state.Rfactor("C", 3, &new_stage));  // keep the inner part
  ASSERT_EQ(state.stages().size(), 2u);
  EXPECT_EQ(state.stages()[0].name(), "C.rf");
  const OperationRef& rf = state.stages()[0].op;
  // rf shape = [4, 4, 4] (original shape + kept extent).
  EXPECT_EQ(rf->output->shape, (std::vector<int64_t>{4, 4, 4}));
  // C reduces over the kept axis.
  const Stage& c = state.stages()[1];
  ASSERT_EQ(c.iters.size(), 3u);
  EXPECT_EQ(c.iters[2].kind, IterKind::kReduce);
  EXPECT_EQ(c.iters[2].extent, 4);
}

TEST(State, AnnotationApplies) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  ASSERT_TRUE(state.Annotate("C", 0, IterAnnotation::kParallel));
  EXPECT_EQ(state.stages()[0].iters[0].annotation, IterAnnotation::kParallel);
  ASSERT_TRUE(state.Pragma("C", 64));
  EXPECT_EQ(state.stages()[0].auto_unroll_max_step, 64);
}

TEST(State, ReplayReproducesState) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {4}));
  ASSERT_TRUE(state.Split("C", 2, {8}));
  ASSERT_TRUE(state.Reorder("C", {0, 2, 1, 3, 4}));
  ASSERT_TRUE(state.Annotate("C", 0, IterAnnotation::kParallel));

  State replayed = State::Replay(&dag, state.steps());
  ASSERT_FALSE(replayed.failed());
  ASSERT_EQ(replayed.stages().size(), state.stages().size());
  for (size_t s = 0; s < state.stages().size(); ++s) {
    const Stage& a = state.stages()[s];
    const Stage& b = replayed.stages()[s];
    ASSERT_EQ(a.iters.size(), b.iters.size());
    for (size_t i = 0; i < a.iters.size(); ++i) {
      EXPECT_EQ(a.iters[i].extent, b.iters[i].extent);
      EXPECT_EQ(a.iters[i].kind, b.iters[i].kind);
      EXPECT_EQ(a.iters[i].annotation, b.iters[i].annotation);
    }
  }
}

TEST(State, ReplayInvalidStepsReportsFailure) {
  ComputeDAG dag = testing::MatmulRelu();
  std::vector<Step> steps = {MakeSplitStep("C", 42, {2})};
  State replayed = State::Replay(&dag, steps);
  EXPECT_TRUE(replayed.failed());
}

TEST(State, ComputeAtSetsLocation) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  ASSERT_TRUE(state.Split("D", 0, {4}));
  ASSERT_TRUE(state.ComputeAt("C", "D", 0));
  EXPECT_EQ(state.stages()[0].loc.kind, ComputeLocKind::kAt);
  EXPECT_EQ(state.stages()[0].loc.at_stage, "D");
}

TEST(State, ToStringShowsLoops) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  state.Split("C", 0, {4});
  std::string s = state.ToString();
  EXPECT_NE(s.find("for i.0"), std::string::npos);
  EXPECT_NE(s.find("C[...]"), std::string::npos);
}

TEST(State, EveryPrimitiveSetsFailedOnFalseReturn) {
  // The evolutionary search normalizes a replay failure by checking
  // failed(): a primitive that returned false without setting it would let a
  // partially-built state masquerade as valid. Audit every primitive.
  ComputeDAG dag = testing::MatmulRelu();
  auto check = [](const char* what, State& s, bool ok) {
    EXPECT_FALSE(ok) << what;
    EXPECT_TRUE(s.failed()) << what;
    EXPECT_FALSE(s.error().empty()) << what;
  };
  {
    State s(&dag);
    bool ok = s.Split("C", 42, {2});
    check("split bad iter", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.Split("nope", 0, {2});
    check("split bad stage", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.FollowSplit("D", 0, /*src_step=*/3, 2);
    check("follow_split bad src", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.Fuse("C", 0, 99);
    check("fuse out of range", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.Reorder("C", {0, 0, 1});
    check("reorder non-permutation", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.ComputeAt("C", "C", 0);
    check("compute_at self", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.ComputeInline("C");  // reduction stage
    check("inline reduction", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.ComputeRoot("nope");
    check("compute_root bad stage", s, ok);
  }
  {
    State s(&dag);
    ASSERT_TRUE(s.CacheWrite("C", nullptr));
    bool ok = s.CacheWrite("C", nullptr);  // cache stage exists
    check("cache_write twice", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.Rfactor("C", 2, nullptr);  // k not split
    check("rfactor unsplit", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.Annotate("C", 17, IterAnnotation::kParallel);
    check("annotate bad iter", s, ok);
  }
  {
    State s(&dag);
    bool ok = s.Pragma("nope", 16);
    check("pragma bad stage", s, ok);
  }
}

TEST(State, FailureFactoryIsCanonical) {
  ComputeDAG dag = testing::MatmulRelu();
  State failure = State::Failure(&dag, "why");
  EXPECT_TRUE(failure.failed());
  EXPECT_EQ(failure.error(), "why");
  EXPECT_TRUE(failure.steps().empty());
  EXPECT_TRUE(failure.stages().empty());
}

TEST(State, FollowSplitMirrorsSourceLengths) {
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  // Split C.i into 4 parts with inner lengths [2, 2, 2] (step index 0).
  ASSERT_TRUE(state.Split("C", 0, {2, 2, 2}));
  // Follow on D.i with 3 parts: lengths should become [2, 4].
  ASSERT_TRUE(state.FollowSplit("D", 0, 0, 3));
  const Stage& d = state.stages()[state.StageIndex("D")];
  ASSERT_EQ(d.iters.size(), 4u);  // i.0, i.1, i.2, j
  EXPECT_EQ(d.iters[0].extent, 2);  // outer = 16/(2*4)
  EXPECT_EQ(d.iters[1].extent, 2);
  EXPECT_EQ(d.iters[2].extent, 4);
}


// --- Overflowing products fail the step, not the process ----------------------

TEST(State, SplitWithOverflowingLengthsFails) {
  // 2^32 * 2^32 wraps int64 to 0, and ceil(64 / 0) would raise SIGFPE.
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State state(&dag);
  EXPECT_FALSE(state.Split("C", 0, {int64_t{1} << 32, int64_t{1} << 32}));
  EXPECT_TRUE(state.failed());
  EXPECT_NE(state.error().find("overflow"), std::string::npos) << state.error();
  EXPECT_TRUE(state.steps().empty());
}

TEST(State, SplitNearInt64LimitKeepsOuterExtentOne) {
  // The product fits, but ceil(64 / prod) must not be computed as
  // (64 + prod - 1) / prod, which overflows.
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {std::numeric_limits<int64_t>::max()})) << state.error();
  const Stage& c = state.stage(state.StageIndex("C"));
  EXPECT_EQ(c.iters[0].extent, 1);
  EXPECT_EQ(c.guarded_axes.size(), 1u);
}

TEST(State, SplitWithOverflowingStrideFails) {
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State state(&dag);
  // i -> [i.0 (extent 1, stride 2^40), i.1 (extent 2^40)], a non-exact split.
  ASSERT_TRUE(state.Split("C", 0, {int64_t{1} << 40})) << state.error();
  EXPECT_EQ(state.stage(state.StageIndex("C")).iters[0].stride, int64_t{1} << 40);
  // Splitting i.0 by 2^30 would give it stride 2^40 * 2^30.
  EXPECT_FALSE(state.Split("C", 0, {int64_t{1} << 30}));
  EXPECT_NE(state.error().find("overflow"), std::string::npos) << state.error();
}

TEST(State, FuseWithOverflowingExtentFails) {
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {int64_t{1} << 40}));  // [i.0, i.1, j, k]
  ASSERT_TRUE(state.Split("C", 2, {int64_t{1} << 40}));  // [i.0, i.1, j.0, j.1, k]
  // i.1 * j.0 * j.1 = 2^80.
  EXPECT_FALSE(state.Fuse("C", 1, 3));
  EXPECT_NE(state.error().find("overflow"), std::string::npos) << state.error();
}

TEST(State, ReplayOfOverflowingSplitFails) {
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State replayed = State::Replay(
      &dag, {MakeSplitStep("C", 1, {4}),
             MakeSplitStep("C", 0, {int64_t{1} << 32, int64_t{1} << 32})});
  EXPECT_TRUE(replayed.failed());
  EXPECT_EQ(replayed.steps().size(), 1u);  // the valid prefix only
  State follow = State::Replay(
      &dag, {MakeSplitStep("C", 0, {int64_t{1} << 40}), MakeSplitStep("C", 2, {int64_t{1} << 40}),
             MakeFuseStep("C", 1, 3)});
  EXPECT_TRUE(follow.failed());
}

// --- Copy-on-write rewrites share what they do not change -----------------------

TEST(State, ComputeInlineSharesUntouchedSubtreesAndOps) {
  ComputeDAG dag = testing::ReluPadMatmul();
  State state(&dag);
  const OperationRef c_before = state.stage(state.StageIndex("C")).op;
  const OperationRef e_before = state.stage(state.StageIndex("E")).op;
  ASSERT_TRUE(state.ComputeInline("B"));
  const OperationRef& c_after = state.stage(state.StageIndex("C")).op;
  // C = select(cond, B[...], 0): only the middle operand loads B.
  ASSERT_NE(c_after.get(), c_before.get());
  ASSERT_EQ(c_after->body.kind(), ExprKind::kSelect);
  EXPECT_NE(c_after->body->operands[1].get(), c_before->body->operands[1].get());
  EXPECT_EQ(c_after->body->operands[0].get(), c_before->body->operands[0].get());
  EXPECT_EQ(c_after->body->operands[2].get(), c_before->body->operands[2].get());
  // E never reads B: its op is not copied at all.
  EXPECT_EQ(state.stage(state.StageIndex("E")).op.get(), e_before.get());
}

TEST(State, SplitThenFuseRecordsRelationsAndDerivesReconstructions) {
  ComputeDAG dag = testing::Matmul();
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {4}));  // i -> i.0(4), i.1(4)
  ASSERT_TRUE(state.Fuse("C", 1, 2));     // i.1, j -> i.1@j(64)
  const Stage& c = state.stage(0);
  ASSERT_EQ(c.iters.size(), 3u);
  EXPECT_EQ(c.iters[1].name, "i.1@j");

  // The record is plain data: three axis roots, two split parts, two fuse
  // components, in application order.
  std::vector<IterRelationKind> kinds;
  for (const IterRelation& r : c.relations) {
    kinds.push_back(r.kind);
  }
  EXPECT_EQ(kinds, (std::vector<IterRelationKind>{
                       IterRelationKind::kAxis, IterRelationKind::kAxis, IterRelationKind::kAxis,
                       IterRelationKind::kSplit, IterRelationKind::kSplit, IterRelationKind::kFuse,
                       IterRelationKind::kFuse}));

  // The derived reconstructions are the expressions split and fuse define.
  const StageExprs exprs = DeriveStageExprs(c);
  ASSERT_EQ(exprs.iter_vars.size(), 3u);
  ASSERT_EQ(exprs.reconstructions.size(), 3u);
  EXPECT_EQ(ToString(exprs.reconstructions[0].second), "((i.0 * 4) + (i.1@j / 16))");
  EXPECT_EQ(ToString(exprs.reconstructions[1].second), "(i.1@j % 16)");
  EXPECT_EQ(ToString(exprs.reconstructions[2].second), "k");
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(exprs.reconstructions[d].first, dag.op(2)->axis[d]->var_id);
  }
  // They are built over the derivation's own loop Vars, which carry the
  // iterators' names and extents.
  const Expr& i_value = exprs.reconstructions[0].second;
  EXPECT_EQ(i_value->operands[0]->operands[0].get(), exprs.iter_vars[0].get());
  EXPECT_EQ(i_value->operands[1]->operands[0].get(), exprs.iter_vars[1].get());
  EXPECT_EQ(exprs.reconstructions[2].second.get(), exprs.iter_vars[2].get());
  EXPECT_EQ(exprs.iter_vars[1]->var_name, "i.1@j");
  EXPECT_EQ(exprs.iter_vars[1]->var_extent, 64);
  // A second derivation builds fresh Vars with the same structure.
  const StageExprs again = DeriveStageExprs(c);
  EXPECT_NE(again.iter_vars[0]->var_id, exprs.iter_vars[0]->var_id);
  EXPECT_EQ(ToString(again.reconstructions[0].second), ToString(exprs.reconstructions[0].second));
}

// --- Golden signature bytes ----------------------------------------------------

// FNV-1a over the StepSignature of one step of every kind, then of 96
// fixed-seed sampled programs (16 per DAG, three DAGs, CPU and GPU). The
// signature bytes key the program cache and every persisted record, so the
// constant must never be re-pinned: a mismatch means existing stores no
// longer match the programs they describe.
TEST(StepSignature, GoldenHashOverEveryKindAndSampledPrograms) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& sig) {
    h ^= Fnv1a64(sig.data(), sig.size());
    h *= 0x100000001b3ULL;
  };
  mix(StepSignature(std::vector<Step>{
      MakeSplitStep("C", 0, {8, 4}),
      MakeFollowSplitStep("D", 1, 0, 2),
      MakeFuseStep("C", 0, 2),
      MakeReorderStep("C", {2, 0, 1}),
      MakeComputeAtStep("C", "D", 1),
      MakeComputeInlineStep("B"),
      MakeComputeRootStep("B"),
      MakeCacheWriteStep("C"),
      MakeRfactorStep("S", 1),
      MakeAnnotationStep("C", 0, IterAnnotation::kParallel),
      MakeAnnotationStep("C", 3, IterAnnotation::kThreadX),
      MakePragmaStep("C", 512),
  }));
  std::vector<ComputeDAG> dags = {testing::MatmulRelu(64, 64, 64),
                                  MakeConv2d(1, 16, 14, 14, 32, 3, 3, 1, 1),
                                  testing::MatrixNorm(8, 256)};
  int sampled = 0;
  for (bool gpu : {false, true}) {
    SamplerOptions options;
    options.gpu = gpu;
    for (size_t d = 0; d < dags.size(); ++d) {
      std::vector<State> sketches = GenerateSketches(&dags[d]);
      ASSERT_FALSE(sketches.empty());
      Rng rng(1000 + d + (gpu ? 100 : 0));
      int kept = 0;
      for (int attempt = 0; attempt < 400 && kept < 16; ++attempt) {
        State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dags[d],
                                              &rng, options);
        if (program.failed()) {
          continue;
        }
        mix(StepSignature(program));
        ++kept;
      }
      sampled += kept;
    }
  }
  EXPECT_EQ(sampled, 96);
  EXPECT_EQ(h, 0x5443d2f65b1c5304ULL) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace ansor
