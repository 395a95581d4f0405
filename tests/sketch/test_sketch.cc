#include <gtest/gtest.h>

#include "src/exec/interpreter.h"
#include "src/sketch/sketch.h"
#include "tests/testing.h"

namespace ansor {
namespace {

bool HasStage(const State& state, const std::string& name) {
  return state.StageIndex(name) >= 0;
}

bool StageInlined(const State& state, const std::string& name) {
  int idx = state.StageIndex(name);
  return idx >= 0 && state.stage(idx).loc.kind == ComputeLocKind::kInlined;
}

bool StageComputedAt(const State& state, const std::string& name,
                     const std::string& target) {
  int idx = state.StageIndex(name);
  return idx >= 0 && state.stage(idx).loc.kind == ComputeLocKind::kAt &&
         state.stage(idx).loc.at_stage == target;
}

TEST(Sketch, MatmulReluGeneratesFusedSketch) {
  // Paper Figure 5, example input 1: the derivation
  //   Rule1(D) -> Rule4(C) -> Rule1(B) -> Rule1(A)
  // produces "Generated sketch 1": C multi-level tiled and fused into D.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  ASSERT_FALSE(sketches.empty());
  bool found_fused = false;
  for (const State& s : sketches) {
    if (StageComputedAt(s, "C", "D")) {
      found_fused = true;
      // C must carry the 10-level SSRSRS loop nest (2 space axes x 4 levels +
      // 1 reduce axis x 2 levels).
      const Stage& c = s.stage(s.StageIndex("C"));
      EXPECT_EQ(c.iters.size(), 10u);
      // D follows with 3 levels per axis.
      const Stage& d = s.stage(s.StageIndex("D"));
      EXPECT_EQ(d.iters.size(), 6u);
    }
  }
  EXPECT_TRUE(found_fused);
}

TEST(Sketch, PlainMatmulGetsCacheSketch) {
  // Example input without a fusible consumer: rule 5 adds C.cache, then rule 4
  // fuses it into C (paper "Generated sketch 2" shape).
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  ASSERT_FALSE(sketches.empty());
  bool found_cache = false;
  bool found_plain_tiling = false;
  for (const State& s : sketches) {
    if (HasStage(s, "C.cache") && StageComputedAt(s, "C.cache", "C")) {
      found_cache = true;
    }
    if (!HasStage(s, "C.cache")) {
      const Stage& c = s.stage(s.StageIndex("C"));
      if (c.iters.size() == 10u) {
        found_plain_tiling = true;
      }
    }
  }
  EXPECT_TRUE(found_cache);
  EXPECT_TRUE(found_plain_tiling);
}

TEST(Sketch, ReluPadMatmulInlinesRelu) {
  // Example input 2: B (relu) is strictly inlinable -> always inlined.
  ComputeDAG dag = testing::ReluPadMatmul(8, 4, 512, 400);
  auto sketches = GenerateSketches(&dag);
  ASSERT_FALSE(sketches.empty());
  for (const State& s : sketches) {
    EXPECT_TRUE(StageInlined(s, "B"));
  }
}

TEST(Sketch, TallSkinnyMatmulGetsRfactorSketch) {
  // Example input 2 has 8x4 output with a 512 reduction: rule 6 applies and
  // produces the "Generated sketch 3" structure with an E.rf stage.
  ComputeDAG dag = testing::ReluPadMatmul(8, 4, 512, 400);
  auto sketches = GenerateSketches(&dag);
  bool found_rfactor = false;
  for (const State& s : sketches) {
    if (HasStage(s, "E.rf")) {
      found_rfactor = true;
    }
  }
  EXPECT_TRUE(found_rfactor);
}

TEST(Sketch, NormWorkloadGetsRfactor) {
  ComputeDAG dag = testing::MatrixNorm(8, 512);
  auto sketches = GenerateSketches(&dag);
  bool found = false;
  for (const State& s : sketches) {
    found |= HasStage(s, "S.rf");
  }
  EXPECT_TRUE(found);
}

TEST(Sketch, SketchesAreDeduplicated) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  std::set<std::string> signatures;
  for (const State& s : sketches) {
    std::string sig;
    for (const Step& step : s.steps()) {
      sig += step.ToString() + ";";
    }
    EXPECT_TRUE(signatures.insert(sig).second) << "duplicate sketch: " << sig;
  }
}

TEST(Sketch, AllSketchesLowerAndVerify) {
  // Every sketch (with placeholder tile sizes of 1) must already be a valid,
  // semantics-preserving program.
  for (auto dag : {testing::MatmulRelu(8, 8, 8), testing::Matmul(8, 8, 8),
                   testing::ReluPadMatmul(8, 4, 64, 48), testing::MatrixNorm(4, 64)}) {
    auto sketches = GenerateSketches(&dag);
    ASSERT_FALSE(sketches.empty());
    for (const State& s : sketches) {
      EXPECT_EQ(VerifyAgainstNaive(s), "") << s.ToString();
    }
  }
}

TEST(Sketch, CustomRuleIntegrates) {
  // A user-defined rule that unconditionally adds an rfactor-style split to
  // reduction stages, demonstrating the registration mechanism of §4.1.
  SketchRule custom;
  custom.name = "CustomSplitReduction";
  custom.exclusive = false;
  custom.condition = [](const State& state, int i) {
    const Stage& s = state.stage(i);
    return s.op->body.defined() && s.op->body.kind() == ExprKind::kReduce;
  };
  custom.apply = [](const State& state, int i) {
    State next = state;
    int n_space = static_cast<int>(state.stage(i).op->axis.size());
    std::vector<std::pair<State, int>> result;
    if (next.Split(state.stage(i).name(), n_space, {1})) {
      result.emplace_back(std::move(next), i - 1);
    }
    return result;
  };
  SketchOptions options;
  options.custom_rules.push_back(custom);
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  auto with_custom = GenerateSketches(&dag, options);
  auto without = GenerateSketches(&dag);
  EXPECT_GT(with_custom.size(), without.size());
}

TEST(Sketch, MaxSketchesBound) {
  SketchOptions options;
  options.max_sketches = 1;
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  auto sketches = GenerateSketches(&dag, options);
  EXPECT_EQ(sketches.size(), 1u);
}

TEST(Sketch, MultiLevelTilingHelperShape) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State state(&dag);
  auto steps = ApplyMultiLevelTiling(&state, "C");
  ASSERT_EQ(steps.size(), 2u);  // one split step per space axis
  const Stage& c = state.stage(state.StageIndex("C"));
  ASSERT_EQ(c.iters.size(), 10u);
  // Check the SSRSRS interleaving: kinds should be S S S S R S S R S S.
  std::vector<IterKind> kinds;
  for (const auto& it : c.iters) {
    kinds.push_back(it.kind);
  }
  std::vector<IterKind> expect = {IterKind::kSpace, IterKind::kSpace, IterKind::kSpace,
                                  IterKind::kSpace, IterKind::kReduce, IterKind::kSpace,
                                  IterKind::kSpace, IterKind::kReduce, IterKind::kSpace,
                                  IterKind::kSpace};
  EXPECT_EQ(kinds, expect);
}

}  // namespace
}  // namespace ansor
