// Property-based test sweeps (TEST_P): the core invariants of the system
// checked across a grid of shapes, operators and random seeds.
//
// Invariant 1 (semantics): every program in the search space — any sketch,
//   any tile-size assignment, any annotation, any evolutionary edit —
//   computes exactly the same function as the naive program.
// Invariant 2 (replayability): a program is fully determined by its step
//   list; replaying the steps reproduces the same structure and performance.
// Invariant 3 (robustness): the search machinery never aborts on any
//   operator of the workload suite; invalid candidates fail gracefully.
#include <gtest/gtest.h>

#include "src/evolution/evolution.h"
#include "src/exec/interpreter.h"
#include "src/hwsim/measurer.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: sampled programs preserve semantics across shape grids.

struct ShapeCase {
  std::string name;
  int64_t n, m, k;
};

// Printed by name: gtest's default printer dumps the raw bytes of the case,
// heap pointer included, and CTest folds that into the test name, so without
// this the names of both shape sweeps would change from build to build.
void PrintTo(const ShapeCase& shape, std::ostream* os) { *os << shape.name; }

class SampledMatmulProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(SampledMatmulProperty, AllSampledProgramsComputeTheSameFunction) {
  const ShapeCase& shape = GetParam();
  ComputeDAG dag = testing::MatmulRelu(shape.n, shape.m, shape.k);
  auto sketches = GenerateSketches(&dag);
  ASSERT_FALSE(sketches.empty());
  Rng rng(shape.n * 1000 + shape.m * 10 + shape.k);
  int verified = 0;
  for (int trial = 0; trial < 12; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng);
    if (program.failed() || !Lower(program).ok) {
      continue;  // gracefully rejected candidates are fine
    }
    EXPECT_EQ(VerifyAgainstNaive(program), "") << program.ToString();
    ++verified;
  }
  EXPECT_GT(verified, 5) << "too few valid samples for " << shape.name;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, SampledMatmulProperty,
    ::testing::Values(ShapeCase{"square16", 16, 16, 16}, ShapeCase{"square12", 12, 12, 12},
                      ShapeCase{"tall", 32, 4, 16}, ShapeCase{"wide", 4, 32, 16},
                      ShapeCase{"deep", 8, 8, 64}, ShapeCase{"prime", 7, 11, 13},
                      ShapeCase{"mixed", 24, 6, 18}, ShapeCase{"tiny", 2, 2, 2}));

// ---------------------------------------------------------------------------
// Sweep 2: the full sketch -> sample -> measure pipeline works on every
// operator class of the paper's suite (small instances so interpretation is
// cheap), and the measured best is semantics-preserving.

struct OperatorCase {
  std::string name;
  std::function<ComputeDAG()> make;
};

// Printed by name for the same reason as ShapeCase.
void PrintTo(const OperatorCase& op, std::ostream* os) { *os << op.name; }

class OperatorPipelineProperty : public ::testing::TestWithParam<OperatorCase> {};

TEST_P(OperatorPipelineProperty, SketchSampleMeasureVerify) {
  ComputeDAG dag = GetParam().make();
  auto sketches = GenerateSketches(&dag);
  ASSERT_FALSE(sketches.empty()) << GetParam().name;

  Measurer measurer(MachineModel::IntelCpu20Core());
  Rng rng(101);
  State best(&dag);
  double best_seconds = 1e30;
  int valid = 0;
  for (int trial = 0; trial < 16; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng);
    if (program.failed()) {
      continue;
    }
    MeasureResult r = measurer.Measure(program);
    if (!r.valid) {
      continue;
    }
    ++valid;
    if (r.seconds < best_seconds) {
      best_seconds = r.seconds;
      best = program;
    }
  }
  ASSERT_GT(valid, 4) << GetParam().name;
  EXPECT_EQ(VerifyAgainstNaive(best), "") << GetParam().name << "\n" << best.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    OperatorSuite, OperatorPipelineProperty,
    ::testing::Values(
        OperatorCase{"c1d", [] { return MakeConv1d(1, 4, 16, 4, 3, 1, 1); }},
        OperatorCase{"c2d", [] { return MakeConv2d(1, 4, 8, 8, 4, 3, 3, 1, 1); }},
        OperatorCase{"c2d_stride", [] { return MakeConv2d(1, 4, 8, 8, 8, 3, 3, 2, 1); }},
        OperatorCase{"c3d", [] { return MakeConv3d(1, 2, 4, 6, 6, 2, 3, 3, 3, 1, 1); }},
        OperatorCase{"grp", [] { return MakeConv2d(1, 4, 6, 6, 4, 3, 3, 1, 1, 1, 2); }},
        OperatorCase{"dil", [] { return MakeConv2d(1, 2, 8, 8, 2, 3, 3, 1, 2, 2); }},
        OperatorCase{"dep", [] { return MakeDepthwiseConv2d(1, 4, 8, 8, 3, 3, 1, 1); }},
        OperatorCase{"t2d", [] { return MakeTransposedConv2d(1, 2, 4, 4, 2, 4, 4, 2, 1); }},
        OperatorCase{"cap", [] { return MakeCapsuleConv2d(1, 2, 4, 4, 2, 3, 3, 1, 1, 2); }},
        OperatorCase{"gmm", [] { return MakeMatmul(8, 8, 16); }},
        OperatorCase{"bmm", [] { return MakeMatmul(4, 4, 8, 2); }},
        OperatorCase{"nrm", [] { return MakeNorm(2, 64); }},
        OperatorCase{"convlayer", [] { return MakeConvLayer(1, 2, 6, 6, 2, 3, 3, 1, 1); }},
        OperatorCase{"tbg", [] { return MakeTBG(1, 4, 2, 4); }},
        OperatorCase{"dense", [] { return MakeDense(4, 8, 4); }}),
    [](const ::testing::TestParamInfo<OperatorCase>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Sweep 3: evolutionary edits preserve semantics across seeds.

class EvolutionEditProperty : public ::testing::TestWithParam<int> {};

TEST_P(EvolutionEditProperty, MutationsAndCrossoverStaySound) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  Rng rng(seed);
  std::vector<State> population;
  while (population.size() < 4) {
    State s = SampleCompleteProgram(sketches[0], &dag, &rng);
    if (!s.failed() && Lower(s).ok) {
      population.push_back(std::move(s));
    }
  }
  RandomCostModel model(seed);
  EvolutionarySearch es(&dag, &model, Rng(seed + 1));
  int verified = 0;
  for (int trial = 0; trial < 12; ++trial) {
    State child(&dag);
    switch (trial % 4) {
      case 0:
        child = es.MutateTileSize(population[rng.Index(population.size())]);
        break;
      case 1:
        child = es.MutateVectorize(population[rng.Index(population.size())]);
        break;
      case 2:
        child = es.MutateComputeLocation(population[rng.Index(population.size())]);
        break;
      default:
        child = es.Crossover(population[rng.Index(population.size())],
                             population[rng.Index(population.size())]);
        break;
    }
    if (child.failed() || !Lower(child).ok) {
      continue;
    }
    EXPECT_EQ(VerifyAgainstNaive(child), "") << child.ToString();
    ++verified;
  }
  EXPECT_GT(verified, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvolutionEditProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Sweep 4: replay determinism — simulated cost is a pure function of the step
// list (required for measurement caching and record logs).

class ReplayDeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReplayDeterminismProperty, ReplayedProgramsMeasureIdentically) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  auto sketches = GenerateSketches(&dag);
  Rng rng(seed);
  Measurer measurer(MachineModel::IntelCpu20Core());
  int checked = 0;
  for (int trial = 0; trial < 8; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng);
    if (program.failed()) {
      continue;
    }
    MeasureResult original = measurer.Measure(program);
    if (!original.valid) {
      continue;
    }
    State replayed = State::Replay(&dag, program.steps());
    ASSERT_FALSE(replayed.failed());
    MeasureResult again = measurer.Measure(replayed);
    ASSERT_TRUE(again.valid);
    EXPECT_DOUBLE_EQ(again.seconds, original.seconds);
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayDeterminismProperty, ::testing::Range(10, 16));

// ---------------------------------------------------------------------------
// Sweep 5: GPU annotation policy stays sound across shapes.

class GpuSamplingProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(GpuSamplingProperty, GpuProgramsVerifyAndBind) {
  const ShapeCase& shape = GetParam();
  ComputeDAG dag = testing::MatmulRelu(shape.n, shape.m, shape.k);
  auto sketches = GenerateSketches(&dag);
  SamplerOptions options;
  options.gpu = true;
  Rng rng(shape.n + shape.m + shape.k);
  int verified = 0;
  for (int trial = 0; trial < 10; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng,
                                          options);
    if (program.failed() || !Lower(program).ok) {
      continue;
    }
    EXPECT_EQ(VerifyAgainstNaive(program), "") << program.ToString();
    ++verified;
  }
  EXPECT_GT(verified, 3) << shape.name;
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, GpuSamplingProperty,
                         ::testing::Values(ShapeCase{"square16", 16, 16, 16},
                                           ShapeCase{"square32", 32, 32, 32},
                                           ShapeCase{"tall", 64, 4, 16},
                                           ShapeCase{"odd", 12, 20, 8}));

// ---------------------------------------------------------------------------
// Sweep 6: simulator sanity across machine models — more compute never gets
// cheaper, and every machine produces positive finite costs for the suite.

class SimulatorMonotonicityProperty
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(SimulatorMonotonicityProperty, BiggerProblemsCostMore) {
  auto [machine_idx, base] = GetParam();
  MachineModel machine = machine_idx == 0   ? MachineModel::IntelCpu20Core()
                         : machine_idx == 1 ? MachineModel::ArmCpu4Core()
                                            : MachineModel::NvidiaGpu();
  ComputeDAG small = testing::Matmul(base, base, base);
  ComputeDAG big = testing::Matmul(base * 2, base * 2, base * 2);
  State ss(&small);
  State sb(&big);
  SimulatedCost cost_small = SimulateProgram(Lower(ss), machine);
  SimulatedCost cost_big = SimulateProgram(Lower(sb), machine);
  ASSERT_TRUE(cost_small.valid);
  ASSERT_TRUE(cost_big.valid);
  EXPECT_GT(cost_small.seconds, 0.0);
  EXPECT_TRUE(std::isfinite(cost_big.seconds));
  EXPECT_GT(cost_big.seconds, cost_small.seconds);
}

INSTANTIATE_TEST_SUITE_P(MachineGrid, SimulatorMonotonicityProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values<int64_t>(16, 32, 64)));

}  // namespace
}  // namespace ansor
