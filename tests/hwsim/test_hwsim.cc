// Simulator tests: the machine model must reward exactly the optimizations
// Ansor's search space exposes — otherwise the search results are meaningless.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/hwsim/measurer.h"
#include "src/hwsim/simulator.h"
#include "src/support/thread_pool.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

double SecondsOf(const State& state, const MachineModel& machine) {
  LoweredProgram prog = Lower(state);
  EXPECT_TRUE(prog.ok) << prog.error;
  SimulatedCost cost = SimulateProgram(prog, machine);
  EXPECT_TRUE(cost.valid) << cost.error;
  return cost.seconds;
}

TEST(MachineModel, Factories) {
  MachineModel intel = MachineModel::IntelCpu20Core();
  EXPECT_EQ(intel.num_cores, 20);
  EXPECT_EQ(intel.kind, MachineKind::kCpu);
  EXPECT_GT(intel.PeakGflops(), 100.0);
  MachineModel arm = MachineModel::ArmCpu4Core();
  EXPECT_EQ(arm.num_cores, 4);
  EXPECT_LT(arm.PeakGflops(), intel.PeakGflops());
  MachineModel gpu = MachineModel::NvidiaGpu();
  EXPECT_EQ(gpu.kind, MachineKind::kGpu);
  EXPECT_GT(gpu.PeakGflops(), intel.PeakGflops());
}

TEST(Simulator, ParallelizationHelps) {
  MachineModel machine = MachineModel::IntelCpu20Core();
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State base(&dag);
  State parallel(&dag);
  ASSERT_TRUE(parallel.Annotate("C", 0, IterAnnotation::kParallel));
  EXPECT_LT(SecondsOf(parallel, machine), SecondsOf(base, machine) * 0.5);
}

TEST(Simulator, VectorizationHelpsUnitStride) {
  MachineModel machine = MachineModel::IntelCpu20Core();
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State base(&dag);
  State vec(&dag);
  // j (axis 1) is unit stride for B and C.
  ASSERT_TRUE(vec.Reorder("C", {0, 2, 1}));
  ASSERT_TRUE(vec.Annotate("C", 2, IterAnnotation::kVectorize));
  State base_reordered(&dag);
  ASSERT_TRUE(base_reordered.Reorder("C", {0, 2, 1}));
  EXPECT_LT(SecondsOf(vec, machine), SecondsOf(base_reordered, machine));
}

TEST(Simulator, StridedVectorizationWorseThanUnitStride) {
  MachineModel machine = MachineModel::IntelCpu20Core();
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  // Vectorizing j (unit stride) vs vectorizing k (stride 64 on B... actually
  // stride 16 on B, 1 on A) -- j should win since all accesses are unit or
  // invariant.
  State vec_j(&dag);
  ASSERT_TRUE(vec_j.Reorder("C", {0, 2, 1}));
  ASSERT_TRUE(vec_j.Annotate("C", 2, IterAnnotation::kVectorize));
  State vec_i(&dag);
  // i has stride 64 on A and C: gather.
  ASSERT_TRUE(vec_i.Reorder("C", {1, 2, 0}));
  ASSERT_TRUE(vec_i.Annotate("C", 2, IterAnnotation::kVectorize));
  EXPECT_LT(SecondsOf(vec_j, machine), SecondsOf(vec_i, machine));
}

TEST(Simulator, TilingHelpsLargeMatmul) {
  MachineModel machine = MachineModel::IntelCpu20Core();
  ComputeDAG dag = testing::Matmul(256, 256, 256);
  State naive(&dag);
  State tiled(&dag);
  // Classic cache tiling: 32x32 tiles over i, j with k blocked.
  ASSERT_TRUE(tiled.Split("C", 0, {32}));
  ASSERT_TRUE(tiled.Split("C", 2, {32}));
  ASSERT_TRUE(tiled.Split("C", 4, {32}));
  ASSERT_TRUE(tiled.Reorder("C", {0, 2, 4, 1, 3, 5}));
  EXPECT_LT(SecondsOf(tiled, machine), SecondsOf(naive, machine));
}

TEST(Simulator, UnrollReducesOverhead) {
  MachineModel machine = MachineModel::IntelCpu20Core();
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State base(&dag);
  State unrolled(&dag);
  ASSERT_TRUE(unrolled.Split("C", 2, {8}));
  ASSERT_TRUE(unrolled.Annotate("C", 3, IterAnnotation::kUnroll));
  EXPECT_LT(SecondsOf(unrolled, machine), SecondsOf(base, machine));
}

TEST(Simulator, ZeroEliminationRewardsUnrolledPadding) {
  // A matmul over a zero-padded tensor (half the reduction range is zero):
  // with unrolling the simulator should credit multiply-by-zero elimination.
  Tensor a = Placeholder("A", {16, 32});
  Tensor d = Placeholder("Dm", {64, 16});
  Tensor c = Compute("C", {16, 64}, [&](const std::vector<Expr>& i) {
    return Select(i[1] < IntImm(32), a(i[0], Min(i[1], IntImm(31))), FloatImm(0.0));
  });
  Tensor e = Compute("E", {16, 16}, [&](const std::vector<Expr>& i) {
    Expr k = ReduceAxis(64, "k");
    return Sum(c(i[0], k) * d(k, i[1]), {k});
  });
  ComputeDAG dag({a, d, c, e});
  MachineModel machine = MachineModel::IntelCpu20Core();

  State plain(&dag);
  ASSERT_TRUE(plain.ComputeInline("C"));
  State unrolled(&dag);
  ASSERT_TRUE(unrolled.ComputeInline("C"));
  ASSERT_TRUE(unrolled.Pragma("E", 64));
  EXPECT_LT(SecondsOf(unrolled, machine), SecondsOf(plain, machine));
}

TEST(Simulator, GuardSelectivityReducesIterations) {
  MachineModel machine = MachineModel::IntelCpu20Core();
  // Non-exact split creates a guard; the simulator should not charge for the
  // guarded-out iterations (10 rows padded to 12).
  ComputeDAG dag10 = testing::Matmul(10, 16, 16);
  State guarded(&dag10);
  ASSERT_TRUE(guarded.Split("C", 0, {4}));  // ceil(10/4)=3 -> 12 iterations
  ComputeDAG dag12 = testing::Matmul(12, 16, 16);
  State full(&dag12);
  ASSERT_TRUE(full.Split("C", 0, {4}));
  // The guarded 10-row program must cost less than the full 12-row program.
  EXPECT_LT(SecondsOf(guarded, machine), SecondsOf(full, machine));
}

TEST(Simulator, GpuNeedsThreadBinding) {
  MachineModel gpu = MachineModel::NvidiaGpu();
  ComputeDAG dag = testing::Matmul(128, 128, 64);
  State unbound(&dag);
  State bound(&dag);
  ASSERT_TRUE(bound.Split("C", 0, {8}));
  ASSERT_TRUE(bound.Split("C", 2, {32}));
  ASSERT_TRUE(bound.Reorder("C", {0, 2, 1, 3, 4}));
  ASSERT_TRUE(bound.Fuse("C", 0, 2));
  ASSERT_TRUE(bound.Fuse("C", 1, 2));
  ASSERT_TRUE(bound.Annotate("C", 0, IterAnnotation::kBlockX));
  ASSERT_TRUE(bound.Annotate("C", 1, IterAnnotation::kThreadX));
  EXPECT_LT(SecondsOf(bound, gpu), SecondsOf(unbound, gpu) * 0.1);
}

TEST(Simulator, ArmSlowerThanIntel) {
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State state(&dag);
  ASSERT_TRUE(state.Annotate("C", 0, IterAnnotation::kParallel));
  EXPECT_GT(SecondsOf(state, MachineModel::ArmCpu4Core()),
            SecondsOf(state, MachineModel::IntelCpu20Core()));
}

TEST(Selectivity, AffineConditions) {
  Expr v = MakeVar("v", 100);
  std::unordered_map<int64_t, int64_t> extents = {{v->var_id, 100}};
  EXPECT_NEAR(EstimateSelectivity(Expr(v) < IntImm(50), extents), 0.5, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Expr(v) < IntImm(100), extents), 1.0, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Expr(v) < IntImm(0), extents), 0.0, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Expr(v) >= IntImm(25), extents), 0.75, 1e-9);
  // Conjunction multiplies.
  Expr w = MakeVar("w", 10);
  extents[w->var_id] = 10;
  EXPECT_NEAR(EstimateSelectivity((Expr(v) < IntImm(50)) && (Expr(w) < IntImm(5)), extents),
              0.25, 1e-9);
}

TEST(Measurer, MeasuresAndCounts) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  State state(&dag);
  MeasureResult r = measurer.Measure(state);
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_EQ(measurer.trial_count(), 1);
}

TEST(Measurer, InvalidProgramFailsGracefully) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  ComputeDAG dag = testing::MatmulRelu();
  State state(&dag);
  state.Split("C", 99, {2});
  MeasureResult r = measurer.Measure(state);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(measurer.trial_count(), 1);
}

TEST(Measurer, BatchMatchesSingle) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  std::vector<State> states;
  for (int i = 0; i < 8; ++i) {
    State s(&dag);
    states.push_back(std::move(s));
  }
  auto results = measurer.MeasureBatch(states);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.valid);
    EXPECT_DOUBLE_EQ(r.seconds, results[0].seconds);
  }
  EXPECT_EQ(measurer.trial_count(), 8);
}

TEST(Measurer, NoiseIsDeterministicPerProgram) {
  MeasureOptions options;
  options.noise_stddev = 0.05;
  options.noise_seed = 7;
  Measurer measurer(MachineModel::IntelCpu20Core(), options);
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  State state(&dag);
  MeasureResult a = measurer.Measure(state);
  MeasureResult b = measurer.Measure(state);
  ASSERT_TRUE(a.valid);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

TEST(Measurer, VerificationCatchesNothingOnValidPrograms) {
  MeasureOptions options;
  options.verify_every = 1;
  Measurer measurer(MachineModel::IntelCpu20Core(), options);
  ComputeDAG dag = testing::Matmul(8, 8, 8);
  State state(&dag);
  ASSERT_TRUE(state.Split("C", 0, {4}));
  MeasureResult r = measurer.Measure(state);
  EXPECT_TRUE(r.valid) << r.error;
}

TEST(MeasurerVerifyCadence, ResetTrialCountResetsVerifyPhase) {
  // Regression: ResetTrialCount() used to reset only the budget counter, so a
  // second run sharing the Measurer continued the previous run's verify_every
  // phase (here: verifying trials 4 of 3..5 — one check — instead of trials 0
  // and 2 — two checks).
  MeasureOptions options;
  options.verify_every = 2;
  Measurer measurer(MachineModel::IntelCpu20Core(), options);
  ComputeDAG dag = testing::Matmul(8, 8, 8);
  State state(&dag);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(measurer.Measure(state).valid);
  }
  EXPECT_EQ(measurer.verification_count(), 2);  // trials 0 and 2
  measurer.ResetTrialCount();
  EXPECT_EQ(measurer.trial_count(), 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(measurer.Measure(state).valid);
  }
  EXPECT_EQ(measurer.verification_count(), 4);  // cadence restarted at trial 0
}

TEST(Measurer, SubmitBatchMatchesMeasureBatch) {
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  std::vector<State> states;
  for (int i = 1; i <= 4; ++i) {
    State s(&dag);
    ASSERT_TRUE(s.Split("C", 0, {1 << i}));
    states.push_back(std::move(s));
  }
  Measurer sync_measurer(MachineModel::IntelCpu20Core());
  Measurer async_measurer(MachineModel::IntelCpu20Core());
  std::vector<MeasureResult> sync_results = sync_measurer.MeasureBatch(states);
  PendingMeasureBatch pending = async_measurer.SubmitBatch(states);
  std::vector<MeasureResult> async_results = pending.Wait();
  EXPECT_TRUE(pending.done());
  ASSERT_EQ(async_results.size(), sync_results.size());
  for (size_t i = 0; i < sync_results.size(); ++i) {
    EXPECT_EQ(async_results[i].valid, sync_results[i].valid);
    EXPECT_FALSE(async_results[i].cancelled);
    EXPECT_DOUBLE_EQ(async_results[i].seconds, sync_results[i].seconds);
  }
  EXPECT_EQ(async_measurer.trial_count(), sync_measurer.trial_count());
}

TEST(Measurer, MeasureBatchRunsOnlyOnTheDevicePool) {
  // A 1-thread device measures one trial at a time: four 50 ms trials take
  // at least 200 ms. The calling thread must not run a second trial beside
  // the device worker.
  ThreadPool device(1);
  MeasureOptions options;
  options.thread_pool = &device;
  options.measure_latency_seconds = 0.05;
  Measurer measurer(MachineModel::IntelCpu20Core(), options);
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  std::vector<State> states(4, State(&dag));
  const auto start = std::chrono::steady_clock::now();
  std::vector<MeasureResult> results = measurer.MeasureBatch(states);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_EQ(results.size(), 4u);
  for (const MeasureResult& r : results) {
    EXPECT_TRUE(r.valid) << r.error;
  }
  EXPECT_GE(elapsed, 0.19);
}

TEST(Measurer, CancelledTrialsAreNotCharged) {
  // Block the (single-worker) pool so no batch item can start, cancel, then
  // drain: every item must come back cancelled without touching the trial
  // counter — the "no lost budget accounting" half of deadline cancellation.
  ThreadPool pool(1);
  pool.Enqueue([] { std::this_thread::sleep_for(std::chrono::milliseconds(100)); });
  Measurer measurer(MachineModel::IntelCpu20Core());
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  std::vector<State> states(4, State(&dag));
  PendingMeasureBatch pending =
      measurer.SubmitBatch(states, &pool);
  pending.Cancel();
  std::vector<MeasureResult> results = pending.Wait();
  ASSERT_EQ(results.size(), 4u);
  for (const MeasureResult& r : results) {
    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.valid);
  }
  EXPECT_EQ(measurer.trial_count(), 0);
}

}  // namespace
}  // namespace ansor

namespace ansor {
namespace {

TEST(Simulator, ConstantLayoutRewriteHelpsStridedWeights) {
  // Dense layer: the weight matrix W[out, in] is read with stride in_dim
  // along the output axis. With §4.2 layout rewrite the compiler repacks the
  // constant tensor, so the strided access costs as if contiguous.
  ComputeDAG dag = MakeDense(64, 256, 256);
  State state(&dag);
  // Vectorize the output-channel axis of the matmul (strided weight access).
  ASSERT_TRUE(state.Reorder("dense", {0, 2, 1}));
  ASSERT_TRUE(state.Annotate("dense", 2, IterAnnotation::kVectorize));
  LoweredProgram prog = Lower(state);
  ASSERT_TRUE(prog.ok);

  SimOptions on;
  on.rewrite_constant_layouts = true;
  SimOptions off;
  off.rewrite_constant_layouts = false;
  SimulatedCost with_rewrite = SimulateProgram(prog, MachineModel::IntelCpu20Core(), on);
  SimulatedCost without = SimulateProgram(prog, MachineModel::IntelCpu20Core(), off);
  ASSERT_TRUE(with_rewrite.valid);
  ASSERT_TRUE(without.valid);
  EXPECT_LT(with_rewrite.seconds, without.seconds);
}

TEST(Simulator, LayoutRewriteDoesNotAffectNonConstantBuffers) {
  // A plain matmul with non-constant inputs must cost the same either way.
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  State state(&dag);
  LoweredProgram prog = Lower(state);
  SimOptions on;
  SimOptions off;
  off.rewrite_constant_layouts = false;
  EXPECT_DOUBLE_EQ(SimulateProgram(prog, MachineModel::IntelCpu20Core(), on).seconds,
                   SimulateProgram(prog, MachineModel::IntelCpu20Core(), off).seconds);
}

TEST(ConstantPlaceholderTest, FlagPropagates) {
  Tensor w = ConstantPlaceholder("W", {4, 4});
  Tensor a = Placeholder("A", {4, 4});
  EXPECT_TRUE(w.buffer()->is_constant);
  EXPECT_FALSE(a.buffer()->is_constant);
}

}  // namespace
}  // namespace ansor
