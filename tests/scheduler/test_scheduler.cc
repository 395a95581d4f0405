#include <gtest/gtest.h>

#include "src/scheduler/task_scheduler.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

SearchTask MakeTask(ComputeDAG dag, const std::string& name, int weight = 1,
                    const std::string& tag = "") {
  return MakeSearchTask(name, std::move(dag), weight, tag);
}

TaskSchedulerOptions FastOptions() {
  TaskSchedulerOptions options;
  options.measures_per_round = 8;
  options.search.population = 12;
  options.search.generations = 1;
  options.search.random_samples_per_round = 6;
  return options;
}

TEST(Scheduler, WarmUpVisitsEveryTask) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(32, 32, 32), "a"),
                                   MakeTask(testing::Matmul(64, 64, 64), "b"),
                                   MakeTask(testing::Matmul(64, 32, 64), "c")};
  std::vector<NetworkSpec> nets = {{"net", {0, 1, 2}}};
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model,
                          FastOptions());
  scheduler.Tune(/*total_rounds=*/3);
  for (int alloc : scheduler.allocations()) {
    EXPECT_EQ(alloc, 1);
  }
}

TEST(Scheduler, PrioritizesHighLatencyTask) {
  // One heavy task and two trivial ones: after warm-up, gradient descent
  // should spend most rounds on the heavy task (it dominates the objective).
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {
      MakeTask(MakeConv2d(8, 128, 28, 28, 128, 3, 3, 1, 1), "heavy"),
      MakeTask(testing::Matmul(16, 16, 16), "tiny1"),
      MakeTask(testing::Matmul(16, 32, 16), "tiny2")};
  std::vector<NetworkSpec> nets = {{"net", {0, 1, 2}}};
  TaskSchedulerOptions options = FastOptions();
  options.eps_greedy = 0.0;
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model, options);
  scheduler.Tune(12);
  const auto& alloc = scheduler.allocations();
  EXPECT_GT(alloc[0], alloc[1]);
  EXPECT_GT(alloc[0], alloc[2]);
}

TEST(Scheduler, ObjectiveDecreasesOverTime) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(128, 128, 128), "m")};
  std::vector<NetworkSpec> nets = {{"net", {0}}};
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model,
                          FastOptions());
  scheduler.Tune(6);
  const auto& history = scheduler.history();
  ASSERT_GE(history.size(), 2u);
  EXPECT_LE(history.back().second, history.front().second);
}

TEST(Scheduler, LatencyRequirementStopsSatisfiedNetwork) {
  // f2: once a network's latency is below its requirement, its tasks' gradient
  // becomes 0 and the other network receives the remaining rounds.
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(32, 32, 32), "small"),
                                   MakeTask(MakeConv2d(8, 64, 28, 28, 64, 3, 3, 1, 1), "big")};
  std::vector<NetworkSpec> nets = {{"netA", {0}}, {"netB", {1}}};
  TaskSchedulerOptions options = FastOptions();
  options.eps_greedy = 0.0;
  // netA's requirement is generous (any measured program satisfies it);
  // netB's is unattainable.
  TaskScheduler scheduler(tasks, nets, Objective::LatencyRequirement({10.0, 1e-9}),
                          &measurer, &model, options);
  scheduler.Tune(10);
  EXPECT_GT(scheduler.allocations()[1], scheduler.allocations()[0]);
}

TEST(Scheduler, GeoMeanSpeedupObjective) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(64, 64, 64), "m")};
  std::vector<NetworkSpec> nets = {{"net", {0}}};
  TaskScheduler scheduler(tasks, nets, Objective::GeoMeanSpeedup({1.0}), &measurer, &model,
                          FastOptions());
  scheduler.Tune(3);
  // Objective is negative geomean speedup; with a 1-second reference it must
  // be a large negative number (simulated latencies are far below 1 second).
  EXPECT_LT(scheduler.ObjectiveValue(), -1.0);
  EXPECT_GT(scheduler.NetworkLatency(0), 0.0);
}

TEST(Scheduler, EarlyStoppingDeprioritizesStagnantTask) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(32, 32, 32), "a"),
                                   MakeTask(testing::Matmul(64, 64, 64), "b")};
  std::vector<NetworkSpec> nets = {{"net", {0, 1}}};
  TaskSchedulerOptions options = FastOptions();
  options.eps_greedy = 0.0;
  Objective objective = Objective::EarlyStopping(/*rounds=*/1);
  TaskScheduler scheduler(tasks, nets, objective, &measurer, &model, options);
  // Should not crash and should allocate all rounds.
  scheduler.Tune(8);
  EXPECT_EQ(scheduler.allocations()[0] + scheduler.allocations()[1], 8);
}

TEST(Scheduler, CustomObjective) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(32, 32, 32), "a")};
  std::vector<NetworkSpec> nets = {{"net", {0}}};
  Objective objective;
  objective.kind = ObjectiveKind::kCustom;
  objective.custom = [](const std::vector<double>& lat) { return 3.0 * lat[0]; };
  TaskScheduler scheduler(tasks, nets, objective, &measurer, &model, FastOptions());
  scheduler.Tune(2);
  EXPECT_NEAR(scheduler.ObjectiveValue(), 3.0 * scheduler.NetworkLatency(0), 1e-12);
}

TEST(Scheduler, TaskWeightsScaleNetworkLatency) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(32, 32, 32), "a", /*weight=*/5)};
  std::vector<NetworkSpec> nets = {{"net", {0}}};
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model,
                          FastOptions());
  scheduler.Tune(2);
  double task_best = scheduler.tuners()[0]->best_seconds();
  EXPECT_NEAR(scheduler.NetworkLatency(0), 5.0 * task_best, 1e-12);
}

TEST(Scheduler, SimilarTasksInformGradient) {
  // Two same-tag matmuls: once one is tuned fast, the similarity term gives
  // the other a finite optimistic gradient (no crash, sane allocations).
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {
      MakeTask(testing::Matmul(64, 64, 64), "a", 1, "matmul"),
      MakeTask(testing::Matmul(128, 128, 128), "b", 1, "matmul")};
  std::vector<NetworkSpec> nets = {{"net", {0, 1}}};
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model,
                          FastOptions());
  scheduler.Tune(6);
  EXPECT_EQ(scheduler.allocations()[0] + scheduler.allocations()[1], 6);
  EXPECT_GE(scheduler.allocations()[0], 1);
  EXPECT_GE(scheduler.allocations()[1], 1);
}

}  // namespace
}  // namespace ansor

namespace ansor {
namespace {

TEST(SchedulerGradient, BackwardWindowTermUsesHistory) {
  // Directly exercise the §6.2 gradient approximation: a task whose latency
  // history is still falling steeply must out-prioritize one that has
  // flattened, all else equal.
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(64, 64, 64), "a"),
                                   MakeTask(MakeMatmul(64, 64, 64, 2), "b")};
  std::vector<NetworkSpec> nets = {{"net", {0, 1}}};
  TaskSchedulerOptions options = FastOptions();
  options.eps_greedy = 0.0;
  options.alpha = 1.0;  // trust only the backward window
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model, options);
  scheduler.Tune(6);
  // With alpha=1 the scheduler still allocates all rounds and never crashes
  // even when the backward difference is zero (flat history).
  EXPECT_EQ(scheduler.allocations()[0] + scheduler.allocations()[1], 6);
}

TEST(SchedulerGradient, BetaZeroDisablesSimilarityTerm) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {
      MakeTask(testing::Matmul(64, 64, 64), "a", 1, "matmul"),
      MakeTask(testing::Matmul(128, 128, 128), "b", 1, "matmul")};
  std::vector<NetworkSpec> nets = {{"net", {0, 1}}};
  TaskSchedulerOptions options = FastOptions();
  options.beta = 0.0;  // similarity prediction says "latency can reach 0"
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model, options);
  scheduler.Tune(5);
  EXPECT_EQ(scheduler.allocations()[0] + scheduler.allocations()[1], 5);
}

TEST(SchedulerGradient, GoldenRngDrawOrderTrace) {
  // Executable spec of the pinned RNG draw-order contract (task_scheduler.h):
  // warm-up consumes no draws and visits tasks in index order; every
  // post-warm-up pick consumes exactly one Uniform() (the eps-greedy coin),
  // then exactly one Index(num_tasks) iff the coin explores. With
  // eps_greedy=1.0 every pick explores, so an independent Rng replaying that
  // draw sequence must reproduce the scheduler's allocation trace exactly.
  // If this test fails, a refactor reordered or added draws — which silently
  // changes every fixed-seed tuning run.
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(16, 16, 16), "a"),
                                   MakeTask(testing::Matmul(32, 16, 16), "b"),
                                   MakeTask(testing::Matmul(16, 32, 16), "c")};
  std::vector<NetworkSpec> nets = {{"net", {0, 1, 2}}};
  TaskSchedulerOptions options = FastOptions();
  options.eps_greedy = 1.0;
  options.seed = 123;
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model, options);
  scheduler.Tune(9);

  Rng replay(123);
  std::vector<int> expected = {0, 1, 2};  // warm-up: lowest-index unvisited, no draws
  for (int round = 3; round < 9; ++round) {
    double coin = replay.Uniform();
    ASSERT_LT(coin, 1.0);  // always below eps_greedy=1.0: always explore
    expected.push_back(static_cast<int>(replay.Index(tasks.size())));
  }
  EXPECT_EQ(scheduler.allocation_trace(), expected);
}

TEST(SchedulerGradient, EpsZeroTraceInvariantToSchedulerSeed) {
  // With eps_greedy=0 the per-pick Uniform() coin never explores and the
  // gradient argmax consumes no RNG, so the allocation trace cannot depend on
  // the scheduler seed at all.
  auto run = [](uint64_t seed) {
    Measurer measurer(MachineModel::IntelCpu20Core());
    GbdtCostModel model;
    std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(32, 32, 32), "a"),
                                     MakeTask(testing::Matmul(64, 64, 64), "b")};
    std::vector<NetworkSpec> nets = {{"net", {0, 1}}};
    TaskSchedulerOptions options = FastOptions();
    options.eps_greedy = 0.0;
    options.seed = seed;
    TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model,
                            options);
    scheduler.Tune(6);
    return scheduler.allocation_trace();
  };
  EXPECT_EQ(run(1), run(999));
}

TEST(Scheduler, StepwiseDriveMatchesTune) {
  // Driving the resumable-round interface by hand — including the async
  // submit — must be bit-identical to the legacy synchronous Tune().
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(32, 32, 32), "a"),
                                   MakeTask(testing::Matmul(64, 32, 32), "b")};
  std::vector<NetworkSpec> nets = {{"net", {0, 1}}};
  TaskSchedulerOptions options = FastOptions();

  Measurer measurer_a(MachineModel::IntelCpu20Core());
  GbdtCostModel model_a;
  TaskScheduler legacy(tasks, nets, Objective::SumLatency(), &measurer_a, &model_a,
                       options);
  legacy.Tune(6);

  Measurer measurer_b(MachineModel::IntelCpu20Core());
  GbdtCostModel model_b;
  TaskScheduler stepwise(tasks, nets, Objective::SumLatency(), &measurer_b, &model_b,
                         options);
  for (int round = 0; round < 6; ++round) {
    int pick = stepwise.NextTask();
    TaskTuner* tuner = stepwise.tuners()[static_cast<size_t>(pick)].get();
    double before = tuner->best_seconds();
    PlannedRound planned = tuner->PlanRound(options.measures_per_round);
    PendingMeasureBatch batch = tuner->SubmitPlannedRound(planned);
    double after = tuner->CommitRound(std::move(planned), batch.Wait());
    stepwise.RecordRound(pick, before, after);
  }

  EXPECT_EQ(legacy.allocation_trace(), stepwise.allocation_trace());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(legacy.tuners()[i]->best_seconds(),
                     stepwise.tuners()[i]->best_seconds());
  }
  EXPECT_EQ(measurer_a.trial_count(), measurer_b.trial_count());
}

TEST(SchedulerGradient, HistoryIsMonotoneNonIncreasing) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<SearchTask> tasks = {MakeTask(testing::Matmul(128, 128, 128), "m")};
  std::vector<NetworkSpec> nets = {{"net", {0}}};
  TaskScheduler scheduler(tasks, nets, Objective::SumLatency(), &measurer, &model,
                          FastOptions());
  scheduler.Tune(5);
  const auto& history = scheduler.history();
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_LE(history[i].second, history[i - 1].second + 1e-12);
    EXPECT_GE(history[i].first, history[i - 1].first);
  }
}

}  // namespace
}  // namespace ansor
