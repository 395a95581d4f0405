#include "src/core/ansor.h"

#include "src/lower/loop_tree.h"

namespace ansor {

MachineModel MachineFor(TargetKind target) {
  switch (target) {
    case TargetKind::kIntelCpu:
      return MachineModel::IntelCpu20Core();
    case TargetKind::kArmCpu:
      return MachineModel::ArmCpu4Core();
    case TargetKind::kNvidiaGpu:
      return MachineModel::NvidiaGpu();
  }
  return MachineModel::IntelCpu20Core();
}

void ConfigureForTarget(TargetKind target, SearchOptions* options) {
  options->sampler.gpu = target == TargetKind::kNvidiaGpu;
}

AnsorResult AutoSchedule(const ComputeDAG& dag, int num_measure_trials,
                         const AnsorOptions& options) {
  MeasureOptions measure_options;
  measure_options.noise_stddev = options.measurement_noise;
  Measurer measurer(MachineFor(options.target), measure_options);
  GbdtCostModel model;

  SearchTask task = MakeSearchTask("task", dag);
  SearchOptions search = options.search;
  search.seed = options.seed;
  ConfigureForTarget(options.target, &search);

  AnsorResult result;
  result.raw = TuneTask(task, &measurer, &model, num_measure_trials,
                        options.measures_per_round, search);
  if (!result.raw.best_state.has_value()) {
    return result;
  }
  // The program cache keeps features and verdicts, not loop trees, so the
  // winner is lowered once more to print it.
  LoweredProgram best = Lower(*result.raw.best_state);
  if (!best.ok) {
    // A best state was measured valid, so a failed re-lower indicates a bug;
    // report the diagnostic instead of pretty-printing a broken tree.
    result.best_program = "<lowering failed: " + best.error + ">";
    return result;
  }
  result.ok = true;
  result.seconds = result.raw.best_seconds;
  result.gflops = result.raw.best_throughput / 1e9;
  result.best_program = best.ToString();
  return result;
}

std::vector<NetworkTuneResult> TuneNetworks(const std::vector<NetworkTasks>& networks,
                                            int total_rounds, const Objective& objective,
                                            const AnsorOptions& options) {
  MeasureOptions measure_options;
  measure_options.noise_stddev = options.measurement_noise;
  Measurer measurer(MachineFor(options.target), measure_options);
  GbdtCostModel model;

  // Deduplicate identical subgraphs across networks by canonical hash
  // (paper §6: "A subgraph can also appear multiple times in a DNN or across
  // different DNNs").
  std::vector<SearchTask> tasks;
  std::vector<NetworkSpec> specs;
  std::unordered_map<uint64_t, int> task_index;
  for (const NetworkTasks& net : networks) {
    NetworkSpec spec;
    spec.name = net.name;
    for (const SearchTask& task : net.tasks) {
      uint64_t key = task.task_id();
      auto it = task_index.find(key);
      int idx;
      if (it == task_index.end()) {
        idx = static_cast<int>(tasks.size());
        task_index[key] = idx;
        tasks.push_back(task);
      } else {
        idx = it->second;
      }
      spec.task_indices.push_back(idx);
    }
    specs.push_back(std::move(spec));
  }

  TaskSchedulerOptions scheduler_options;
  scheduler_options.seed = options.seed;
  scheduler_options.measures_per_round = options.measures_per_round;
  scheduler_options.search = options.search;
  scheduler_options.search.seed = options.seed;
  ConfigureForTarget(options.target, &scheduler_options.search);

  TaskScheduler scheduler(tasks, specs, objective, &measurer, &model, scheduler_options);
  scheduler.Tune(total_rounds);

  std::vector<NetworkTuneResult> results;
  for (size_t j = 0; j < networks.size(); ++j) {
    NetworkTuneResult r;
    r.name = networks[j].name;
    r.latency_seconds = scheduler.NetworkLatency(static_cast<int>(j));
    for (int idx : specs[j].task_indices) {
      r.task_seconds.push_back(scheduler.tuners()[static_cast<size_t>(idx)]->best_seconds());
    }
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace ansor
