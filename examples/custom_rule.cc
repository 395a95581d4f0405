// Demonstrates registering a user-defined derivation rule (paper §4.1: "we
// allow users to register new derivation rules and integrate them seamlessly
// with existing rules").
//
// The custom rule below adds an extra sketch family for reduction stages: it
// splits the reduction axis into three levels instead of Ansor's default two
// (useful for very deep reductions on machines with deep cache hierarchies).
#include <cstdio>

#include "examples/example_util.h"
#include "src/core/ansor.h"
#include "src/sketch/sketch.h"

int main() {
  ansor::SketchRule deep_reduction;
  deep_reduction.name = "DeepReductionTiling";
  deep_reduction.exclusive = false;  // branches alongside the built-in rules
  deep_reduction.condition = [](const ansor::State& state, int i) {
    return ansor::HasDataReuse(state, i) &&
           ansor::ReductionDomainSize(state.stage(i)) >= 256;
  };
  deep_reduction.apply = [](const ansor::State& state, int i) {
    ansor::State next = state;
    std::vector<std::pair<ansor::State, int>> result;
    // 4 space levels, 3 reduction levels: "SSRSRSR"-style structure.
    auto steps = ansor::ApplyMultiLevelTiling(&next, state.stage(i).name(),
                                              /*space_levels=*/4, /*reduce_levels=*/3);
    if (!steps.empty()) {
      result.emplace_back(std::move(next), i - 1);
    }
    return result;
  };

  ansor::ComputeDAG dag = ansor::MakeMatmul(256, 256, 2048);

  ansor::SketchOptions plain;
  ansor::SketchOptions with_custom;
  with_custom.custom_rules.push_back(deep_reduction);

  auto base = ansor::GenerateSketches(&dag, plain);
  auto extended = ansor::GenerateSketches(&dag, with_custom);
  std::printf("sketches without custom rule: %zu\n", base.size());
  std::printf("sketches with custom rule:    %zu\n", extended.size());

  // Tune inside the extended space.
  ansor::Measurer measurer(ansor::MachineModel::IntelCpu20Core());
  ansor::GbdtCostModel model;
  ansor::SearchTask task = ansor::MakeSearchTask("deep-matmul", dag);
  ansor::SearchOptions options;
  options.sketch = with_custom;
  options.population = ansor::examples::ScaledPopulation(24);
  options.generations = 2;
  ansor::TuneResult r = ansor::TuneTask(task, &measurer, &model,
                                        /*trials=*/ansor::examples::ScaledTrials(48), 16,
                                        options);
  if (r.best_state.has_value()) {
    std::printf("\nbest program with custom rule: %.3f ms, %.1f GFLOPS\n",
                r.best_seconds * 1e3, r.best_throughput / 1e9);
    // Did the winner use the deep-reduction structure (3 reduce levels)?
    int reduce_splits = 0;
    for (const ansor::Step& step : r.best_state->steps()) {
      if (step.kind == ansor::StepKind::kSplit && step.lengths.size() == 2) {
        ++reduce_splits;
      }
    }
    std::printf("winner uses a 3-level reduction split: %s\n",
                reduce_splits > 0 ? "yes" : "no");
  }
  return 0;
}
