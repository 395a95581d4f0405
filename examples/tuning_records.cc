// Persistence workflow: tune once with the fleet store attached, save the
// binary record log AND an artifact snapshot, then — in a fresh "restart"
// context — resume tuning warm (no recompilation of anything already seen)
// and finally apply the best schedule with no search at all.
#include <cstdio>

#include "examples/example_util.h"
#include "src/core/ansor.h"
#include "src/program/program_cache.h"
#include "src/store/artifact_store.h"
#include "src/store/record_store.h"

int main() {
  ansor::ComputeDAG dag = ansor::MakeConv2d(1, 64, 28, 28, 64, 3, 3, 1, 1);
  ansor::SearchTask task = ansor::MakeSearchTask("conv", dag);
  const std::string record_path = "/tmp/ansor_records_example.bin";
  const std::string artifact_path = "/tmp/ansor_artifacts_example.bin";

  ansor::SearchOptions options;
  options.population = ansor::examples::ScaledPopulation(24);
  options.generations = 2;
  int trials = ansor::examples::ScaledTrials(48);

  // --- Tuning phase: search with the record store + a capturable cache. --
  {
    ansor::Measurer measurer(ansor::MachineModel::IntelCpu20Core());
    ansor::GbdtCostModel model;
    ansor::RecordStore store;
    ansor::ProgramCache cache;
    ansor::SearchOptions tuning = options;
    tuning.record_store = &store;
    tuning.program_cache = &cache;
    ansor::TuneResult r = ansor::TuneTask(task, &measurer, &model, trials, 16, tuning);

    // Records go to the compact binary container.
    if (!store.SaveToFile(record_path)) {
      std::printf("failed to write %s\n", record_path.c_str());
      return 1;
    }
    // The artifact snapshot is what makes the *next* run warm: every
    // compiled program's features and legality verdicts, ready to serve as
    // cache hits without replay/lowering.
    ansor::ArtifactStore artifacts;
    artifacts.CaptureCache(cache);
    if (!artifacts.SaveToFile(artifact_path)) {
      std::printf("failed to write %s\n", artifact_path.c_str());
      return 1;
    }
    std::printf("tuned: best %.3f ms; %zu records + %zu artifacts saved\n",
                r.best_seconds * 1e3, store.size(), artifacts.size());
  }

  // --- Resume phase: reload state, continue tuning without recompiling. --
  {
    ansor::RecordStore store;
    ansor::RecordLoadStats loaded = store.LoadFromFile(record_path);
    if (!loaded) {
      std::printf("failed to load records\n");
      return 1;
    }
    std::printf("resumed: %zu records loaded, %zu skipped, index %s\n", loaded.loaded,
                loaded.skipped, loaded.index_ok ? "verified" : "rebuilt");

    ansor::ArtifactStore artifacts;
    ansor::ProgramCache cache;
    artifacts.LoadFromFile(artifact_path);
    size_t warmed = artifacts.WarmCache(&cache, task.task_id());

    ansor::Measurer measurer(ansor::MachineModel::IntelCpu20Core());
    ansor::GbdtCostModel model;
    ansor::SearchOptions resume = options;
    resume.record_store = &store;
    resume.program_cache = &cache;
    ansor::TuneResult r = ansor::TuneTask(task, &measurer, &model, trials, 16, resume);
    ansor::ProgramCacheStats stats = cache.stats();
    std::printf("warm resume: best %.3f ms; %zu artifacts restored, %lld served as "
                "hits, %lld compiled fresh\n",
                r.best_seconds * 1e3, warmed, static_cast<long long>(stats.hits),
                static_cast<long long>(stats.misses));

    // --- Deployment: no search, just replay the store's best record. ----
    ansor::State best = store.ReplayBest(task.dag.get());
    if (best.failed()) {
      std::printf("no record for this task\n");
      return 1;
    }
    ansor::MeasureResult m = measurer.Measure(best);
    std::printf("replayed best from store: %.3f ms, %.1f GFLOPS (no search needed)\n",
                m.seconds * 1e3, m.throughput / 1e9);
    std::printf("\n%s\n", ansor::Lower(best).ToString().c_str());
  }
  std::remove(record_path.c_str());
  std::remove(artifact_path.c_str());
  return 0;
}
