// Micro-benchmark for the scoring stack (paper §5.2): feature-extraction
// throughput over the flat FeatureMatrix path and GBDT program prediction
// through GbdtCostModel::PredictBatch. Emits one "BENCH_JSON {...}" line for
// bench/BENCH_micro_scoring.json.
#include <chrono>

#include "bench/bench_util.h"
#include "src/program/program_cache.h"

namespace ansor {
namespace bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int Run() {
  ComputeDAG dag = MakeMatmul(64, 64, 64);
  Rng init_rng(1);
  ProgramCache cache;
  auto population = SampleLowerablePopulation(&dag, 16, &init_rng, SamplerOptions(),
                                              SketchOptions(), &cache);

  PrintHeader("micro_scoring: feature extraction + GBDT program prediction");

  // --- Feature extraction over pre-lowered programs -------------------------
  std::vector<LoweredProgram> lowered;
  lowered.reserve(population.size());
  for (const State& s : population) {
    lowered.push_back(Lower(s));
  }
  int extract_repeats = std::max(1, static_cast<int>(60 * Scale()));
  size_t rows_extracted = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < extract_repeats; ++r) {
    for (const LoweredProgram& prog : lowered) {
      FeatureMatrix m = ExtractFeatures(prog);
      rows_extracted += m.rows();
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  double extract_elapsed = Seconds(t0, t1);
  double extract_rows_per_sec =
      static_cast<double>(rows_extracted) / std::max(extract_elapsed, 1e-12);
  std::printf("extracted %zu rows in %.3f s (%.0f rows/sec, %d repeats x %zu programs)\n",
              rows_extracted, extract_elapsed, extract_rows_per_sec, extract_repeats,
              lowered.size());

  // --- Train the cost model on simulated measurements -----------------------
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<FeatureMatrix> features;
  std::vector<double> throughputs;
  for (const State& s : population) {
    features.push_back(cache.GetOrBuild(s)->features());
    MeasureResult r = measurer.Measure(s, &cache);
    throughputs.push_back(r.valid ? r.throughput : 0.0);
  }
  model.Update(dag.CanonicalHash(), features, throughputs);
  size_t n_trees = model.gbdt().trees().size();

  // --- Program prediction ---------------------------------------------------
  // Replicate the population up to a realistic evolution-wave row count (one
  // Evolve generation scores hundreds of programs in one batch).
  std::vector<const FeatureMatrix*> programs;
  size_t rows = 0;
  while (rows < 4096) {
    for (const FeatureMatrix& m : features) {
      programs.push_back(&m);
      rows += m.rows();
    }
  }
  int predict_repeats = std::max(1, static_cast<int>(240 * Scale()));
  t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < predict_repeats; ++rep) {
    model.PredictBatch(programs);
  }
  t1 = std::chrono::steady_clock::now();
  double predict_elapsed = Seconds(t0, t1);
  double predict_rows_per_sec = static_cast<double>(rows) *
                                static_cast<double>(predict_repeats) /
                                std::max(predict_elapsed, 1e-12);
  std::printf("predicted %zu rows (%zu programs, %zu trees) x %d repeats in %.3f s "
              "(%.0f rows/sec)\n",
              rows, programs.size(), n_trees, predict_repeats, predict_elapsed,
              predict_rows_per_sec);

  MetricsRegistry registry;
  registry.SetGauge("scoring.extract_rows_per_sec", extract_rows_per_sec, "rows/s");
  registry.SetGauge("scoring.predict_rows_per_sec", predict_rows_per_sec, "rows/s");
  cache.ExportMetrics(&registry, "cache");
  measurer.ExportMetrics(&registry, "measurer");
  model.ExportMetrics(&registry, "model");

  std::printf("BENCH_JSON {\"bench\":\"micro_scoring\",\"extract_rows_per_sec\":%.1f,"
              "\"predict_rows_per_sec\":%.1f,\"rows\":%zu,\"trees\":%zu,%s}\n",
              extract_rows_per_sec, predict_rows_per_sec, rows, n_trees,
              MetricsBlock(registry).c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ansor

int main() { return ansor::bench::Run(); }
