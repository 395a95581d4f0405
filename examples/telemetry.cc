// Telemetry workflow: run a traced TuningService twice — a cold service that
// persists its warm state, then a restarted service warm-started from it —
// and fold both JSONL traces into per-phase attribution reports.
//
// The warm-start claim is visible right in the trace: "artifact_build" spans
// are recorded only on program-cache misses (hits record nothing), so the
// cold trace is full of them while the warm re-run of the same fixed-seed
// search has zero — every program the first service compiled is served from
// the restored artifacts.
#include <cstdio>
#include <string>
#include <vector>

#include "examples/example_util.h"
#include "src/core/ansor.h"
#include "src/service/tuning_service.h"
#include "src/support/util.h"
#include "src/telemetry/trace.h"
#include "src/telemetry/trace_report.h"

namespace {

struct ServiceRun {
  bool ok = false;
  ansor::JobReport report;
  size_t artifact_builds = 0;  // cache-miss compilations seen in the trace
  std::string rendered;        // tools/trace_report's fold of the trace
};

// Prints the failed write and returns false, so main can exit 1 on it.
bool Written(bool ok, const char* what, const std::string& path) {
  if (!ok) {
    std::printf("failed to write %s %s\n", what, path.c_str());
  }
  return ok;
}

ServiceRun RunService(const std::string& trace_file, const std::string& warm_start_path,
                      const std::string& save_warm_path,
                      const std::string& metrics_path) {
  ServiceRun run;
  // The caller owns the sink and declares it before the service, so it
  // outlives every job that records into it.
  ansor::TraceSink sink;
  ansor::TuningServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.trace_sink = &sink;
  service_options.warm_start_path = warm_start_path;

  ansor::Measurer measurer(ansor::MachineModel::IntelCpu20Core());
  ansor::GbdtCostModel model;
  {
    ansor::TuningService service(service_options);

    ansor::JobSpec spec;
    spec.name = "conv_job";
    // Two structurally similar tasks under one tag: they share the
    // service-owned cache, which is also what the warm state restores.
    spec.tasks = {
        ansor::MakeSearchTask("mm_a", ansor::MakeMatmul(48, 32, 32), 1, "mm"),
        ansor::MakeSearchTask("mm_b", ansor::MakeMatmul(32, 48, 32), 1, "mm"),
    };
    spec.networks = {{"net", {0, 1}}};
    spec.objective = ansor::Objective::SumLatency();
    spec.options.measures_per_round = 8;
    spec.options.seed = 7;
    spec.options.search.population = ansor::examples::ScaledPopulation(16);
    spec.options.search.generations = 2;
    spec.options.search.random_samples_per_round = 6;
    spec.options.search.seed = 21;
    spec.total_rounds = std::max(2, ansor::examples::ScaledTrials(32) / 8);
    spec.measurer = &measurer;
    spec.model = &model;

    ansor::JobHandle handle = service.Submit(std::move(spec));
    service.WaitAll();
    run.report = handle.report();
    if (!save_warm_path.empty() &&
        !Written(service.SaveWarmState(save_warm_path), "warm state", save_warm_path)) {
      return run;
    }
    // MetricsSnapshotJson reads the job reports, shared caches, warm start
    // and trace sink at call time.
    if (!metrics_path.empty() &&
        !Written(ansor::WriteFileAtomic(metrics_path, service.MetricsSnapshotJson() + "\n"),
                 "metrics snapshot", metrics_path)) {
      return run;
    }
    service.Shutdown();  // every job is terminal: the trace is complete
  }
  if (!Written(sink.SaveToFile(trace_file), "trace", trace_file)) {
    return run;
  }

  std::vector<ansor::TraceEvent> events;
  if (!ansor::TraceSink::LoadFromFile(trace_file, &events)) {
    std::printf("failed to load trace %s\n", trace_file.c_str());
    return run;
  }
  for (const ansor::TraceEvent& event : events) {
    if (event.name == "artifact_build") {
      ++run.artifact_builds;
    }
  }
  run.rendered = ansor::RenderReport(ansor::FoldEvents(events));
  run.ok = true;
  return run;
}

void PrintPhases(const char* label, const ansor::JobReport& report) {
  const ansor::SearchPhaseTimes& p = report.phases;
  std::printf("%s job phases (s): sketch %.3f, search %.3f, measure %.3f, "
              "commit %.3f; trials %lld valid / %lld invalid / %lld cancelled\n",
              label, p.sketch_seconds, p.search_seconds, p.measure_wall_seconds,
              p.commit_seconds,
              static_cast<long long>(report.trials_valid),
              static_cast<long long>(report.trials_invalid),
              static_cast<long long>(report.trials_cancelled));
}

}  // namespace

int main() {
  const std::string cold_trace = "/tmp/ansor_telemetry_trace_cold.jsonl";
  const std::string warm_trace = "/tmp/ansor_telemetry_trace_warm.jsonl";
  const std::string warm_state = "/tmp/ansor_telemetry_warm_state.bin";
  const std::string metrics_path = "/tmp/ansor_telemetry_metrics.json";

  // Cold service: tune, persist the compiled artifacts + the metrics
  // snapshot, leave a full trace behind.
  ServiceRun cold = RunService(cold_trace, /*warm_start_path=*/"", warm_state,
                               metrics_path);
  if (!cold.ok) {
    return 1;
  }
  PrintPhases("cold", cold.report);

  // Restarted service: same fixed-seed job, warm-started from the cold
  // service's artifacts. The search replays the same trajectory, so every
  // compilation it would do is already in the restored cache.
  ServiceRun warm = RunService(warm_trace, warm_state, /*save_warm_path=*/"",
                               /*metrics_path=*/"");
  if (!warm.ok) {
    return 1;
  }
  PrintPhases("warm", warm.report);

  std::printf("\ncompilations traced (artifact_build spans): cold %zu, warm %zu\n",
              cold.artifact_builds, warm.artifact_builds);
  std::printf("\n--- cold trace, folded (what tools/trace_report prints) ---\n%s",
              cold.rendered.c_str());
  std::printf("\n--- warm trace, folded ---\n%s", warm.rendered.c_str());
  std::printf("\ntrace files kept for inspection:\n  %s\n  %s\nmetrics snapshot: %s\n",
              cold_trace.c_str(), warm_trace.c_str(), metrics_path.c_str());

  std::remove(warm_state.c_str());
  // The warm run of the identical fixed-seed search must compile nothing.
  if (warm.artifact_builds != 0) {
    std::printf("warm run expected 0 artifact_build spans, saw %zu\n",
                warm.artifact_builds);
    return 1;
  }
  return 0;
}
