// trace_report: fold a telemetry trace JSONL into a per-phase / per-task /
// per-job time-attribution summary.
//
// Usage: trace_report <trace.jsonl> [more.jsonl ...]
//
// The input is a file written by TraceSink::SaveToFile, typically the sink a
// caller passed as TuningServiceOptions::trace_sink. Multiple files are
// folded together, which is how a fleet of service processes rolls up into
// one report.
#include <cstdio>
#include <string>
#include <vector>

#include "src/telemetry/trace.h"
#include "src/telemetry/trace_report.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace.jsonl> [more.jsonl ...]\n", argv[0]);
    return 2;
  }
  std::vector<ansor::TraceEvent> events;
  for (int i = 1; i < argc; ++i) {
    if (!ansor::TraceSink::LoadFromFile(argv[i], &events)) {
      std::fprintf(stderr, "trace_report: failed to load %s\n", argv[i]);
      return 1;
    }
  }
  ansor::TraceReport report = ansor::FoldEvents(events);
  std::string text = ansor::RenderReport(report);
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}
