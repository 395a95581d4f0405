// Self time of a span trace for the end-to-end benchmark.
//
// The library's FoldEvents (src/telemetry/trace_report.h) gives each span
// name's count and summed duration (busy seconds). This file adds what it
// does not: self time. A span's self time is its interval minus the union of
// its children's intervals, with each child clipped to the parent first. It
// is never negative. Subtracting summed child durations instead goes negative
// as soon as children overlap, which they do whenever they run on the thread
// pool (the trials of a measurement batch, the artifact builds of an
// evolution generation). For such pool layers the busy seconds are the
// meaningful number; self time is meaningful on the tuning thread.
#ifndef ANSOR_BENCH_E2E_SPAN_FOLD_H_
#define ANSOR_BENCH_E2E_SPAN_FOLD_H_

#include <map>
#include <string>
#include <vector>

#include "src/telemetry/trace.h"

namespace ansor {
namespace e2e {

// Summed self time of the spans of each name.
std::map<std::string, double> SelfSeconds(const std::vector<TraceEvent>& events);

// Seconds of the spans named `name` that their direct children cover: the
// sum over those spans of the length of their children's clipped union.
double CoveredSeconds(const std::vector<TraceEvent>& events, const std::string& name);

// Checks both folds on a synthetic trace with overlapping and out-of-parent
// children. Prints each failed check to stderr; returns the failure count.
int SelfTest();

}  // namespace e2e
}  // namespace ansor

#endif  // ANSOR_BENCH_E2E_SPAN_FOLD_H_
