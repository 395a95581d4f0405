// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench binary regenerates one table or figure of the paper. Trial
// counts default to reduced values that preserve the qualitative shape and
// finish in minutes; scale them with ANSOR_BENCH_SCALE (e.g. 4.0 for longer,
// more paper-faithful runs).
#ifndef ANSOR_BENCH_BENCH_UTIL_H_
#define ANSOR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/ansor.h"
#include "src/support/util.h"

namespace ansor {
namespace bench {

inline double Scale() { return std::max(0.05, EnvDouble("ANSOR_BENCH_SCALE", 1.0)); }

inline int ScaledTrials(int base) {
  return std::max(8, static_cast<int>(base * Scale()));
}

inline SearchOptions FastSearchOptions() {
  SearchOptions options;
  options.population = 40;
  options.generations = 3;
  options.random_samples_per_round = 16;
  return options;
}

// Normalizes throughputs so the best framework gets 1.0 (the y-axis of
// Figs. 6/8/9).
inline std::vector<double> NormalizeToBest(const std::vector<double>& throughputs) {
  double best = 0.0;
  for (double t : throughputs) {
    best = std::max(best, t);
  }
  std::vector<double> out;
  for (double t : throughputs) {
    out.push_back(best > 0.0 ? t / best : 0.0);
  }
  return out;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void PrintRow(const std::string& label, const std::vector<double>& values,
                     int width = 12) {
  std::printf("%-22s", label.c_str());
  for (double v : values) {
    std::printf("%*s", width, FormatDouble(v, 3).c_str());
  }
  std::printf("\n");
}

inline void PrintColumns(const std::vector<std::string>& names, int width = 12) {
  std::printf("%-22s", "");
  for (const std::string& n : names) {
    std::printf("%*s", width, n.c_str());
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace ansor

#endif  // ANSOR_BENCH_BENCH_UTIL_H_
