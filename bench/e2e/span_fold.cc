#include "bench/e2e/span_fold.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace ansor {
namespace e2e {

namespace {

using Interval = std::pair<int64_t, int64_t>;  // [start, end) in nanoseconds
using Children = std::unordered_map<uint64_t, std::vector<Interval>>;

// Length of the union of `intervals` after clipping each to [lo, hi].
int64_t UnionNanos(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t reach = lo;  // end of the union so far
  for (const auto& [start, end] : intervals) {
    if (end > reach && end > start) {  // clipping empties intervals outside [lo, hi]
      total += end - std::max(start, reach);
      reach = end;
    }
  }
  return total;
}

Children ChildIntervals(const std::vector<TraceEvent>& events) {
  Children children;
  for (const TraceEvent& e : events) {
    if (e.parent_id != 0) {
      children[e.parent_id].emplace_back(e.start_nanos, e.end_nanos);
    }
  }
  return children;
}

int64_t CoveredNanos(const Children& children, const TraceEvent& e) {
  auto it = children.find(e.span_id);
  return it == children.end() ? 0 : UnionNanos(it->second, e.start_nanos, e.end_nanos);
}

}  // namespace

std::map<std::string, double> SelfSeconds(const std::vector<TraceEvent>& events) {
  Children children = ChildIntervals(events);
  std::map<std::string, double> self;
  for (const TraceEvent& e : events) {
    self[e.name] += SecondsBetween(0, e.end_nanos - e.start_nanos - CoveredNanos(children, e));
  }
  return self;
}

double CoveredSeconds(const std::vector<TraceEvent>& events, const std::string& name) {
  Children children = ChildIntervals(events);
  int64_t covered = 0;
  for (const TraceEvent& e : events) {
    if (e.name == name) {
      covered += CoveredNanos(children, e);
    }
  }
  return SecondsBetween(0, covered);
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-12) {
      std::fprintf(stderr, "selftest: %s = %.12g, want %.12g\n", what, got, want);
      ++failures;
    }
  };
  auto span = [](const char* name, uint64_t id, uint64_t parent, int64_t start, int64_t end) {
    TraceEvent e;
    e.name = name;
    e.span_id = id;
    e.parent_id = parent;
    e.start_nanos = start;
    e.end_nanos = end;
    return e;
  };
  // A parent over [0, 100] ns with two overlapping pool children, one child
  // that outlives it, one that starts before it, and a grandchild.
  // Children's union inside the parent: [0,5] + [10,60] + [90,100] = 65 ns,
  // so the parent's self time is 35 ns. Subtracting summed child durations
  // would give 100 - (30 + 30 + 40 + 25) = -25 ns.
  std::vector<TraceEvent> trace = {
      span("parent", 1, 0, 0, 100),     span("pool", 2, 1, 10, 40),
      span("pool", 3, 1, 30, 60),       span("late", 4, 1, 90, 130),
      span("early", 5, 1, -20, 5),      span("grandchild", 6, 2, 15, 20),
  };
  std::map<std::string, double> self = SelfSeconds(trace);
  expect("parent.self", self["parent"], 35e-9);
  expect("pool.self", self["pool"], 55e-9);  // 30 - 5 + 30
  expect("late.self", self["late"], 40e-9);
  expect("early.self", self["early"], 25e-9);
  expect("grandchild.self", self["grandchild"], 5e-9);
  expect("covered(parent)", CoveredSeconds(trace, "parent"), 65e-9);
  expect("covered(missing)", CoveredSeconds(trace, "missing"), 0.0);
  expect("union(disjoint)", static_cast<double>(UnionNanos({{0, 2}, {5, 7}}, 0, 10)), 4);
  expect("union(nested)", static_cast<double>(UnionNanos({{0, 10}, {2, 3}}, 0, 10)), 10);
  expect("union(outside)", static_cast<double>(UnionNanos({{20, 30}}, 0, 10)), 0);
  for (const auto& [name, seconds] : self) {
    if (seconds < 0.0) {
      std::fprintf(stderr, "selftest: %s has negative self time\n", name.c_str());
      ++failures;
    }
  }
  return failures;
}

}  // namespace e2e
}  // namespace ansor
