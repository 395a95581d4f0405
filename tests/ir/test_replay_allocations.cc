// Allocation guard for State::Replay, the step every mutation, crossover and
// random sample of the evolutionary search pays (paper §5.1).
//
// This file is its own test executable because it replaces the global
// operator new with a counting one; no other test binary sees the counter.
// Counting is switched on per thread around the measured call only.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/ir/state.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/workloads/operators.h"

namespace {

thread_local bool g_counting = false;
thread_local size_t g_allocations = 0;

void* CountedAlloc(size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) {
    ++g_allocations;
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace ansor {
namespace {

// Replays fixed-seed sampled GPU programs of the Fig. 6 C2D r28c128k3 task
// (the bench's c2d-gpu program mix) and bounds the average number of heap
// allocations one State::Replay makes. A replay builds plain schedule data;
// loop variables and axis reconstructions are expressions built only when a
// program is lowered, and a cache_write or compute_inline of the DAG's own op
// takes the DAG's precomputed rewrite, so no expression tree shows up here.
TEST(ReplayAllocations, SampledGpuConvReplayStaysUnderBound) {
  ComputeDAG dag = MakeConv2d(1, 128, 28, 28, 128, 3, 3, 1, 1);
  std::vector<State> sketches = GenerateSketches(&dag);
  ASSERT_FALSE(sketches.empty());
  SamplerOptions options;
  options.gpu = true;
  Rng rng(27);
  std::vector<std::vector<Step>> programs;
  for (int attempt = 0; attempt < 400 && programs.size() < 32; ++attempt) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng,
                                          options);
    if (!program.failed()) {
      programs.push_back(program.steps());
    }
  }
  ASSERT_EQ(programs.size(), 32u);

  size_t total = 0;
  for (const std::vector<Step>& steps : programs) {
    g_allocations = 0;
    g_counting = true;
    State replayed = State::Replay(&dag, steps);
    g_counting = false;
    total += g_allocations;
    ASSERT_FALSE(replayed.failed()) << replayed.error();
    ASSERT_EQ(replayed.steps().size(), steps.size());
  }
  const double per_replay = static_cast<double>(total) / static_cast<double>(programs.size());
  RecordProperty("allocations_per_replay", std::to_string(per_replay));
  EXPECT_LE(per_replay, 90.0) << "State::Replay allocates " << per_replay
                               << " times per sampled program";
}

}  // namespace
}  // namespace ansor
