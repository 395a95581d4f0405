// Footprint guard for ProgramArtifact: the heap one cold artifact keeps once
// its constructor returns. A ProgramCache holds up to 4096 of them per task,
// so this is what a search's memory grows by per distinct program.
//
// This file is its own test executable because it replaces the global
// operator new and delete with ones that count live bytes; no other test
// binary sees the counter. Counting is switched on per thread around the
// measured calls only.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdlib>
#include <memory>
#include <new>

#include "src/program/program_artifact.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/workloads/operators.h"

namespace {

thread_local bool g_counting = false;
thread_local int64_t g_live_bytes = 0;

void* CountedAlloc(size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr && g_counting) {
    g_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p != nullptr && g_counting) {
    g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

void* ThrowingAlloc(size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return ThrowingAlloc(size); }
void* operator new[](size_t size) { return ThrowingAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void* operator new[](size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { CountedFree(p); }

namespace ansor {
namespace {

// Builds cold artifacts of fixed-seed sampled GPU programs of the Fig. 6 C2D
// r28c128k3 task (the bench's c2d-gpu program mix) and bounds the average
// heap each one retains. An artifact keeps its signature, steps, feature
// matrix, verifier report and resource summary, about 7.6 KB here; its
// lowered loop tree, another 33 KB, is freed before the constructor returns.
TEST(ArtifactFootprint, ColdGpuConvArtifactStaysUnderBound) {
  ComputeDAG dag = MakeConv2d(1, 128, 28, 28, 128, 3, 3, 1, 1);
  std::vector<State> sketches = GenerateSketches(&dag);
  ASSERT_FALSE(sketches.empty());
  SamplerOptions options;
  options.gpu = true;
  Rng rng(28);
  std::vector<State> programs;
  for (int attempt = 0; attempt < 400 && programs.size() < 32; ++attempt) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng,
                                          options);
    if (!program.failed()) {
      programs.push_back(std::move(program));
    }
  }
  ASSERT_EQ(programs.size(), 32u);
  // One uncounted build first, so lazily grown process-wide scratch is not
  // charged to the first counted artifact.
  ProgramArtifact warmup(programs[0]);
  ASSERT_TRUE(warmup.ok());

  int64_t total = 0;
  for (const State& program : programs) {
    g_live_bytes = 0;
    g_counting = true;
    auto artifact = std::make_shared<const ProgramArtifact>(program);
    const int64_t retained = g_live_bytes;
    const bool ok = artifact->ok();
    artifact.reset();
    const int64_t leaked = g_live_bytes;
    g_counting = false;
    ASSERT_TRUE(ok);
    // Everything counted as retained belongs to the artifact: releasing it
    // returns every byte.
    EXPECT_EQ(leaked, 0);
    total += retained;
  }
  const double per_artifact = static_cast<double>(total) / static_cast<double>(programs.size());
  RecordProperty("bytes_per_artifact", std::to_string(per_artifact));
  EXPECT_LE(per_artifact, 12.0 * 1024) << "a cold artifact retains " << per_artifact
                                       << " bytes per sampled program";
}

}  // namespace
}  // namespace ansor
