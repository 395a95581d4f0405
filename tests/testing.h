// Shared helpers for the test suite: canonical workloads used across modules
// (the two example inputs of paper Figure 5, scaled down so interpretation is
// fast) and small utilities.
#ifndef ANSOR_TESTS_TESTING_H_
#define ANSOR_TESTS_TESTING_H_

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/dag/compute_dag.h"
#include "src/expr/operation.h"
#include "src/search/search_policy.h"

namespace ansor {
namespace testing {

// Small evolutionary-search budget shared by the search / integration suites:
// large enough for the qualitative paper claims (tuned beats random, full
// space beats limited space) to hold deterministically, small enough that the
// whole suite stays well under CI's two-minute ctest budget even in the
// sanitizer presets.
inline SearchOptions SmallSearchOptions(int population = 16, int generations = 2) {
  SearchOptions options;
  options.population = population;
  options.generations = generations;
  options.random_samples_per_round = 8;
  return options;
}

// Example input 1 of Figure 5: C = A x B followed by ReLU, square matrices.
inline ComputeDAG MatmulRelu(int64_t n = 16, int64_t m = 16, int64_t k = 16) {
  Tensor a = Placeholder("A", {n, k});
  Tensor b = Placeholder("B", {k, m});
  Tensor c = Compute("C", {n, m}, [&](const std::vector<Expr>& i) {
    Expr r = ReduceAxis(k, "k");
    return Sum(a(i[0], r) * b(r, i[1]), {r});
  });
  Tensor d = Compute("D", {n, m}, [&](const std::vector<Expr>& i) {
    return Max(c(i[0], i[1]), FloatImm(0.0));
  });
  return ComputeDAG({a, b, c, d});
}

// Example input 2 of Figure 5: relu -> zero-pad -> tall-skinny matmul.
inline ComputeDAG ReluPadMatmul(int64_t rows = 8, int64_t cols = 4, int64_t inner = 16,
                                int64_t valid = 12) {
  Tensor a = Placeholder("A", {rows, valid});
  Tensor d = Placeholder("Dm", {inner, cols});
  Tensor b = Compute("B", {rows, valid}, [&](const std::vector<Expr>& i) {
    return Max(a(i[0], i[1]), FloatImm(0.0));
  });
  Tensor c = Compute("C", {rows, inner}, [&](const std::vector<Expr>& i) {
    return Select(i[1] < IntImm(valid), b(i[0], Min(i[1], IntImm(valid - 1))), FloatImm(0.0));
  });
  Tensor e = Compute("E", {rows, cols}, [&](const std::vector<Expr>& i) {
    Expr r = ReduceAxis(inner, "k");
    return Sum(c(i[0], r) * d(r, i[1]), {r});
  });
  return ComputeDAG({a, d, b, c, e});
}

// Plain matmul without consumers.
inline ComputeDAG Matmul(int64_t n = 16, int64_t m = 16, int64_t k = 16) {
  Tensor a = Placeholder("A", {n, k});
  Tensor b = Placeholder("B", {k, m});
  Tensor c = Compute("C", {n, m}, [&](const std::vector<Expr>& i) {
    Expr r = ReduceAxis(k, "k");
    return Sum(a(i[0], r) * b(r, i[1]), {r});
  });
  return ComputeDAG({a, b, c});
}

// Matrix 2-norm (the NRM operator): reduction-heavy, little space parallelism.
inline ComputeDAG MatrixNorm(int64_t n = 8, int64_t m = 64) {
  Tensor a = Placeholder("A", {n, m});
  Tensor s = Compute("S", {n}, [&](const std::vector<Expr>& i) {
    Expr r = ReduceAxis(m, "k");
    return Sum(a(i[0], r) * a(i[0], r), {r});
  });
  Tensor nrm = Compute("N", {n}, [&](const std::vector<Expr>& i) {
    return CallIntrinsic(Intrinsic::kSqrt, {s(i[0])});
  });
  return ComputeDAG({a, s, nrm});
}

// Scope guard for the interrupted-save tests: ignores SIGXFSZ, so a write
// past RLIMIT_FSIZE fails with EFBIG instead of killing the process, and
// restores both the limit and the signal disposition on exit.
class FileSizeLimitGuard {
 public:
  FileSizeLimitGuard() : old_handler_(::signal(SIGXFSZ, SIG_IGN)) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
  }
  ~FileSizeLimitGuard() {
    Lift();
    ::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimitGuard(const FileSizeLimitGuard&) = delete;
  FileSizeLimitGuard& operator=(const FileSizeLimitGuard&) = delete;

  // The kernel refuses every write past `bytes` in any file: a real cut,
  // with no failpoint in the code under test.
  void Cap(size_t bytes) {
    rlimit capped = saved_;
    capped.rlim_cur = std::min<rlim_t>(bytes, saved_.rlim_max);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  }
  void Lift() { ::setrlimit(RLIMIT_FSIZE, &saved_); }

 private:
  sighandler_t old_handler_;
  rlimit saved_{};
};

// Cuts a save at every byte offset of the `new_size`-byte file it writes to
// `path`: for each limit in [0, new_size), save_new() must return false,
// loads_old() must find exactly the state saved before, and no
// "<path>.tmp" may be left behind. The limit is lifted before each check.
template <typename SaveNew, typename LoadsOld>
void ExpectEveryCutSaveKeepsOldFile(const std::string& path, size_t new_size,
                                    SaveNew save_new, LoadsOld loads_old) {
  FileSizeLimitGuard guard;
  const std::string tmp = path + ".tmp";
  for (size_t limit = 0; limit < new_size; ++limit) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    guard.Cap(limit);
    bool saved = save_new();
    guard.Lift();
    EXPECT_FALSE(saved);
    EXPECT_TRUE(loads_old());
    EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << tmp << " left behind";
    if (::testing::Test::HasFailure()) {
      return;  // the first cut that breaks the guarantee is enough
    }
  }
}

// Field-wise record-list equality: task id, bit-equal seconds and
// throughput, and StepSignature (which spells out every step field).
inline ::testing::AssertionResult SameRecords(const std::vector<TuningRecord>& actual,
                                              const std::vector<TuningRecord>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << actual.size() << " records, expected " << expected.size();
  }
  auto bits = [](double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (size_t i = 0; i < actual.size(); ++i) {
    const TuningRecord& a = actual[i];
    const TuningRecord& e = expected[i];
    std::string sig = StepSignature(a.steps);
    if (a.task_id != e.task_id || bits(a.seconds) != bits(e.seconds) ||
        bits(a.throughput) != bits(e.throughput) || sig != StepSignature(e.steps)) {
      return ::testing::AssertionFailure()
             << "record " << i << " differs: task " << a.task_id << " vs " << e.task_id
             << ", seconds " << a.seconds << " vs " << e.seconds << ", throughput "
             << a.throughput << " vs " << e.throughput << ", steps " << sig << " vs "
             << StepSignature(e.steps);
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing
}  // namespace ansor

#endif  // ANSOR_TESTS_TESTING_H_
