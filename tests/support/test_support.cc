#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>

#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/support/util.h"

namespace ansor {
namespace {

TEST(Divisors, SmallNumbers) {
  EXPECT_EQ(Divisors(1), (std::vector<int64_t>{1}));
  EXPECT_EQ(Divisors(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(Divisors(16), (std::vector<int64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(Divisors(17), (std::vector<int64_t>{1, 17}));
}

TEST(Divisors, PerfectSquare) {
  EXPECT_EQ(Divisors(36), (std::vector<int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(CeilDiv, Basic) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 5), 1);
}

TEST(GeometricMean, Basic) {
  EXPECT_DOUBLE_EQ(GeometricMean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
  EXPECT_NEAR(GeometricMean({2.0, 8.0, 4.0}), 4.0, 1e-12);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Int(0, 1000), b.Int(0, 1000));
  }
}

TEST(Rng, IntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, WeightedIndexRespectsZeroWeights) {
  Rng rng(2);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1u);
  }
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(3);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(rng.WeightedIndex(weights));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(4);
  std::vector<size_t> perm = rng.Permutation(50);
  std::set<size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, RepeatedParallelForIsExact) {
  // Stresses the item dispatcher (caller participation + straggler tasks):
  // every index must run exactly once on every invocation.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    std::atomic<long long> sum{0};
    size_t n = static_cast<size_t>(1 + (round * 7) % 97);
    pool.ParallelFor(n, [&](size_t i) {
      count.fetch_add(1);
      sum.fetch_add(static_cast<long long>(i));
    });
    EXPECT_EQ(count.load(), static_cast<int>(n));
    EXPECT_EQ(sum.load(), static_cast<long long>(n * (n - 1) / 2));
  }
}

TEST(ThreadPool, OrGlobalResolvesOverride) {
  ThreadPool pool(2);
  EXPECT_EQ(&ThreadPool::OrGlobal(&pool), &pool);
  EXPECT_EQ(&ThreadPool::OrGlobal(nullptr), &ThreadPool::Global());
}

TEST(ThreadPool, EmptyAndSingle) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL(); });
  int count = 0;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(Join, Strings) {
  EXPECT_EQ(Join(std::vector<int>{1, 2, 3}, ","), "1,2,3");
  EXPECT_EQ(Join(std::vector<int>{}, ","), "");
}

TEST(Env, Defaults) {
  EXPECT_DOUBLE_EQ(EnvDouble("ANSOR_NONEXISTENT_VAR_X", 1.5), 1.5);
}

TEST(FileIo, AtomicWriteReadsBackAndFailuresLeaveNothing) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/ansor_file_io_test.bin";
  std::string bytes("binary\0payload", 14);
  ASSERT_TRUE(WriteFileAtomic(path, bytes));
  std::string back = "stale";
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, bytes);
  ASSERT_TRUE(WriteFileAtomic(path, ""));  // replacing with nothing is a write too
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, "");
  std::remove(path.c_str());

  EXPECT_FALSE(ReadFile(path, &back));  // missing
  EXPECT_FALSE(ReadFile(dir, &back));   // a directory is not a file
  const std::string orphan = dir + "/ansor_no_such_dir/f.bin";
  EXPECT_FALSE(WriteFileAtomic(orphan, bytes));
  EXPECT_FALSE(ReadFile(orphan + ".tmp", &back));
}

}  // namespace
}  // namespace ansor
