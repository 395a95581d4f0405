// RecordStore: binary container round trips, a pinned byte format, signature
// dedup, best-record queries and replay, corruption recovery, interrupted
// saves, and concurrent fleet appends.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "src/exec/interpreter.h"
#include "src/search/search_policy.h"
#include "src/sketch/sketch.h"
#include "src/store/bytes.h"
#include "src/store/record_store.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

using testing::SameRecords;

// Records exercising every step kind (and both annotation paths), so a
// codec bug in any field shows up as a SameRecords mismatch.
std::vector<TuningRecord> AllKindsRecords() {
  std::vector<TuningRecord> records;
  TuningRecord a;
  a.task_id = 0x0123456789abcdefULL;
  a.seconds = 3.5e-4;
  a.throughput = 2.75e9;
  a.steps = {
      MakeSplitStep("C", 0, {8, 4}),
      MakeFollowSplitStep("D", 1, 0, 2),
      MakeFuseStep("C", 0, 2),
      MakeReorderStep("C", {2, 0, 1}),
      MakeComputeAtStep("C", "D", 1),
      MakeComputeInlineStep("B"),
  };
  records.push_back(a);
  TuningRecord b;
  b.task_id = 7;
  b.seconds = 1.0e-3;  // no throughput: flags byte must round trip as 0
  b.steps = {
      MakeComputeRootStep("C"),
      MakeCacheWriteStep("C"),
      MakeRfactorStep("C.rf", 1),
      MakeAnnotationStep("C", 0, IterAnnotation::kParallel),
      MakeAnnotationStep("C", 2, IterAnnotation::kVectorize),
      MakePragmaStep("C", 512),
  };
  records.push_back(b);
  TuningRecord c;
  c.task_id = 7;  // same task, different program: must not dedup
  c.seconds = 2.0e-3;
  c.throughput = 1.0e9;
  c.steps = {MakeSplitStep("C", 1, {16})};
  records.push_back(c);
  return records;
}

// Real sampled ConvLayer programs (multi-stage tiling, cache writes,
// annotations: ~23 steps each) from a fixed seed, replicated across
// `num_tasks` synthetic task ids the way a fleet's history repeats
// structurally similar tasks.
std::vector<TuningRecord> SampledConvRecords(int num_tasks) {
  ComputeDAG dag = MakeConvLayer(1, 32, 28, 28, 32, 3, 3, 1, 1);
  Rng rng(7);
  std::vector<State> corpus = SampleLowerablePopulation(&dag, 24, &rng);
  std::vector<TuningRecord> records;
  for (uint64_t t = 1; t <= static_cast<uint64_t>(num_tasks); ++t) {
    for (size_t p = 0; p < corpus.size(); ++p) {
      TuningRecord r;
      r.task_id = 0x9e3779b97f4a7c15ULL * t;
      r.seconds = 1e-3 * (1.0 + 0.01 * static_cast<double>(p + t % 7));
      r.throughput = dag.FlopCount() / r.seconds;
      r.steps = corpus[p].steps();
      records.push_back(std::move(r));
    }
  }
  return records;
}

std::string SerializedAllKinds() {
  RecordStore store;
  for (TuningRecord r : AllKindsRecords()) {
    store.Add(std::move(r));
  }
  return store.Serialize();
}

TEST(RecordStoreBinary, RoundTripAllStepKindsBitExact) {
  RecordStore loaded;
  RecordLoadStats stats = loaded.Deserialize(SerializedAllKinds());
  EXPECT_TRUE(stats);
  EXPECT_TRUE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  // Throughput is compared bit-exactly too, including record b's 0.
  EXPECT_TRUE(SameRecords(loaded.Snapshot(), AllKindsRecords()));
}

TEST(RecordStoreBinary, SerializedBytesAreStable) {
  // Pins the container format: the step table's dedup key, the interning
  // order and every field encoding feed these bytes.
  RecordStore store;
  for (TuningRecord r : AllKindsRecords()) {
    store.Add(std::move(r));
  }
  std::vector<TuningRecord> sampled = SampledConvRecords(4);
  ASSERT_EQ(sampled.size(), 96u);
  for (TuningRecord& r : sampled) {
    store.Add(std::move(r));
  }
  std::string bytes = store.Serialize();
  EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), 0xc88e509d7d404db8ULL)
      << bytes.size() << " bytes";
}

TEST(RecordStoreBinary, SampledProgramsRoundTripThroughSerialization) {
  // Property: any sampled program's step list survives serialize ->
  // deserialize -> replay with identical structure.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  Rng rng(31);
  std::vector<State> programs;
  RecordStore store;
  for (int trial = 0; trial < 20; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng);
    if (program.failed()) {
      continue;
    }
    // One task id per program, so no two records dedup.
    store.Add({programs.size() + 1, 1e-3, 0.0, program.steps()});
    programs.push_back(std::move(program));
  }
  ASSERT_GT(programs.size(), 10u);

  RecordStore loaded;
  ASSERT_TRUE(loaded.Deserialize(store.Serialize()));
  std::vector<TuningRecord> records = loaded.Snapshot();
  ASSERT_EQ(records.size(), programs.size());
  for (size_t i = 0; i < programs.size(); ++i) {
    State replayed = State::Replay(&dag, records[i].steps);
    ASSERT_FALSE(replayed.failed());
    EXPECT_EQ(StepSignature(replayed), StepSignature(programs[i]));
    ASSERT_EQ(replayed.stages().size(), programs[i].stages().size());
    for (size_t s = 0; s < programs[i].stages().size(); ++s) {
      EXPECT_EQ(replayed.stages()[s].iters.size(), programs[i].stages()[s].iters.size());
    }
  }
}

// History written by one tuning session and read back by the next: the
// serialized bytes, a saved file, and a store that already holds records.
TEST(RecordLogTest, SerializeDeserializeAll) {
  RecordStore store;
  store.Add({7, 1e-3, 0.0, {MakeSplitStep("C", 0, {4})}});
  store.Add({8, 2e-3, 0.0, {MakeCacheWriteStep("C")}});
  std::string bytes = store.Serialize();
  RecordStore copy;
  EXPECT_EQ(copy.Deserialize(bytes).loaded, 2u);
  std::vector<TuningRecord> records = copy.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].task_id, 7u);
  EXPECT_EQ(records[1].task_id, 8u);
  // Loading the same history again decodes every record and stores none.
  EXPECT_EQ(copy.Deserialize(bytes).loaded, 2u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.stats().deduplicated, 2);
}

TEST(RecordLogTest, FileRoundTrip) {
  RecordStore store;
  for (TuningRecord r : AllKindsRecords()) {
    store.Add(std::move(r));
  }
  std::string path = ::testing::TempDir() + "/ansor_records_roundtrip.bin";
  ASSERT_TRUE(store.SaveToFile(path));
  RecordStore loaded;
  RecordLoadStats stats = loaded.LoadFromFile(path);
  EXPECT_TRUE(stats);
  EXPECT_TRUE(stats.index_ok);
  EXPECT_TRUE(SameRecords(loaded.Snapshot(), store.Snapshot()));
  std::remove(path.c_str());
}

TEST(RecordLogTest, ReadsBinaryStores) {
  // A saved store loads into one that already holds records: the file's
  // records merge in, and a faster duplicate improves the held record.
  RecordStore saved;
  saved.Add({9, 4e-3, 2e9, {MakeSplitStep("C", 0, {2})}});
  saved.Add({3, 1e-3, 0.0, {MakeCacheWriteStep("C")}});
  std::string path = ::testing::TempDir() + "/ansor_records_binary.bin";
  ASSERT_TRUE(saved.SaveToFile(path));

  RecordStore live;
  live.Add({9, 5e-3, 0.0, {MakeSplitStep("C", 0, {2})}});
  RecordLoadStats stats = live.LoadFromFile(path);
  EXPECT_TRUE(stats);
  EXPECT_TRUE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(live.size(), 2u);
  EXPECT_EQ(live.stats().improved, 1);
  auto best = live.BestFor(9);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->seconds, 4e-3);
  EXPECT_DOUBLE_EQ(best->throughput, 2e9);
  ASSERT_TRUE(live.BestFor(3).has_value());
  std::remove(path.c_str());
}

TEST(RecordStoreFile, LoadFromFileReportsLoadedAndSkipped) {
  // Three records, one with a corrupted body: the load must surface exactly
  // what it kept and what it dropped instead of silently shrinking the store.
  std::string bytes = SerializedAllKinds();
  // Record c's body is flags, task reference, seconds: find its seconds and
  // point the task reference past the two-entry task table.
  std::vector<TuningRecord> records = AllKindsRecords();
  char seconds[sizeof(double)];
  std::memcpy(seconds, &records[2].seconds, sizeof(seconds));
  size_t at = bytes.find(std::string(seconds, sizeof(seconds)));
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes[at - 1], 1);  // task 7 is the second task-table entry
  bytes[at - 1] = 0x7f;
  std::string path = ::testing::TempDir() + "/ansor_records_mixed.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  RecordStore loaded;
  RecordLoadStats stats = loaded.LoadFromFile(path);
  EXPECT_TRUE(stats);
  EXPECT_FALSE(stats.index_ok);  // the checksum caught the flip
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(stats.skipped, 1u);
  records.pop_back();
  EXPECT_TRUE(SameRecords(loaded.Snapshot(), records));

  RecordLoadStats missing = loaded.LoadFromFile(path + ".does_not_exist");
  EXPECT_FALSE(missing);
  EXPECT_EQ(missing.loaded, 0u);
  std::remove(path.c_str());

  // A payload without the container magic is not a record container, even
  // when it reads like a record: it does not load.
  RecordStore text;
  RecordLoadStats not_binary = text.Deserialize("task=0000000000000007|seconds=1e-3|steps=\n");
  EXPECT_FALSE(not_binary);
  EXPECT_EQ(text.size(), 0u);
}

TEST(RecordStoreFile, InterruptedSaveAtEveryByteKeepsOldState) {
  std::vector<TuningRecord> records = AllKindsRecords();
  RecordStore old_store;
  old_store.Add(records[0]);
  RecordStore new_store;
  for (TuningRecord r : records) {
    new_store.Add(std::move(r));
  }
  std::string path = ::testing::TempDir() + "/ansor_interrupted_records.bin";
  ASSERT_TRUE(old_store.SaveToFile(path));

  auto loads = [&](const RecordStore& expected) {
    RecordStore loaded;
    return loaded.LoadFromFile(path).ok && SameRecords(loaded.Snapshot(), expected.Snapshot());
  };
  testing::ExpectEveryCutSaveKeepsOldFile(
      path, new_store.Serialize().size(), [&] { return new_store.SaveToFile(path); },
      [&] { return loads(old_store); });

  ASSERT_TRUE(new_store.SaveToFile(path));
  EXPECT_TRUE(loads(new_store));
  std::remove(path.c_str());
}

TEST(RecordStoreQuery, BestForPicksLowestLatency) {
  RecordStore store;
  store.Add({1, 5e-3, 0.0, {MakeSplitStep("C", 0, {4})}});
  store.Add({1, 2e-3, 0.0, {MakeSplitStep("C", 0, {8})}});
  store.Add({2, 1e-3, 0.0, {MakeSplitStep("C", 0, {4})}});
  auto best = store.BestFor(1);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->seconds, 2e-3);
  EXPECT_FALSE(store.BestFor(99).has_value());
}

TEST(RecordStoreDedup, ExactCountersAndInPlaceImprovement) {
  RecordStore store;
  TuningRecord r;
  r.task_id = 42;
  r.seconds = 5e-3;
  r.throughput = 1e9;
  r.steps = {MakeSplitStep("C", 0, {4})};

  EXPECT_TRUE(store.Add(r));
  EXPECT_FALSE(store.Add(r));  // exact duplicate: dropped
  TuningRecord slower = r;
  slower.seconds = 9e-3;
  EXPECT_FALSE(store.Add(slower));  // slower duplicate: dropped, no update
  TuningRecord faster = r;
  faster.seconds = 1e-3;
  faster.throughput = 5e9;
  EXPECT_FALSE(store.Add(faster));  // faster duplicate: updates in place

  EXPECT_EQ(store.size(), 1u);
  RecordStoreStats stats = store.stats();
  EXPECT_EQ(stats.appended, 1);
  EXPECT_EQ(stats.deduplicated, 3);
  EXPECT_EQ(stats.improved, 1);
  auto best = store.BestFor(42);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->seconds, 1e-3);
  EXPECT_DOUBLE_EQ(best->throughput, 5e9);
}

TEST(RecordStoreDedup, ClientAttributionIsExact) {
  RecordStore store;
  TuningRecord r;
  r.task_id = 1;
  r.seconds = 1e-3;
  r.steps = {MakeSplitStep("C", 0, {2})};
  store.Add(r, /*client_id=*/10);
  store.Add(r, /*client_id=*/11);  // client 11 hits the fleet's existing record
  TuningRecord other = r;
  other.steps = {MakeSplitStep("C", 0, {8})};
  store.Add(other, /*client_id=*/11);

  RecordClientStats c10 = store.ClientStatsFor(10);
  EXPECT_EQ(c10.appended, 1);
  EXPECT_EQ(c10.deduplicated, 0);
  RecordClientStats c11 = store.ClientStatsFor(11);
  EXPECT_EQ(c11.appended, 1);
  EXPECT_EQ(c11.deduplicated, 1);
  EXPECT_EQ(store.ClientStatsFor(99).appended, 0);
}

TEST(RecordStoreBinary, CorruptedIndexFallsBackToSequentialScan) {
  std::string bytes = SerializedAllKinds();
  bytes.back() ^= 0x5a;  // smash the index magic: footer unusable

  RecordStore loaded;
  RecordLoadStats stats = loaded.Deserialize(bytes);
  EXPECT_TRUE(stats.ok);
  EXPECT_FALSE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_TRUE(SameRecords(loaded.Snapshot(), AllKindsRecords()));
}

TEST(RecordStoreBinary, ChecksumMismatchDetected) {
  std::string bytes = SerializedAllKinds();
  // Flip a payload byte (inside the records, past the tables): the footer
  // checksum must catch it and the loader must degrade, not trust the index.
  bytes[bytes.size() / 2] ^= 0x01;
  RecordStore loaded;
  RecordLoadStats stats = loaded.Deserialize(bytes);
  EXPECT_FALSE(stats.index_ok);
  // The scan recovers what it can; whatever loads must still parse cleanly.
  EXPECT_LE(stats.loaded + stats.skipped, 3u + 1u);
}

TEST(RecordStoreBinary, TruncationNeverCrashesAndCountsLoss) {
  RecordStore store;
  auto base = AllKindsRecords();
  for (int i = 0; i < 20; ++i) {
    TuningRecord r = base[static_cast<size_t>(i) % base.size()];
    r.steps.push_back(MakePragmaStep("C", i));  // 20 distinct programs
    store.Add(std::move(r));
  }
  ASSERT_EQ(store.size(), 20u);
  std::string bytes = store.Serialize();
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    RecordStore loaded;
    RecordLoadStats stats = loaded.Deserialize(bytes.substr(0, cut));
    // Prefixes shorter than the magic are not containers; longer ones must
    // account for every record, as loaded or as skipped.
    if (cut < 8) {
      EXPECT_FALSE(stats.ok) << "cut=" << cut;
    } else if (stats.ok) {
      EXPECT_EQ(stats.loaded + stats.skipped, 20u) << "cut=" << cut;
    }
    EXPECT_EQ(loaded.size(), stats.loaded);
  }
  // Removing only the footer loses nothing.
  RecordStore headless;
  RecordLoadStats stats = headless.Deserialize(bytes.substr(0, bytes.size() - 16));
  EXPECT_TRUE(stats.ok);
  EXPECT_FALSE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 20u);
}

TEST(RecordStoreBinary, CraftedHugeCountsFailCleanly) {
  // Each container claims 2^28 elements in a file of a few bytes. A count
  // larger than the bytes left must fail the read before it sizes an
  // allocation, not abort the process.
  auto container = [](int table) {
    ByteWriter w;
    w.PutRaw("ANSRREC1", 8);
    w.PutVarint(table == 0 ? 1u << 28 : 0);  // string table
    w.PutVarint(table == 1 ? 1u << 28 : 0);  // step table
    w.PutVarint(table == 2 ? 1u << 28 : 1);  // task table
    if (table != 2) {
      w.PutU64(7);
    }
    w.PutVarint(1);  // one record, whose step count is the fourth case
    ByteWriter body;
    body.PutU8(0);
    body.PutVarint(0);
    body.PutF64(1e-3);
    body.PutVarint(table == 3 ? 1u << 28 : 0);
    w.PutVarint(body.size());
    w.PutRaw(body.buffer().data(), body.size());
    return w.Take();
  };
  for (int table = 0; table < 3; ++table) {
    std::string bytes = container(table);
    RecordStore store;
    RecordLoadStats stats = store.Deserialize(bytes);
    EXPECT_FALSE(stats) << "table " << table;
    EXPECT_EQ(store.size(), 0u);
  }
  RecordStore store;
  RecordLoadStats stats = store.Deserialize(container(3));
  EXPECT_TRUE(stats);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST(RecordStoreConcurrency, ParallelAddsAccountExactly) {
  RecordStore store;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TuningRecord r;
        r.task_id = 5;
        r.seconds = 1e-3 + 1e-6 * i;
        // Every thread adds the same 50 programs: exactly 50 distinct
        // signatures survive however the threads interleave.
        r.steps = {MakeSplitStep("C", 0, {i + 1})};
        store.Add(r, /*client_id=*/static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(kPerThread));
  RecordStoreStats stats = store.stats();
  EXPECT_EQ(stats.appended, kPerThread);
  EXPECT_EQ(stats.appended + stats.deduplicated, kThreads * kPerThread);
  int64_t client_total = 0;
  for (int t = 1; t <= kThreads; ++t) {
    RecordClientStats cs = store.ClientStatsFor(static_cast<uint64_t>(t));
    client_total += cs.appended + cs.deduplicated;
  }
  EXPECT_EQ(client_total, kThreads * kPerThread);
}

TEST(RecordStoreReplay, ReplayBestReconstructsState) {
  // Tune briefly with the store as the record sink, then replay the best
  // record: it must rebuild the recorded program, measure identically and
  // compute the naive result.
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  SearchTask task = MakeSearchTask("mm", dag);
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  RecordStore store;
  SearchOptions options;
  options.population = 12;
  options.generations = 1;
  options.record_store = &store;
  TuneResult result = TuneTask(task, &measurer, &model, 16, 8, options);
  ASSERT_TRUE(result.best_state.has_value());
  EXPECT_GT(store.size(), 0u);

  State replayed = store.ReplayBest(task.dag.get());
  ASSERT_FALSE(replayed.failed());
  auto best = store.BestFor(task.dag->CanonicalHash());
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(StepSignature(replayed), StepSignature(best->steps));
  MeasureResult again = measurer.Measure(replayed);
  ASSERT_TRUE(again.valid);
  EXPECT_DOUBLE_EQ(again.seconds, result.best_seconds);
  EXPECT_EQ(VerifyAgainstNaive(replayed), "");
  EXPECT_TRUE(store.ReplayBest(nullptr).failed());
}

TEST(RecordLogTest, ReplayBestReconstructsProgram) {
  // Tune briefly, save the history, and replay the best program from a
  // fresh store loaded from the file: it must measure identically.
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  SearchTask task = MakeSearchTask("mm", dag);
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  RecordStore store;
  SearchOptions options;
  options.population = 12;
  options.generations = 1;
  options.record_store = &store;
  TuneResult result = TuneTask(task, &measurer, &model, 16, 8, options);
  ASSERT_TRUE(result.best_state.has_value());
  std::string path = ::testing::TempDir() + "/ansor_records_replay.bin";
  ASSERT_TRUE(store.SaveToFile(path));

  RecordStore reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path));
  EXPECT_EQ(reloaded.size(), store.size());
  State replayed = reloaded.ReplayBest(task.dag.get());
  ASSERT_FALSE(replayed.failed());
  MeasureResult again = measurer.Measure(replayed);
  ASSERT_TRUE(again.valid);
  EXPECT_DOUBLE_EQ(again.seconds, result.best_seconds);
  EXPECT_EQ(VerifyAgainstNaive(replayed), "");
  std::remove(path.c_str());
}

TEST(RecordStoreReplay, ReplayBestOfCraftedOverflowingSplitFails) {
  // A persisted record whose split lengths multiply past int64 must replay to
  // a failed state, not kill the process.
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  TuningRecord crafted;
  crafted.task_id = dag.CanonicalHash();
  crafted.seconds = 1e-6;
  crafted.steps = {MakeSplitStep("C", 0, {int64_t{1} << 32, int64_t{1} << 32})};
  RecordStore written;
  ASSERT_TRUE(written.Add(crafted));
  RecordStore store;
  ASSERT_TRUE(store.Deserialize(written.Serialize()));
  ASSERT_EQ(store.size(), 1u);
  State replayed = store.ReplayBest(&dag);
  EXPECT_TRUE(replayed.failed());
  EXPECT_NE(replayed.error().find("overflow"), std::string::npos) << replayed.error();
}

TEST(RecordStoreReplay, ReplayBestFailsForUnknownTask) {
  RecordStore store;
  ComputeDAG dag = testing::Matmul(8, 8, 8);
  EXPECT_TRUE(store.ReplayBest(&dag).failed());
}

}  // namespace
}  // namespace ansor
