// The fleet-scale tuning-record store: every read or write of persisted
// tuning history goes through this interface.
//
// A TuningRecord is one (task, measured seconds, step list) triple — plus
// the measured throughput when known, which the transfer-learned cost model
// trains from (TrainFromStore). Two codecs serialize the same store:
//
//  * Binary (default): a compact container built for logs with millions of
//    records. Stage names, distinct steps, and task ids are interned into
//    file-level tables, so each record's step list is a handful of 1-2 byte
//    varint references instead of repeated text; records are
//    length-prefixed for resynchronization, and a footer index (record
//    offsets + FNV-1a payload checksum) makes loads verifiable and
//    streamable. A corrupted index degrades to a sequential scan; corrupted
//    records are skipped and counted, never crash.
//  * Text: the legacy one-record-per-line format
//    (task=<hex>|seconds=<float>|steps=...), kept as a compatibility codec.
//    Loading auto-detects the codec, so `RecordStore::LoadFromFile` on an
//    old text log is the text→binary migration path.
//
// The store is thread-safe for Add/BestFor/stats and deduplicates by exact
// step signature per task (StepSignature), with exact counters: a fleet of
// tuners appending concurrently never stores the same program twice, and a
// duplicate that measured strictly faster updates the stored record in
// place. Per-client attribution mirrors ProgramCache::ClientStats so a
// multi-tenant service can report each job's contribution exactly.
#ifndef ANSOR_SRC_STORE_RECORD_STORE_H_
#define ANSOR_SRC_STORE_RECORD_STORE_H_

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/state.h"
#include "src/telemetry/metrics.h"

namespace ansor {

struct TuningRecord {
  uint64_t task_id = 0;
  double seconds = 0.0;
  // FLOPS achieved, when the record came from a live measurement; 0 when
  // unknown (e.g. loaded from a legacy text log, which does not carry it).
  double throughput = 0.0;
  std::vector<Step> steps;
};

// --- Text codec (the legacy one-record-per-line format) ----------------------

// Compact, lossless textual encoding of one step.
std::string SerializeStep(const Step& step);
// Parses a serialized step; returns nullopt on malformed input.
std::optional<Step> ParseStep(const std::string& text);

std::string SerializeRecord(const TuningRecord& record);
std::optional<TuningRecord> ParseRecord(const std::string& line);

// --- RecordStore -------------------------------------------------------------

enum class RecordCodec {
  kBinary,  // interned-table container with footer index (default)
  kText,    // legacy one-record-per-line format (drops throughput)
};

// Result of loading serialized records. `ok` means the container itself was
// recognized and readable (a missing file or unrecognizable payload is not);
// `skipped` counts individually malformed records/lines that were dropped.
struct RecordLoadStats {
  bool ok = false;
  size_t loaded = 0;
  size_t skipped = 0;
  // Binary only: the footer index was present and its checksum matched. A
  // false value with ok == true means the loader fell back to a sequential
  // scan (corrupted or truncated index).
  bool index_ok = false;

  explicit operator bool() const { return ok; }
};

// Monotonic store-wide counters. appended + deduplicated == total Add calls.
struct RecordStoreStats {
  int64_t appended = 0;      // records accepted as new signatures
  int64_t deduplicated = 0;  // records dropped as duplicate signatures
  // Duplicates that measured strictly faster than the stored record and
  // updated its seconds/throughput in place (a subset of deduplicated).
  int64_t improved = 0;
};

// Exact per-client counters (client ids are the same ids used for
// ProgramCache attribution; 0 = anonymous and untracked).
struct RecordClientStats {
  int64_t appended = 0;
  int64_t deduplicated = 0;
};

class RecordStore {
 public:
  struct Options {
    // Signature-level dedup. Off turns the store into a plain append log
    // (a single tuner's own log re-measures nothing, and lossless
    // round-trips must keep duplicates).
    bool dedup = true;
  };

  RecordStore() : RecordStore(Options{true}) {}
  explicit RecordStore(Options options);

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  // Appends a record (thread-safe). Returns true when the record was stored
  // as a new signature; false when dedup dropped it (a strictly faster
  // duplicate still updates the stored record's measurement in place).
  bool Add(TuningRecord record, uint64_t client_id = 0);

  size_t size() const;
  // Copy of the stored records, in insertion order (thread-safe).
  std::vector<TuningRecord> Snapshot() const;
  // Borrowed view for single-threaded use: stable only while no concurrent
  // Add runs.
  const std::vector<TuningRecord>& records() const { return records_; }

  // Best (lowest-seconds) record for a task; nullopt if none. O(1).
  std::optional<TuningRecord> BestFor(uint64_t task_id) const;
  // Replays the best record for the DAG's task id; returns a failed state if
  // no record exists or replay breaks (e.g. the DAG changed).
  State ReplayBest(const ComputeDAG* dag) const;
  // Distinct task ids, in first-appearance order.
  std::vector<uint64_t> TaskIds() const;

  RecordStoreStats stats() const;
  RecordClientStats ClientStatsFor(uint64_t client_id) const;

  // Mirrors the current counters into `registry` as gauges named
  // <prefix>.appended / .deduplicated / .improved / .size.
  void ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const;

  // --- Persistence -----------------------------------------------------------

  std::string Serialize(RecordCodec codec = RecordCodec::kBinary) const;
  // Parses `bytes` (codec auto-detected by the binary magic) and Adds every
  // well-formed record under this store's dedup policy.
  RecordLoadStats Deserialize(const std::string& bytes);
  // Replaces `path` via WriteFileAtomic; on false the old file is intact.
  bool SaveToFile(const std::string& path,
                  RecordCodec codec = RecordCodec::kBinary) const;
  RecordLoadStats LoadFromFile(const std::string& path);

  // Streaming decode (codec auto-detected): invokes `fn` per well-formed
  // record without materializing a store. The store-independent core that
  // Deserialize is built on.
  static RecordLoadStats ForEachRecord(const std::string& bytes,
                                       const std::function<void(TuningRecord)>& fn);

  // One-shot lossless migration: reads a legacy text log and writes the
  // binary container (no dedup — a pure format conversion). Returns the text
  // load stats; ok is false when the output could not be written.
  static RecordLoadStats MigrateTextToBinary(const std::string& text_path,
                                             const std::string& binary_path);

 private:
  bool AddLocked(TuningRecord record, uint64_t client_id);

  Options options_;
  mutable std::mutex mu_;
  std::vector<TuningRecord> records_;
  // Dedup + in-place-improvement index: "<task hex>|<StepSignature>" -> slot.
  std::unordered_map<std::string, size_t> by_signature_;
  // task id -> slot of its best (lowest-seconds) record.
  std::unordered_map<uint64_t, size_t> best_by_task_;
  std::vector<uint64_t> task_order_;
  RecordStoreStats stats_;
  std::unordered_map<uint64_t, RecordClientStats> client_stats_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_STORE_RECORD_STORE_H_
