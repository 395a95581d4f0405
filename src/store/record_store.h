// The fleet-scale tuning-record store: every read or write of persisted
// tuning history goes through this interface.
//
// A TuningRecord is one (task, measured seconds, step list) triple — plus
// the measured throughput when known. Records persist in one binary container
// (`ANSRREC1`), built for logs with millions of records: stage names,
// distinct steps, and task ids are interned into file-level tables, so each
// record's step list is a handful of 1-2 byte varint references; records
// are length-prefixed for resynchronization, and a footer index (record
// offsets + FNV-1a payload checksum) makes loads verifiable. A corrupted
// index degrades to a sequential scan; corrupted records are skipped and
// counted, never crash. A payload without the container magic does not load.
//
// The store is thread-safe for Add/BestFor/stats and deduplicates by exact
// step signature per task (StepSignature), with exact counters: a fleet of
// tuners appending concurrently never stores the same program twice, and a
// duplicate that measured strictly faster updates the stored record in
// place. Per-client attribution mirrors ProgramCache::ClientStats so a
// multi-tenant service can report each job's contribution exactly.
#ifndef ANSOR_SRC_STORE_RECORD_STORE_H_
#define ANSOR_SRC_STORE_RECORD_STORE_H_

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/state.h"

namespace ansor {

struct TuningRecord {
  uint64_t task_id = 0;
  double seconds = 0.0;
  // FLOPS achieved, when the record came from a live measurement; 0 when
  // unknown (the container then omits it).
  double throughput = 0.0;
  std::vector<Step> steps;
};

// Result of loading serialized records. `ok` means the container itself was
// recognized and readable (a missing file or unrecognizable payload is not);
// `skipped` counts individually malformed records that were dropped.
struct RecordLoadStats {
  bool ok = false;
  size_t loaded = 0;
  size_t skipped = 0;
  // The footer index was present and its checksum matched. A false value
  // with ok == true means the loader fell back to a sequential scan
  // (corrupted or truncated index).
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
  RecordStore() = default;

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  // Appends a record (thread-safe). Returns true when the record was stored
  // as a new signature; false when it duplicates a stored one (a strictly
  // faster duplicate still updates the stored record's measurement in place).
  bool Add(TuningRecord record, uint64_t client_id = 0);

  size_t size() const;
  // Copy of the stored records, in insertion order (thread-safe).
  std::vector<TuningRecord> Snapshot() const;

  // Best (lowest-seconds) record for a task; nullopt if none. O(1).
  std::optional<TuningRecord> BestFor(uint64_t task_id) const;
  // Replays the best record for the DAG's task id; returns a failed state if
  // no record exists or replay breaks (e.g. the DAG changed).
  State ReplayBest(const ComputeDAG* dag) const;

  RecordStoreStats stats() const;
  RecordClientStats ClientStatsFor(uint64_t client_id) const;

  // --- Persistence -----------------------------------------------------------

  std::string Serialize() const;
  // Parses a binary container and Adds every well-formed record, so loaded
  // duplicates dedup exactly as live ones do.
  RecordLoadStats Deserialize(const std::string& bytes);
  // Replaces `path` via WriteFileAtomic; on false the old file is intact.
  bool SaveToFile(const std::string& path) const;
  RecordLoadStats LoadFromFile(const std::string& path);

 private:
  bool AddLocked(TuningRecord record, uint64_t client_id);

  mutable std::mutex mu_;
  std::vector<TuningRecord> records_;
  // Dedup + in-place-improvement index: "<task id>|<StepSignature>" -> slot.
  std::unordered_map<std::string, size_t> by_signature_;
  // task id -> slot of its best (lowest-seconds) record.
  std::unordered_map<uint64_t, size_t> best_by_task_;
  RecordStoreStats stats_;
  std::unordered_map<uint64_t, RecordClientStats> client_stats_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_STORE_RECORD_STORE_H_
