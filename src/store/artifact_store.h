// Persisted program-artifact snapshots: the warm-start half of the store
// layer.
//
// A tuning run's ProgramCache holds everything expensive the run derived —
// compiled programs' feature matrices, verifier reports and resource
// summaries — keyed by (task, step signature). An ArtifactStore captures
// that cache into serializable ArtifactSnapshots, each holding every field
// of a ProgramArtifact (src/program/program_artifact.h), and restores it
// later: WarmCache installs complete artifacts built straight from the
// snapshots, so a resumed (or fleet warm-started) run rebuilds nothing it
// has already seen and reads exactly what the cold builds computed.
//
// The on-disk container mirrors the record store's: an interned string
// table, length-prefixed snapshot bodies (a corrupted snapshot is skipped
// and counted, never crashes the loader), and a fixed magic for detection.
// The magic is ANSRART3. Older files are refused, not misread: an ANSRART1
// file's snapshots held pass/fail bits in place of the report and the
// summary, and an ANSRART2 file's snapshots carried the tag of the cache
// they were captured from.
//
// Thread safety. One ArtifactStore may be shared by any number of threads
// (every job of a TuningService warms its cache from the service's store):
//   * every public method reads or writes the snapshots, the key set and
//     the stats only under mu_ (CaptureCache through Add, the file methods
//     through Serialize/Deserialize), so any mix of concurrent calls is safe;
//   * nothing borrowed escapes the lock: readers get values (size(),
//     stats(), Serialize()'s bytes) or copies (WarmCache builds each
//     artifact from a copy of the snapshot's fields), never a reference into
//     the store;
//   * lock order is mu_ before a ProgramCache shard lock: WarmCache inserts
//     into the cache under mu_, and CaptureCache reads the cache through
//     ProgramCache::ForEach, which calls back with no shard lock held, so
//     its Add takes mu_ alone.
#ifndef ANSOR_SRC_STORE_ARTIFACT_STORE_H_
#define ANSOR_SRC_STORE_ARTIFACT_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/analysis/program_verifier.h"
#include "src/features/feature_matrix.h"
#include "src/ir/steps.h"

namespace ansor {

class ProgramCache;

// The fields of one ProgramArtifact (its signature is StepSignature(steps)).
// WarmCache selects snapshots by task id alone, so a task's artifacts warm
// whichever cache that task's tuner uses.
struct ArtifactSnapshot {
  uint64_t task_id = 0;  // producing DAG's canonical hash
  std::vector<Step> steps;
  FeatureMatrix features;  // empty when resources.lowered is false
  VerifierReport report;
  ResourceSummary resources;
};

// Result of loading a serialized artifact store. `ok` means the container
// was recognized and its tables decoded; `skipped` counts individually
// corrupted snapshot bodies that were dropped.
struct ArtifactLoadStats {
  bool ok = false;
  size_t loaded = 0;
  size_t skipped = 0;

  explicit operator bool() const { return ok; }
};

struct ArtifactStoreStats {
  int64_t added = 0;         // snapshots accepted as new (task, signature) keys
  int64_t deduplicated = 0;  // snapshots dropped as duplicates
};

class ArtifactStore {
 public:
  ArtifactStore() = default;

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  // Adds a snapshot (thread-safe), deduplicating by (task_id, step
  // signature) — the same content address the ProgramCache uses. Returns
  // true when stored; a duplicate is dropped (first capture wins; artifacts
  // are pure functions of the key, so duplicates carry nothing new).
  bool Add(ArtifactSnapshot snapshot);

  size_t size() const;
  ArtifactStoreStats stats() const;

  // Captures every artifact resident in `cache` as a snapshot (duplicates
  // against already-stored snapshots are deduplicated). Returns the number
  // of snapshots newly added.
  size_t CaptureCache(const ProgramCache& cache);

  // Installs a ProgramArtifact into `cache` for every stored snapshot of
  // task `task_id` (a DAG's CanonicalHash()). Each artifact is complete, so a
  // search that only re-encounters snapshot programs reports zero cache
  // misses and compiles nothing. Returns the number of artifacts inserted
  // (collisions with already-resident entries are skipped).
  size_t WarmCache(ProgramCache* cache, uint64_t task_id) const;

  // --- Persistence -----------------------------------------------------------

  std::string Serialize() const;
  // Parses `bytes` and Adds every well-formed snapshot under dedup.
  ArtifactLoadStats Deserialize(const std::string& bytes);
  // Replaces `path` via WriteFileAtomic; on false the old file is intact.
  bool SaveToFile(const std::string& path) const;
  ArtifactLoadStats LoadFromFile(const std::string& path);

 private:
  bool AddLocked(ArtifactSnapshot snapshot);

  mutable std::mutex mu_;
  // Insertion-ordered; Serialize writes them in this order.
  std::vector<ArtifactSnapshot> snapshots_;
  // "<task id>|<StepSignature>" of every snapshot in snapshots_.
  std::unordered_set<std::string> keys_;
  ArtifactStoreStats stats_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_STORE_ARTIFACT_STORE_H_
