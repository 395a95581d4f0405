// Thread-safe, sharded, LRU-bounded cache of compiled ProgramArtifacts.
//
// The cache has a task lifetime: a TaskTuner owns one (unless an external
// cache is injected through SearchOptions) and threads it through evolution,
// the pre-measurement static filter and training-feature extraction, so each
// distinct program is lowered and feature-extracted once per task however
// many consumers touch it. Entries are keyed by "<DAG canonical hash>|<step
// signature>", so a cache may safely be shared across tasks (the cross-task
// reuse path of ROADMAP's open items). Taking a key costs one StepSignature
// (plain string appends) and a field read: the DAG caches its canonical hash
// at construction.
//
// Determinism: an artifact is a pure function of (DAG, step list), so a hit
// is bit-identical to a rebuild — fixed-seed search results do not depend on
// the cache capacity (including 0 = disabled) or on the thread count.
// The hit/miss *counters* are exact under serial use but may split
// differently across thread counts when workers race on the same key; only
// totals (hits + misses) are schedule-independent.
//
// An entry enters one way whatever its source: a build on a GetOrBuild miss
// and a restored artifact from WarmInsert share one key builder and one
// insert-and-evict step, so both obey the same LRU bound.
#ifndef ANSOR_SRC_PROGRAM_PROGRAM_CACHE_H_
#define ANSOR_SRC_PROGRAM_PROGRAM_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/program/program_artifact.h"
#include "src/telemetry/trace.h"

namespace ansor {

// Monotonic counters, aggregated over all shards by stats().
struct ProgramCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  // Hits served to a client other than the one that built the entry (only
  // counted between nonzero client ids). On a cache shared across tasks this
  // is the cross-task reuse the sharing exists for: a program one task
  // compiled that another task consumed for free.
  int64_t cross_client_hits = 0;
  // Entries installed through WarmInsert (artifact-store warm starts). Not
  // lookups: warm inserts count toward neither hits nor misses, so a resumed
  // run proving "zero rebuilds" shows misses == 0 with warm_inserts > 0.
  int64_t warm_inserts = 0;

  int64_t lookups() const { return hits + misses; }
};

// Per-client counters (see ProgramCache::ClientStats): exact even when the
// cache is shared by concurrently running tasks or jobs, so a tuning job can
// report its own cross-task hit rate without seeing its neighbors' traffic.
struct ProgramCacheClientStats {
  int64_t lookups = 0;
  int64_t hits = 0;
  int64_t cross_client_hits = 0;

  double CrossClientHitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(cross_client_hits) / static_cast<double>(lookups);
  }
};

class ProgramCache {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  // `capacity` bounds the entry count: each shard holds at most
  // ceil(capacity / num_shards) (min 1) entries under its own LRU order, so
  // the effective total bound is that per-shard bound times num_shards.
  // Capacity 0 disables storage entirely: every lookup builds a fresh
  // artifact and counts as a miss. Use num_shards = 1 for exact global LRU
  // order (tests).
  explicit ProgramCache(size_t capacity = kDefaultCapacity, size_t num_shards = 16);

  ProgramCache(const ProgramCache&) = delete;
  ProgramCache& operator=(const ProgramCache&) = delete;

  // The artifact for `state`, served from the cache or built (and, capacity
  // permitting, inserted) on a miss. Failed states are never cached — their
  // normalized empty step history would alias every other failed state — but
  // still yield a (not-ok) artifact. Safe to call from worker threads; a
  // racing build of the same key adopts the first inserted artifact, so
  // every caller holds one object per resident key and Evolve's
  // identity-keyed crossover score memo scores it once.
  //
  // `client_id` identifies the consumer for the cross-task accounting only
  // (artifacts are identical regardless): 0 is anonymous, a nonzero id is
  // remembered on the entry it inserts, and a nonzero-id hit on an entry
  // built by a different nonzero id counts as a cross-client hit. The
  // TuningService assigns each (job, task) pair a distinct id so same-tag
  // tasks sharing one cache can report how much they reused of each other.
  //
  // A non-null `tracer` records compiles (misses) as "artifact_build" spans
  // with lower/extract/verify children; hits record nothing — hit traffic is
  // visible in the counters, and the absent build spans are the point of the
  // warm-start 0-miss demonstration.
  ProgramArtifactPtr GetOrBuild(const State& state, uint64_t client_id = 0,
                                const Tracer* tracer = nullptr);

  // Installs a prebuilt artifact under (artifact->task_id(),
  // artifact->signature()) without counting a lookup: the artifact-store
  // warm-start path. Keeps an existing entry on collision (first insert
  // wins, like racing builds) and respects capacity (no-op at capacity 0).
  // Returns true when inserted. Thread-safe; a warm insert is
  // result-invariant because artifacts are pure functions of (DAG, steps) —
  // only the miss counters change.
  bool WarmInsert(ProgramArtifactPtr artifact);

  // Visits every resident artifact (snapshot capture). Per shard, the
  // entries are copied out under the shard lock and visited unlocked, so
  // concurrent lookups are never blocked on the visitor.
  void ForEach(const std::function<void(const ProgramArtifactPtr&)>& fn) const;

  size_t capacity() const { return capacity_; }
  // Current entry count across all shards.
  size_t size() const;
  ProgramCacheStats stats() const;
  // Exact counters for one nonzero client id (zero-initialized if the client
  // never looked anything up).
  ProgramCacheClientStats ClientStats(uint64_t client_id) const;

 private:
  struct Entry {
    ProgramArtifactPtr artifact;
    std::list<std::string>::iterator lru_it;
    // Nonzero client that inserted the entry (0 = anonymous builder).
    uint64_t builder_client = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;  // front = most recently used
    std::unordered_map<std::string, Entry> map;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t cross_client_hits = 0;
    int64_t warm_inserts = 0;
    std::unordered_map<uint64_t, ProgramCacheClientStats> client_stats;
  };

  Shard& ShardFor(const std::string& key);
  // Inserts a non-resident `key` as the shard's most recently used entry and
  // evicts least recently used entries down to the per-shard capacity.
  // Requires shard->mu to be held.
  void InsertLocked(Shard* shard, std::string key, ProgramArtifactPtr artifact,
                    uint64_t builder_client);

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_PROGRAM_PROGRAM_CACHE_H_
