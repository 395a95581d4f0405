#include "src/program/program_cache.h"

#include <algorithm>

#include "src/dag/compute_dag.h"
#include "src/ir/state.h"
#include "src/support/util.h"

namespace ansor {
namespace {

// Content address: the DAG's canonical hash (states of different tasks with
// identical step lists must not alias) plus the step signature.
std::string CacheKey(uint64_t task_id, const std::string& signature) {
  std::string key = std::to_string(task_id);
  key += '|';
  key += signature;
  return key;
}

}  // namespace

ProgramCache::ProgramCache(size_t capacity, size_t num_shards)
    : capacity_(capacity), shards_(std::max<size_t>(1, num_shards)) {
  per_shard_capacity_ =
      capacity_ == 0 ? 0
                     : std::max<size_t>(1, static_cast<size_t>(CeilDiv(
                                               static_cast<int64_t>(capacity_),
                                               static_cast<int64_t>(shards_.size()))));
}

ProgramCache::Shard& ProgramCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>()(key) % shards_.size()];
}

ProgramArtifactPtr ProgramCache::GetOrBuild(const State& state, uint64_t client_id,
                                            const Tracer* tracer) {
  if (state.failed()) {
    return std::make_shared<const ProgramArtifact>(state);
  }
  std::string signature = StepSignature(state);
  std::string key = CacheKey(state.dag()->CanonicalHash(), signature);
  Shard& shard = ShardFor(key);
  if (capacity_ == 0) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.misses;
      if (client_id != 0) {
        ++shard.client_stats[client_id].lookups;
      }
    }
    return std::make_shared<const ProgramArtifact>(state, std::move(signature), tracer);
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++shard.hits;
      if (client_id != 0) {
        ProgramCacheClientStats& cs = shard.client_stats[client_id];
        ++cs.lookups;
        ++cs.hits;
        if (it->second.builder_client != 0 && it->second.builder_client != client_id) {
          ++cs.cross_client_hits;
          ++shard.cross_client_hits;
        }
      }
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      return it->second.artifact;
    }
    ++shard.misses;
    if (client_id != 0) {
      ++shard.client_stats[client_id].lookups;
    }
  }
  // Build outside the lock: lowering + feature extraction dominate, and two
  // threads racing on the same key build identical artifacts anyway.
  ProgramArtifactPtr artifact =
      std::make_shared<const ProgramArtifact>(state, std::move(signature), tracer);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // A racing thread inserted first; adopt its artifact so callers share
    // one object per key, which Evolve's crossover score memo (keyed by
    // artifact identity) relies on to score each parent once.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second.artifact;
  }
  InsertLocked(&shard, std::move(key), artifact, client_id);
  return artifact;
}

bool ProgramCache::WarmInsert(ProgramArtifactPtr artifact) {
  if (capacity_ == 0 || artifact == nullptr) {
    return false;
  }
  std::string key = CacheKey(artifact->task_id(), artifact->signature());
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.find(key) != shard.map.end()) {
    // First insert wins, same as racing builds: any resident entry is
    // already the canonical artifact for this key.
    return false;
  }
  ++shard.warm_inserts;
  InsertLocked(&shard, std::move(key), std::move(artifact), 0);
  return true;
}

void ProgramCache::InsertLocked(Shard* shard, std::string key, ProgramArtifactPtr artifact,
                                uint64_t builder_client) {
  shard->lru.push_front(key);
  shard->map.emplace(std::move(key),
                     Entry{std::move(artifact), shard->lru.begin(), builder_client});
  while (shard->map.size() > per_shard_capacity_) {
    shard->map.erase(shard->lru.back());
    shard->lru.pop_back();
    ++shard->evictions;
  }
}

void ProgramCache::ForEach(const std::function<void(const ProgramArtifactPtr&)>& fn) const {
  for (const Shard& shard : shards_) {
    std::vector<ProgramArtifactPtr> resident;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      resident.reserve(shard.map.size());
      for (const auto& [key, entry] : shard.map) {
        resident.push_back(entry.artifact);
      }
    }
    for (const ProgramArtifactPtr& artifact : resident) {
      fn(artifact);
    }
  }
}

size_t ProgramCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

ProgramCacheStats ProgramCache::stats() const {
  ProgramCacheStats out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.cross_client_hits += shard.cross_client_hits;
    out.warm_inserts += shard.warm_inserts;
  }
  return out;
}

ProgramCacheClientStats ProgramCache::ClientStats(uint64_t client_id) const {
  ProgramCacheClientStats out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.client_stats.find(client_id);
    if (it != shard.client_stats.end()) {
      out.lookups += it->second.lookups;
      out.hits += it->second.hits;
      out.cross_client_hits += it->second.cross_client_hits;
    }
  }
  return out;
}

}  // namespace ansor
