#include "src/store/artifact_store.h"

#include "src/ir/state.h"
#include "src/program/program_cache.h"
#include "src/store/serde.h"
#include "src/support/util.h"

namespace ansor {
namespace {

constexpr char kArtifactMagic[8] = {'A', 'N', 'S', 'R', 'A', 'R', 'T', '3'};
constexpr size_t kMagicSize = sizeof(kArtifactMagic);

std::string StoreKey(uint64_t task_id, const std::string& signature) {
  return std::to_string(task_id) + '|' + signature;
}

void EncodeSnapshot(const ArtifactSnapshot& s, StringTable* strings, ByteWriter* body) {
  body->PutU64(s.task_id);
  body->PutVarint(s.steps.size());
  for (const Step& step : s.steps) {
    EncodeStep(step, strings, body);
  }
  EncodeFeatureMatrix(s.features, strings, body);
  EncodeVerifierReport(s.report, strings, body);
  EncodeResourceSummary(s.resources, strings, body);
}

bool DecodeSnapshot(ByteReader* r, const std::vector<std::string>& strings,
                    ArtifactSnapshot* out) {
  out->task_id = r->GetU64();
  uint64_t num_steps = r->GetCount();
  if (!r->ok()) {
    return false;
  }
  out->steps.reserve(num_steps);
  for (uint64_t i = 0; i < num_steps; ++i) {
    std::optional<Step> step = DecodeStep(r, strings);
    if (!step.has_value()) {
      return false;
    }
    out->steps.push_back(std::move(*step));
  }
  if (!DecodeFeatureMatrix(r, strings, &out->features) ||
      !DecodeVerifierReport(r, strings, &out->report) ||
      !DecodeResourceSummary(r, strings, &out->resources)) {
    return false;
  }
  // A well-formed body has nothing trailing: leftover bytes mean the length
  // prefix and the content disagree, i.e. corruption.
  return r->AtEnd();
}

}  // namespace

bool ArtifactStore::Add(ArtifactSnapshot snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddLocked(std::move(snapshot));
}

bool ArtifactStore::AddLocked(ArtifactSnapshot snapshot) {
  if (!keys_.insert(StoreKey(snapshot.task_id, StepSignature(snapshot.steps))).second) {
    ++stats_.deduplicated;
    return false;
  }
  snapshots_.push_back(std::move(snapshot));
  ++stats_.added;
  return true;
}

size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_.size();
}

ArtifactStoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ArtifactStore::CaptureCache(const ProgramCache& cache) {
  size_t added = 0;
  cache.ForEach([&](const ProgramArtifactPtr& artifact) {
    ArtifactSnapshot snapshot;
    snapshot.task_id = artifact->task_id();
    snapshot.steps = artifact->steps();
    snapshot.features = artifact->features();
    snapshot.report = artifact->verifier_report();
    snapshot.resources = artifact->resource_summary();
    if (Add(std::move(snapshot))) {
      ++added;
    }
  });
  return added;
}

size_t ArtifactStore::WarmCache(ProgramCache* cache, uint64_t task_id) const {
  if (cache == nullptr) {
    return 0;
  }
  size_t inserted = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const ArtifactSnapshot& s : snapshots_) {
    if (s.task_id != task_id) {
      continue;
    }
    auto artifact = std::make_shared<const ProgramArtifact>(s.task_id, s.steps, s.features,
                                                            s.report, s.resources);
    if (cache->WarmInsert(std::move(artifact))) {
      ++inserted;
    }
  }
  return inserted;
}

std::string ArtifactStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Bodies are encoded first (interning into the string table as they go) so
  // the table is complete before it is written ahead of them.
  StringTable strings;
  ByteWriter bodies;
  for (const ArtifactSnapshot& s : snapshots_) {
    ByteWriter body;
    EncodeSnapshot(s, &strings, &body);
    bodies.PutVarint(body.size());
    bodies.PutRaw(body.buffer().data(), body.size());
  }
  ByteWriter w;
  w.PutRaw(kArtifactMagic, kMagicSize);
  strings.Encode(&w);
  w.PutVarint(snapshots_.size());
  w.PutRaw(bodies.buffer().data(), bodies.size());
  return w.Take();
}

ArtifactLoadStats ArtifactStore::Deserialize(const std::string& bytes) {
  ArtifactLoadStats stats;
  if (bytes.size() < kMagicSize ||
      bytes.compare(0, kMagicSize, kArtifactMagic, kMagicSize) != 0) {
    return stats;
  }
  ByteReader r(bytes);
  r.Skip(kMagicSize);
  StringTable strings;
  if (!strings.Decode(&r)) {
    return stats;
  }
  uint64_t count = r.GetCount();
  if (!r.ok()) {
    return stats;
  }
  stats.ok = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t body_len = r.GetVarint();
    if (!r.ok() || body_len > r.remaining()) {
      // Truncated container: everything not yet decoded is lost.
      stats.skipped += count - i;
      break;
    }
    ByteReader body(bytes.data() + r.pos(), body_len);
    r.Skip(body_len);
    ArtifactSnapshot snapshot;
    if (!DecodeSnapshot(&body, strings.strings(), &snapshot)) {
      // The length prefix bounds the damage: resynchronize at the next body.
      ++stats.skipped;
      continue;
    }
    AddLocked(std::move(snapshot));
    ++stats.loaded;
  }
  return stats;
}

bool ArtifactStore::SaveToFile(const std::string& path) const {
  return WriteFileAtomic(path, Serialize());
}

ArtifactLoadStats ArtifactStore::LoadFromFile(const std::string& path) {
  std::string bytes;
  return ReadFile(path, &bytes) ? Deserialize(bytes) : ArtifactLoadStats();
}

}  // namespace ansor
