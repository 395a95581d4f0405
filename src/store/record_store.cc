#include "src/store/record_store.h"

#include <cmath>
#include <functional>

#include "src/store/serde.h"
#include "src/support/util.h"

namespace ansor {
namespace {

// Container framing: an 8-byte leading magic identifies the container
// (anything else does not load), and a fixed 16-byte tail (index offset +
// tail magic) locates the footer index.
constexpr char kRecordMagic[8] = {'A', 'N', 'S', 'R', 'R', 'E', 'C', '1'};
constexpr char kIndexMagic[8] = {'A', 'N', 'S', 'R', 'I', 'D', 'X', '1'};
constexpr size_t kMagicSize = sizeof(kRecordMagic);
constexpr size_t kTailSize = 16;  // u64 index offset + 8-byte index magic
constexpr uint8_t kFlagHasThroughput = 1;

bool HasBinaryMagic(const std::string& bytes) {
  return bytes.size() >= kMagicSize &&
         bytes.compare(0, kMagicSize, kRecordMagic, kMagicSize) == 0;
}

std::string DedupKey(const TuningRecord& record) {
  return std::to_string(record.task_id) + '|' + StepSignature(record.steps);
}

// --- Binary container encode -------------------------------------------------

std::string EncodeBinary(const std::vector<TuningRecord>& records) {
  // Interning passes. The step table dedups whole steps (a tuning log's
  // records share sketch skeletons, so distinct steps number far below total
  // steps); its encoded body is built first so the string table is complete
  // before it is written.
  StringTable strings;
  std::vector<uint64_t> tasks;
  std::unordered_map<uint64_t, uint64_t> task_refs;
  // Distinct step encoding -> step table index. String references are
  // stable within one table, so equal encodings mean equal steps.
  std::unordered_map<std::string, uint64_t> step_refs;
  ByteWriter step_table;
  std::vector<std::vector<uint64_t>> record_step_refs(records.size());
  std::vector<uint64_t> record_task_refs(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const TuningRecord& r = records[i];
    auto [task_it, task_new] = task_refs.emplace(r.task_id, tasks.size());
    if (task_new) {
      tasks.push_back(r.task_id);
    }
    record_task_refs[i] = task_it->second;
    record_step_refs[i].reserve(r.steps.size());
    for (const Step& step : r.steps) {
      ByteWriter encoded;
      EncodeStep(step, &strings, &encoded);
      auto [it, inserted] = step_refs.emplace(encoded.Take(), step_refs.size());
      if (inserted) {
        step_table.PutRaw(it->first.data(), it->first.size());
      }
      record_step_refs[i].push_back(it->second);
    }
  }

  ByteWriter w;
  w.PutRaw(kRecordMagic, kMagicSize);
  strings.Encode(&w);
  w.PutVarint(step_refs.size());
  w.PutRaw(step_table.buffer().data(), step_table.size());
  w.PutVarint(tasks.size());
  for (uint64_t task : tasks) {
    w.PutU64(task);
  }
  w.PutVarint(records.size());
  std::vector<uint64_t> offsets;
  offsets.reserve(records.size());
  ByteWriter body;
  for (size_t i = 0; i < records.size(); ++i) {
    const TuningRecord& r = records[i];
    offsets.push_back(w.size());
    body = ByteWriter();
    uint8_t flags = r.throughput > 0.0 ? kFlagHasThroughput : 0;
    body.PutU8(flags);
    body.PutVarint(record_task_refs[i]);
    body.PutF64(r.seconds);
    if (flags & kFlagHasThroughput) {
      body.PutF64(r.throughput);
    }
    body.PutVarint(r.steps.size());
    for (uint64_t ref : record_step_refs[i]) {
      body.PutVarint(ref);
    }
    w.PutVarint(body.size());
    w.PutRaw(body.buffer().data(), body.size());
  }

  // Footer index: record offsets (delta varints) + a checksum over
  // everything before the index, then the fixed tail locating it.
  uint64_t index_offset = w.size();
  uint64_t checksum = Fnv1a64(w.buffer().data(), w.size());
  w.PutVarint(offsets.size());
  uint64_t prev = 0;
  for (uint64_t off : offsets) {
    w.PutVarint(off - prev);
    prev = off;
  }
  w.PutU64(checksum);
  w.PutU64(index_offset);
  w.PutRaw(kIndexMagic, sizeof(kIndexMagic));
  return w.Take();
}

// --- Binary container decode -------------------------------------------------

// Validates the footer index: present, in bounds, and its checksum matches
// the payload. The offsets themselves are not needed for a sequential load;
// a valid checksum certifies every record body, so decode cannot hit a
// malformed record afterwards.
bool ValidateIndex(const std::string& bytes) {
  if (bytes.size() < kMagicSize + kTailSize) {
    return false;
  }
  size_t tail_at = bytes.size() - kTailSize;
  if (bytes.compare(tail_at + 8, 8, kIndexMagic, 8) != 0) {
    return false;
  }
  ByteReader tail(bytes.data() + tail_at, 8);
  uint64_t index_offset = tail.GetU64();
  if (index_offset < kMagicSize || index_offset > tail_at) {
    return false;
  }
  ByteReader index(bytes.data() + index_offset, tail_at - index_offset);
  uint64_t count = index.GetCount();
  if (!index.ok()) {
    return false;
  }
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t offset = prev + index.GetVarint();
    if (!index.ok() || offset >= index_offset) {
      return false;
    }
    prev = offset;
  }
  uint64_t checksum = index.GetU64();
  if (!index.ok() || !index.AtEnd()) {
    return false;
  }
  return checksum == Fnv1a64(bytes.data(), index_offset);
}

RecordLoadStats DecodeBinary(const std::string& bytes,
                             const std::function<void(TuningRecord)>& fn) {
  RecordLoadStats stats;
  if (!HasBinaryMagic(bytes)) {
    return stats;  // not a record container: ok stays false
  }
  stats.index_ok = ValidateIndex(bytes);
  // Sequential scan over the payload; with a valid index this cannot skip,
  // without one the per-record length prefixes resynchronize past damage.
  size_t payload_end =
      stats.index_ok ? bytes.size() - kTailSize : bytes.size();
  ByteReader r(bytes.data(), payload_end);
  r.Skip(kMagicSize);
  StringTable strings;
  if (!strings.Decode(&r)) {
    return stats;  // unreadable container: ok stays false
  }
  uint64_t num_steps = r.GetCount();
  if (!r.ok()) {
    return stats;
  }
  std::vector<Step> steps;
  steps.reserve(num_steps);
  for (uint64_t i = 0; i < num_steps; ++i) {
    auto step = DecodeStep(&r, strings.strings());
    if (!step.has_value()) {
      return stats;
    }
    steps.push_back(std::move(*step));
  }
  uint64_t num_tasks = r.GetCount();
  if (!r.ok()) {
    return stats;
  }
  std::vector<uint64_t> tasks;
  tasks.reserve(num_tasks);
  for (uint64_t i = 0; i < num_tasks; ++i) {
    tasks.push_back(r.GetU64());
  }
  uint64_t num_records = r.GetCount();
  if (!r.ok()) {
    return stats;
  }
  stats.ok = true;
  for (uint64_t i = 0; i < num_records; ++i) {
    uint64_t body_len = r.GetVarint();
    if (!r.ok() || body_len > r.remaining()) {
      // Truncated records section: everything not yet decoded is lost.
      stats.skipped += num_records - i;
      return stats;
    }
    size_t body_start = r.pos();
    ByteReader body(bytes.data() + body_start, body_len);
    r.Skip(body_len);
    uint8_t flags = body.GetU8();
    uint64_t task_ref = body.GetVarint();
    TuningRecord record;
    record.seconds = body.GetF64();
    if (flags & kFlagHasThroughput) {
      record.throughput = body.GetF64();
    }
    uint64_t n = body.GetCount();
    // The encoder sets the throughput flag only for a positive throughput.
    bool valid = body.ok() && task_ref < tasks.size() && std::isfinite(record.seconds) &&
                 ((flags & kFlagHasThroughput) == 0 || record.throughput > 0.0);
    if (valid) {
      record.task_id = tasks[task_ref];
      record.steps.reserve(n);
      for (uint64_t s = 0; s < n && valid; ++s) {
        uint64_t ref = body.GetVarint();
        if (!body.ok() || ref >= steps.size()) {
          valid = false;
          break;
        }
        record.steps.push_back(steps[ref]);
      }
    }
    if (!valid || !body.ok()) {
      ++stats.skipped;
      continue;
    }
    ++stats.loaded;
    fn(std::move(record));
  }
  return stats;
}

}  // namespace

// --- RecordStore -------------------------------------------------------------

bool RecordStore::AddLocked(TuningRecord record, uint64_t client_id) {
  RecordClientStats* client =
      client_id != 0 ? &client_stats_[client_id] : nullptr;
  auto [it, inserted] = by_signature_.emplace(DedupKey(record), records_.size());
  if (!inserted) {
    ++stats_.deduplicated;
    if (client != nullptr) {
      ++client->deduplicated;
    }
    TuningRecord& stored = records_[it->second];
    if (record.seconds < stored.seconds) {
      // The same program re-measured strictly faster: keep the better
      // measurement so BestFor and training labels see it.
      ++stats_.improved;
      stored.seconds = record.seconds;
      stored.throughput = record.throughput;
      size_t& best = best_by_task_[stored.task_id];
      if (stored.seconds < records_[best].seconds) {
        best = it->second;
      }
    }
    return false;
  }
  size_t slot = records_.size();
  auto [best_it, first_for_task] = best_by_task_.emplace(record.task_id, slot);
  if (!first_for_task && record.seconds < records_[best_it->second].seconds) {
    best_it->second = slot;
  }
  records_.push_back(std::move(record));
  ++stats_.appended;
  if (client != nullptr) {
    ++client->appended;
  }
  return true;
}

bool RecordStore::Add(TuningRecord record, uint64_t client_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddLocked(std::move(record), client_id);
}

size_t RecordStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<TuningRecord> RecordStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::optional<TuningRecord> RecordStore::BestFor(uint64_t task_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = best_by_task_.find(task_id);
  if (it == best_by_task_.end()) {
    return std::nullopt;
  }
  return records_[it->second];
}

State RecordStore::ReplayBest(const ComputeDAG* dag) const {
  if (dag == nullptr) {
    return State::Failure(nullptr, "ReplayBest: no DAG");
  }
  auto best = BestFor(dag->CanonicalHash());
  if (!best.has_value()) {
    return State::Failure(dag, "ReplayBest: no record for task");
  }
  return State::Replay(dag, best->steps);
}

RecordStoreStats RecordStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

RecordClientStats RecordStore::ClientStatsFor(uint64_t client_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = client_stats_.find(client_id);
  return it != client_stats_.end() ? it->second : RecordClientStats();
}

std::string RecordStore::Serialize() const {
  return EncodeBinary(Snapshot());
}

RecordLoadStats RecordStore::Deserialize(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  return DecodeBinary(bytes,
                      [this](TuningRecord record) { AddLocked(std::move(record), 0); });
}

bool RecordStore::SaveToFile(const std::string& path) const {
  return WriteFileAtomic(path, Serialize());
}

RecordLoadStats RecordStore::LoadFromFile(const std::string& path) {
  std::string bytes;
  return ReadFile(path, &bytes) ? Deserialize(bytes) : RecordLoadStats();
}

}  // namespace ansor
