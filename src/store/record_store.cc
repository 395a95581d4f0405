#include "src/store/record_store.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/store/serde.h"
#include "src/support/logging.h"
#include "src/support/util.h"

namespace ansor {
namespace {

// Container framing: an 8-byte leading magic identifies the binary codec
// (anything else is treated as the legacy text format), and a fixed 16-byte
// tail (index offset + tail magic) locates the footer index.
constexpr char kRecordMagic[8] = {'A', 'N', 'S', 'R', 'R', 'E', 'C', '1'};
constexpr char kIndexMagic[8] = {'A', 'N', 'S', 'R', 'I', 'D', 'X', '1'};
constexpr size_t kMagicSize = sizeof(kRecordMagic);
constexpr size_t kTailSize = 16;  // u64 index offset + 8-byte index magic
constexpr uint8_t kFlagHasThroughput = 1;
constexpr uint64_t kMaxReasonableCount = 1u << 28;

const char* StepKindName(StepKind kind) {
  switch (kind) {
    case StepKind::kSplit: return "SP";
    case StepKind::kFollowSplit: return "FSP";
    case StepKind::kFuse: return "FU";
    case StepKind::kReorder: return "RE";
    case StepKind::kComputeAt: return "CA";
    case StepKind::kComputeInline: return "CI";
    case StepKind::kComputeRoot: return "CR";
    case StepKind::kCacheWrite: return "CW";
    case StepKind::kRfactor: return "RF";
    case StepKind::kAnnotation: return "AN";
    case StepKind::kPragma: return "PR";
  }
  return "??";
}

std::optional<StepKind> StepKindFromName(const std::string& name) {
  if (name == "SP") return StepKind::kSplit;
  if (name == "FSP") return StepKind::kFollowSplit;
  if (name == "FU") return StepKind::kFuse;
  if (name == "RE") return StepKind::kReorder;
  if (name == "CA") return StepKind::kComputeAt;
  if (name == "CI") return StepKind::kComputeInline;
  if (name == "CR") return StepKind::kComputeRoot;
  if (name == "CW") return StepKind::kCacheWrite;
  if (name == "RF") return StepKind::kRfactor;
  if (name == "AN") return StepKind::kAnnotation;
  if (name == "PR") return StepKind::kPragma;
  return std::nullopt;
}

std::vector<std::string> SplitString(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

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
  std::unordered_map<std::string, uint64_t> step_refs;
  uint64_t num_steps = 0;
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
      // Text form as the dedup key: unique per distinct step by construction.
      auto [it, inserted] = step_refs.emplace(SerializeStep(step), num_steps);
      if (inserted) {
        EncodeStep(step, &strings, &step_table);
        ++num_steps;
      }
      record_step_refs[i].push_back(it->second);
    }
  }

  ByteWriter w;
  w.PutRaw(kRecordMagic, kMagicSize);
  strings.Encode(&w);
  w.PutVarint(num_steps);
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
  uint64_t count = index.GetVarint();
  if (!index.ok() || count > kMaxReasonableCount) {
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
  uint64_t num_steps = r.GetVarint();
  if (!r.ok() || num_steps > kMaxReasonableCount) {
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
  uint64_t num_tasks = r.GetVarint();
  if (!r.ok() || num_tasks > kMaxReasonableCount) {
    return stats;
  }
  std::vector<uint64_t> tasks;
  tasks.reserve(num_tasks);
  for (uint64_t i = 0; i < num_tasks; ++i) {
    tasks.push_back(r.GetU64());
  }
  uint64_t num_records = r.GetVarint();
  if (!r.ok() || num_records > kMaxReasonableCount) {
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
    uint64_t n = body.GetVarint();
    bool valid = body.ok() && task_ref < tasks.size() &&
                 std::isfinite(record.seconds) && n <= kMaxReasonableCount;
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

RecordLoadStats DecodeText(const std::string& text,
                           const std::function<void(TuningRecord)>& fn) {
  RecordLoadStats stats;
  stats.ok = true;
  for (const std::string& line : SplitString(text, '\n')) {
    if (line.empty()) {
      continue;
    }
    auto record = ParseRecord(line);
    if (!record.has_value()) {
      ++stats.skipped;
      continue;
    }
    ++stats.loaded;
    fn(std::move(*record));
  }
  return stats;
}

}  // namespace

// --- Text codec --------------------------------------------------------------

std::string SerializeStep(const Step& step) {
  // Fields are comma-separated; the stage name goes last so commas never
  // collide with integer fields (stage names contain no commas by
  // construction — they derive from tensor names).
  std::ostringstream os;
  os << StepKindName(step.kind);
  switch (step.kind) {
    case StepKind::kSplit:
      os << "," << step.iter << "," << Join(step.lengths, ":");
      break;
    case StepKind::kFollowSplit:
      os << "," << step.iter << "," << step.src_step << "," << step.n_parts;
      break;
    case StepKind::kFuse:
      os << "," << step.iter << "," << step.fuse_count;
      break;
    case StepKind::kReorder:
      os << "," << Join(step.order, ":");
      break;
    case StepKind::kComputeAt:
      os << "," << step.target_iter << "," << step.target_stage;
      break;
    case StepKind::kComputeInline:
    case StepKind::kComputeRoot:
    case StepKind::kCacheWrite:
      break;
    case StepKind::kRfactor:
      os << "," << step.iter;
      break;
    case StepKind::kAnnotation:
      os << "," << step.iter << "," << static_cast<int>(step.annotation);
      break;
    case StepKind::kPragma:
      os << "," << step.pragma_value;
      break;
  }
  os << "@" << step.stage;
  return os.str();
}

std::optional<Step> ParseStep(const std::string& text) {
  size_t at = text.rfind('@');
  if (at == std::string::npos) {
    return std::nullopt;
  }
  std::string stage = text.substr(at + 1);
  std::vector<std::string> fields = SplitString(text.substr(0, at), ',');
  if (fields.empty()) {
    return std::nullopt;
  }
  auto kind = StepKindFromName(fields[0]);
  if (!kind.has_value()) {
    return std::nullopt;
  }
  auto parse_ints = [](const std::string& s) {
    std::vector<int64_t> values;
    if (s.empty()) {
      return values;
    }
    for (const std::string& part : SplitString(s, ':')) {
      values.push_back(std::atoll(part.c_str()));
    }
    return values;
  };
  Step step;
  step.kind = *kind;
  step.stage = stage;
  switch (*kind) {
    case StepKind::kSplit: {
      if (fields.size() != 3) return std::nullopt;
      step.iter = std::atoi(fields[1].c_str());
      step.lengths = parse_ints(fields[2]);
      break;
    }
    case StepKind::kFollowSplit:
      if (fields.size() != 4) return std::nullopt;
      step.iter = std::atoi(fields[1].c_str());
      step.src_step = std::atoi(fields[2].c_str());
      step.n_parts = std::atoi(fields[3].c_str());
      break;
    case StepKind::kFuse:
      if (fields.size() != 3) return std::nullopt;
      step.iter = std::atoi(fields[1].c_str());
      step.fuse_count = std::atoi(fields[2].c_str());
      break;
    case StepKind::kReorder: {
      if (fields.size() != 2) return std::nullopt;
      for (int64_t v : parse_ints(fields[1])) {
        step.order.push_back(static_cast<int>(v));
      }
      break;
    }
    case StepKind::kComputeAt:
      if (fields.size() != 3) return std::nullopt;
      step.target_iter = std::atoi(fields[1].c_str());
      step.target_stage = fields[2];
      break;
    case StepKind::kComputeInline:
    case StepKind::kComputeRoot:
    case StepKind::kCacheWrite:
      if (fields.size() != 1) return std::nullopt;
      break;
    case StepKind::kRfactor:
      if (fields.size() != 2) return std::nullopt;
      step.iter = std::atoi(fields[1].c_str());
      break;
    case StepKind::kAnnotation:
      if (fields.size() != 3) return std::nullopt;
      step.iter = std::atoi(fields[1].c_str());
      step.annotation = static_cast<IterAnnotation>(std::atoi(fields[2].c_str()));
      break;
    case StepKind::kPragma:
      if (fields.size() != 2) return std::nullopt;
      step.pragma_value = std::atoi(fields[1].c_str());
      break;
  }
  return step;
}

std::string SerializeRecord(const TuningRecord& record) {
  std::ostringstream os;
  char task_hex[32];
  std::snprintf(task_hex, sizeof(task_hex), "%016" PRIx64, record.task_id);
  os << "task=" << task_hex << "|seconds=" << FormatDouble(record.seconds * 1e9, 6)
     << "e-9|steps=";
  for (size_t i = 0; i < record.steps.size(); ++i) {
    if (i > 0) {
      os << ";";
    }
    os << SerializeStep(record.steps[i]);
  }
  return os.str();
}

std::optional<TuningRecord> ParseRecord(const std::string& line) {
  std::vector<std::string> sections = SplitString(line, '|');
  if (sections.size() != 3) {
    return std::nullopt;
  }
  auto value_of = [&](const std::string& section,
                      const std::string& key) -> std::optional<std::string> {
    if (section.rfind(key + "=", 0) != 0) {
      return std::nullopt;
    }
    return section.substr(key.size() + 1);
  };
  auto task = value_of(sections[0], "task");
  auto seconds = value_of(sections[1], "seconds");
  auto steps = value_of(sections[2], "steps");
  if (!task.has_value() || !seconds.has_value() || !steps.has_value()) {
    return std::nullopt;
  }
  TuningRecord record;
  record.task_id = std::strtoull(task->c_str(), nullptr, 16);
  record.seconds = std::atof(seconds->c_str());
  if (!std::isfinite(record.seconds)) {
    return std::nullopt;
  }
  if (!steps->empty()) {
    for (const std::string& part : SplitString(*steps, ';')) {
      auto step = ParseStep(part);
      if (!step.has_value()) {
        return std::nullopt;
      }
      record.steps.push_back(std::move(*step));
    }
  }
  return record;
}

// --- RecordStore -------------------------------------------------------------

RecordStore::RecordStore(Options options) : options_(options) {}

bool RecordStore::AddLocked(TuningRecord record, uint64_t client_id) {
  RecordClientStats* client =
      client_id != 0 ? &client_stats_[client_id] : nullptr;
  if (options_.dedup) {
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
  }
  size_t slot = records_.size();
  auto [best_it, first_for_task] = best_by_task_.emplace(record.task_id, slot);
  if (first_for_task) {
    task_order_.push_back(record.task_id);
  } else if (record.seconds < records_[best_it->second].seconds) {
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

std::vector<uint64_t> RecordStore::TaskIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return task_order_;
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

void RecordStore::ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const {
  RecordStoreStats s = stats();
  registry->SetGauge(prefix + ".appended", static_cast<double>(s.appended));
  registry->SetGauge(prefix + ".deduplicated", static_cast<double>(s.deduplicated));
  registry->SetGauge(prefix + ".improved", static_cast<double>(s.improved));
  registry->SetGauge(prefix + ".size", static_cast<double>(size()));
}

std::string RecordStore::Serialize(RecordCodec codec) const {
  std::vector<TuningRecord> snapshot = Snapshot();
  if (codec == RecordCodec::kBinary) {
    return EncodeBinary(snapshot);
  }
  std::ostringstream os;
  for (const TuningRecord& r : snapshot) {
    os << SerializeRecord(r) << "\n";
  }
  return os.str();
}

RecordLoadStats RecordStore::Deserialize(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  return ForEachRecord(bytes,
                       [this](TuningRecord record) { AddLocked(std::move(record), 0); });
}

bool RecordStore::SaveToFile(const std::string& path, RecordCodec codec) const {
  return WriteFileAtomic(path, Serialize(codec));
}

RecordLoadStats RecordStore::LoadFromFile(const std::string& path) {
  std::string bytes;
  return ReadFile(path, &bytes) ? Deserialize(bytes) : RecordLoadStats();
}

RecordLoadStats RecordStore::ForEachRecord(const std::string& bytes,
                                           const std::function<void(TuningRecord)>& fn) {
  if (HasBinaryMagic(bytes)) {
    return DecodeBinary(bytes, fn);
  }
  return DecodeText(bytes, fn);
}

RecordLoadStats RecordStore::MigrateTextToBinary(const std::string& text_path,
                                                 const std::string& binary_path) {
  RecordStore store(Options{/*dedup=*/false});
  RecordLoadStats stats = store.LoadFromFile(text_path);
  if (!stats.ok) {
    return stats;
  }
  if (!store.SaveToFile(binary_path, RecordCodec::kBinary)) {
    stats.ok = false;
  }
  return stats;
}

}  // namespace ansor
