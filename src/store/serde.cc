#include "src/store/serde.h"

namespace ansor {
namespace {

constexpr uint8_t kMaxStepKind = static_cast<uint8_t>(StepKind::kPragma);
constexpr uint8_t kMaxAnnotation = static_cast<uint8_t>(IterAnnotation::kVThread);
constexpr uint8_t kMaxVerdict = static_cast<uint8_t>(VerifierVerdict::kFail);

std::optional<std::string> LookupString(uint64_t ref,
                                        const std::vector<std::string>& strings,
                                        ByteReader* r) {
  if (ref >= strings.size()) {
    r->Fail();
    return std::nullopt;
  }
  return strings[ref];
}

}  // namespace

uint64_t StringTable::Intern(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) {
    return it->second;
  }
  uint64_t id = strings_.size();
  strings_.push_back(s);
  index_.emplace(s, id);
  return id;
}

void StringTable::Encode(ByteWriter* w) const {
  w->PutVarint(strings_.size());
  for (const std::string& s : strings_) {
    w->PutString(s);
  }
}

bool StringTable::Decode(ByteReader* r) {
  strings_.clear();
  index_.clear();
  uint64_t n = r->GetCount();
  if (!r->ok()) {
    return false;
  }
  strings_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string s = r->GetString();
    if (!r->ok()) {
      return false;
    }
    index_.emplace(s, strings_.size());
    strings_.push_back(std::move(s));
  }
  return true;
}

void EncodeStep(const Step& step, StringTable* strings, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(step.kind));
  w->PutVarint(strings->Intern(step.stage));
  switch (step.kind) {
    case StepKind::kSplit:
      w->PutZigzag(step.iter);
      w->PutVarint(step.lengths.size());
      for (int64_t len : step.lengths) {
        w->PutZigzag(len);
      }
      break;
    case StepKind::kFollowSplit:
      w->PutZigzag(step.iter);
      w->PutZigzag(step.src_step);
      w->PutZigzag(step.n_parts);
      break;
    case StepKind::kFuse:
      w->PutZigzag(step.iter);
      w->PutZigzag(step.fuse_count);
      break;
    case StepKind::kReorder:
      w->PutVarint(step.order.size());
      for (int v : step.order) {
        w->PutZigzag(v);
      }
      break;
    case StepKind::kComputeAt:
      w->PutZigzag(step.target_iter);
      w->PutVarint(strings->Intern(step.target_stage));
      break;
    case StepKind::kComputeInline:
    case StepKind::kComputeRoot:
    case StepKind::kCacheWrite:
      break;
    case StepKind::kRfactor:
      w->PutZigzag(step.iter);
      break;
    case StepKind::kAnnotation:
      w->PutZigzag(step.iter);
      w->PutU8(static_cast<uint8_t>(step.annotation));
      break;
    case StepKind::kPragma:
      w->PutZigzag(step.pragma_value);
      break;
  }
}

std::optional<Step> DecodeStep(ByteReader* r, const std::vector<std::string>& strings) {
  uint8_t kind_byte = r->GetU8();
  if (!r->ok() || kind_byte > kMaxStepKind) {
    r->Fail();
    return std::nullopt;
  }
  Step step;
  step.kind = static_cast<StepKind>(kind_byte);
  auto stage = LookupString(r->GetVarint(), strings, r);
  if (!stage.has_value()) {
    return std::nullopt;
  }
  step.stage = std::move(*stage);
  switch (step.kind) {
    case StepKind::kSplit: {
      step.iter = static_cast<int>(r->GetZigzag());
      uint64_t n = r->GetCount();
      if (!r->ok()) {
        return std::nullopt;
      }
      step.lengths.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        step.lengths.push_back(r->GetZigzag());
      }
      break;
    }
    case StepKind::kFollowSplit:
      step.iter = static_cast<int>(r->GetZigzag());
      step.src_step = static_cast<int>(r->GetZigzag());
      step.n_parts = static_cast<int>(r->GetZigzag());
      break;
    case StepKind::kFuse:
      step.iter = static_cast<int>(r->GetZigzag());
      step.fuse_count = static_cast<int>(r->GetZigzag());
      break;
    case StepKind::kReorder: {
      uint64_t n = r->GetCount();
      if (!r->ok()) {
        return std::nullopt;
      }
      step.order.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        step.order.push_back(static_cast<int>(r->GetZigzag()));
      }
      break;
    }
    case StepKind::kComputeAt: {
      step.target_iter = static_cast<int>(r->GetZigzag());
      auto target = LookupString(r->GetVarint(), strings, r);
      if (!target.has_value()) {
        return std::nullopt;
      }
      step.target_stage = std::move(*target);
      break;
    }
    case StepKind::kComputeInline:
    case StepKind::kComputeRoot:
    case StepKind::kCacheWrite:
      break;
    case StepKind::kRfactor:
      step.iter = static_cast<int>(r->GetZigzag());
      break;
    case StepKind::kAnnotation: {
      step.iter = static_cast<int>(r->GetZigzag());
      uint8_t ann = r->GetU8();
      if (!r->ok() || ann > kMaxAnnotation) {
        r->Fail();
        return std::nullopt;
      }
      step.annotation = static_cast<IterAnnotation>(ann);
      break;
    }
    case StepKind::kPragma:
      step.pragma_value = static_cast<int>(r->GetZigzag());
      break;
  }
  if (!r->ok()) {
    return std::nullopt;
  }
  return step;
}

void EncodeFeatureMatrix(const FeatureMatrix& m, StringTable* strings, ByteWriter* w) {
  w->PutVarint(m.dim());
  w->PutVarint(m.rows());
  for (const std::string& stage : m.row_stages()) {
    w->PutVarint(strings->Intern(stage));
  }
  w->PutRaw(m.data().data(), m.data().size() * sizeof(float));
}

bool DecodeFeatureMatrix(ByteReader* r, const std::vector<std::string>& strings,
                         FeatureMatrix* out) {
  uint64_t dim = r->GetVarint();
  uint64_t rows = r->GetCount();
  // The rows x dim floats must fit in what is left, checked by division so a
  // corrupted dim cannot overflow the product.
  if (!r->ok() || (rows > 0 && (dim == 0 || dim > r->remaining() / sizeof(float) / rows))) {
    r->Fail();
    return false;
  }
  std::vector<std::string> stages;
  stages.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    auto stage = LookupString(r->GetVarint(), strings, r);
    if (!stage.has_value()) {
      return false;
    }
    stages.push_back(std::move(*stage));
  }
  if (r->remaining() < dim * rows * sizeof(float)) {
    r->Fail();
    return false;
  }
  FeatureMatrix m(dim);
  m.Reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    float* row = m.AddRow(std::move(stages[i]));
    r->GetRaw(row, dim * sizeof(float));
  }
  if (!r->ok()) {
    return false;
  }
  *out = std::move(m);
  return true;
}

void EncodeVerifierReport(const VerifierReport& report, StringTable* strings,
                          ByteWriter* w) {
  for (const CheckVerdict& check : report.checks) {
    w->PutU8(static_cast<uint8_t>(check.verdict));
    w->PutVarint(check.diagnostics.size());
    for (const std::string& diagnostic : check.diagnostics) {
      w->PutVarint(strings->Intern(diagnostic));
    }
  }
}

bool DecodeVerifierReport(ByteReader* r, const std::vector<std::string>& strings,
                          VerifierReport* out) {
  for (CheckVerdict& check : out->checks) {
    uint8_t verdict = r->GetU8();
    uint64_t num_diagnostics = r->GetCount();
    if (!r->ok() || verdict > kMaxVerdict) {
      r->Fail();
      return false;
    }
    check.verdict = static_cast<VerifierVerdict>(verdict);
    check.diagnostics.clear();
    check.diagnostics.reserve(num_diagnostics);
    for (uint64_t i = 0; i < num_diagnostics; ++i) {
      auto diagnostic = LookupString(r->GetVarint(), strings, r);
      if (!diagnostic.has_value()) {
        return false;
      }
      check.diagnostics.push_back(std::move(*diagnostic));
    }
  }
  return true;
}

void EncodeResourceSummary(const ResourceSummary& summary, StringTable* strings,
                           ByteWriter* w) {
  w->PutU8(summary.lowered ? 1 : 0);
  w->PutZigzag(summary.footprint_bytes);
  w->PutVarint(summary.loops.size());
  for (const ResourceSummary::Loop& loop : summary.loops) {
    w->PutVarint(strings->Intern(loop.stage));
    w->PutU8(static_cast<uint8_t>(loop.annotation));
    w->PutZigzag(loop.extent);
  }
}

bool DecodeResourceSummary(ByteReader* r, const std::vector<std::string>& strings,
                           ResourceSummary* out) {
  uint8_t lowered = r->GetU8();
  out->footprint_bytes = r->GetZigzag();
  uint64_t num_loops = r->GetCount();
  if (!r->ok() || lowered > 1) {
    r->Fail();
    return false;
  }
  out->lowered = lowered != 0;
  out->loops.clear();
  out->loops.reserve(num_loops);
  for (uint64_t i = 0; i < num_loops; ++i) {
    auto stage = LookupString(r->GetVarint(), strings, r);
    if (!stage.has_value()) {
      return false;
    }
    ResourceSummary::Loop loop;
    loop.stage = std::move(*stage);
    uint8_t annotation = r->GetU8();
    loop.extent = r->GetZigzag();
    if (!r->ok() || annotation > kMaxAnnotation) {
      r->Fail();
      return false;
    }
    loop.annotation = static_cast<IterAnnotation>(annotation);
    out->loops.push_back(std::move(loop));
  }
  return true;
}

}  // namespace ansor
