#include "src/ir/steps.h"

#include <string>

namespace ansor {

const char* IterAnnotationName(IterAnnotation ann) {
  switch (ann) {
    case IterAnnotation::kNone: return "none";
    case IterAnnotation::kParallel: return "parallel";
    case IterAnnotation::kVectorize: return "vectorize";
    case IterAnnotation::kUnroll: return "unroll";
    case IterAnnotation::kBlockX: return "blockIdx.x";
    case IterAnnotation::kThreadX: return "threadIdx.x";
    case IterAnnotation::kVThread: return "vthread";
  }
  return "?";
}

namespace {

void AppendPart(std::string* out, const char* text) { *out += text; }
void AppendPart(std::string* out, const std::string& text) { *out += text; }
void AppendPart(std::string* out, int64_t value) { *out += std::to_string(value); }

template <typename T>
void AppendPart(std::string* out, const std::vector<T>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      *out += ',';
    }
    AppendPart(out, static_cast<int64_t>(values[i]));
  }
}

template <typename... Parts>
void Append(std::string* out, const Parts&... parts) {
  (AppendPart(out, parts), ...);
}

}  // namespace

void Step::AppendTo(std::string* out) const {
  switch (kind) {
    case StepKind::kSplit:
      Append(out, "split(", stage, ", iter=", iter, ", lengths=[", lengths, "])");
      break;
    case StepKind::kFollowSplit:
      Append(out, "follow_split(", stage, ", iter=", iter, ", src=", src_step, ", parts=",
             n_parts, ")");
      break;
    case StepKind::kFuse:
      Append(out, "fuse(", stage, ", iter=", iter, ", count=", fuse_count, ")");
      break;
    case StepKind::kReorder:
      Append(out, "reorder(", stage, ", order=[", order, "])");
      break;
    case StepKind::kComputeAt:
      Append(out, "compute_at(", stage, ", ", target_stage, ", iter=", target_iter, ")");
      break;
    case StepKind::kComputeInline:
      Append(out, "compute_inline(", stage, ")");
      break;
    case StepKind::kComputeRoot:
      Append(out, "compute_root(", stage, ")");
      break;
    case StepKind::kCacheWrite:
      Append(out, "cache_write(", stage, ")");
      break;
    case StepKind::kRfactor:
      Append(out, "rfactor(", stage, ", iter=", iter, ")");
      break;
    case StepKind::kAnnotation:
      Append(out, "annotate(", stage, ", iter=", iter, ", ", IterAnnotationName(annotation),
             ")");
      break;
    case StepKind::kPragma:
      Append(out, "pragma(", stage, ", auto_unroll_max_step=", pragma_value, ")");
      break;
  }
}

std::string Step::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

Step MakeSplitStep(const std::string& stage, int iter, std::vector<int64_t> lengths) {
  Step s;
  s.kind = StepKind::kSplit;
  s.stage = stage;
  s.iter = iter;
  s.lengths = std::move(lengths);
  return s;
}

Step MakeFollowSplitStep(const std::string& stage, int iter, int src_step, int n_parts) {
  Step s;
  s.kind = StepKind::kFollowSplit;
  s.stage = stage;
  s.iter = iter;
  s.src_step = src_step;
  s.n_parts = n_parts;
  return s;
}

Step MakeFuseStep(const std::string& stage, int iter, int fuse_count) {
  Step s;
  s.kind = StepKind::kFuse;
  s.stage = stage;
  s.iter = iter;
  s.fuse_count = fuse_count;
  return s;
}

Step MakeReorderStep(const std::string& stage, std::vector<int> order) {
  Step s;
  s.kind = StepKind::kReorder;
  s.stage = stage;
  s.order = std::move(order);
  return s;
}

Step MakeComputeAtStep(const std::string& stage, const std::string& target_stage,
                       int target_iter) {
  Step s;
  s.kind = StepKind::kComputeAt;
  s.stage = stage;
  s.target_stage = target_stage;
  s.target_iter = target_iter;
  return s;
}

Step MakeComputeInlineStep(const std::string& stage) {
  Step s;
  s.kind = StepKind::kComputeInline;
  s.stage = stage;
  return s;
}

Step MakeComputeRootStep(const std::string& stage) {
  Step s;
  s.kind = StepKind::kComputeRoot;
  s.stage = stage;
  return s;
}

Step MakeCacheWriteStep(const std::string& stage) {
  Step s;
  s.kind = StepKind::kCacheWrite;
  s.stage = stage;
  return s;
}

Step MakeRfactorStep(const std::string& stage, int iter) {
  Step s;
  s.kind = StepKind::kRfactor;
  s.stage = stage;
  s.iter = iter;
  return s;
}

Step MakeAnnotationStep(const std::string& stage, int iter, IterAnnotation ann) {
  Step s;
  s.kind = StepKind::kAnnotation;
  s.stage = stage;
  s.iter = iter;
  s.annotation = ann;
  return s;
}

Step MakePragmaStep(const std::string& stage, int auto_unroll_max_step) {
  Step s;
  s.kind = StepKind::kPragma;
  s.stage = stage;
  s.pragma_value = auto_unroll_max_step;
  return s;
}

}  // namespace ansor
