#include "src/features/feature_extraction.h"

#include <algorithm>
#include <cmath>

#include "src/analysis/access_pattern.h"
#include "src/dag/compute_dag.h"
#include "src/support/logging.h"

namespace ansor {
namespace {

constexpr int kNumBufferSlots = 5;
constexpr int kIntensitySamples = 10;
constexpr double kBytesPerElement = 4.0;

double Log2p1(double x) { return std::log2(1.0 + std::max(0.0, x)); }

// Loop position categories (Appendix B: InnerSpatial .. Mixed, None).
enum PositionType {
  kPosInnerSpatial = 0,
  kPosMiddleSpatial,
  kPosOuterSpatial,
  kPosInnerReduce,
  kPosMiddleReduce,
  kPosOuterReduce,
  kPosMixed,
  kPosNone,
  kNumPositionTypes,
};

// Reuse categories.
enum ReuseType { kReuseLoopMultipleRead = 0, kReuseSerialMultipleRead, kReuseNone,
                 kNumReuseTypes };

struct ArithCounts {
  double f_add = 0, f_sub = 0, f_mul = 0, f_div = 0, f_mod = 0, f_cmp = 0, f_math = 0,
         f_select = 0, f_other = 0;
  double i_add = 0, i_sub = 0, i_mul = 0, i_div = 0, i_mod = 0, i_cmp = 0, i_other = 0;
};

// Counts arithmetic, separating float work from integer index arithmetic
// (everything inside Load index operands is integer address computation).
void CountArith(const Expr& e, bool in_index, ArithCounts* out) {
  const ExprNode& n = *e.get();
  switch (n.kind) {
    case ExprKind::kBinary: {
      double* slot = nullptr;
      switch (n.binary_op) {
        case BinaryOp::kAdd: slot = in_index ? &out->i_add : &out->f_add; break;
        case BinaryOp::kSub: slot = in_index ? &out->i_sub : &out->f_sub; break;
        case BinaryOp::kMul: slot = in_index ? &out->i_mul : &out->f_mul; break;
        case BinaryOp::kDiv: slot = in_index ? &out->i_div : &out->f_div; break;
        case BinaryOp::kMod: slot = in_index ? &out->i_mod : &out->f_mod; break;
        case BinaryOp::kMin:
        case BinaryOp::kMax: slot = in_index ? &out->i_other : &out->f_other; break;
        default: slot = in_index ? &out->i_cmp : &out->f_cmp; break;
      }
      *slot += 1.0;
      break;
    }
    case ExprKind::kCall:
      out->f_math += 1.0;
      break;
    case ExprKind::kSelect:
      out->f_select += 1.0;
      break;
    default:
      break;
  }
  if (n.kind == ExprKind::kLoad) {
    for (const Expr& idx : n.operands) {
      CountArith(idx, /*in_index=*/true, out);
    }
    return;
  }
  if (n.kind == ExprKind::kSelect) {
    CountArith(n.operands[0], /*in_index=*/true, out);  // condition: integer work
    CountArith(n.operands[1], in_index, out);
    CountArith(n.operands[2], in_index, out);
    return;
  }
  for (const Expr& operand : n.operands) {
    CountArith(operand, in_index, out);
  }
}

struct LoopInfo {
  const LoopTreeNode* loop;
  int64_t extent;
};

int PositionOf(size_t index, const std::vector<LoopInfo>& stack) {
  if (stack.empty()) {
    return kPosNone;
  }
  const LoopInfo& info = stack[index];
  bool is_reduce = info.loop->iter_kind == IterKind::kReduce;
  size_t depth = stack.size();
  // Inner third / middle third / outer third of the nest.
  double rel = depth <= 1 ? 1.0 : static_cast<double>(index) / static_cast<double>(depth - 1);
  if (rel >= 0.67) {
    return is_reduce ? kPosInnerReduce : kPosInnerSpatial;
  }
  if (rel >= 0.34) {
    return is_reduce ? kPosMiddleReduce : kPosMiddleSpatial;
  }
  return is_reduce ? kPosOuterReduce : kPosOuterSpatial;
}

// Walks the loop tree and writes one feature row per innermost store directly
// into a flat FeatureMatrix. Per-row working state lives in scratch buffers
// owned by the builder and reused across rows, and buffers are interned to
// small integer ids on first sight. Each ExtractFeatures call starts a new
// builder with empty scratch, though, so every program pays to grow it and
// intern its buffers again: a row of a sampled GPU conv program costs about
// 68 heap allocations (236 per program), not the arithmetic alone.
class FeatureBuilder {
 public:
  explicit FeatureBuilder(const LoweredProgram& program)
      : program_(program), matrix_(FeatureDim()) {}

  FeatureMatrix Run() {
    for (const LoopTreeNodeRef& root : program_.roots) {
      Walk(*root);
    }
    return std::move(matrix_);
  }

 private:
  // Per-buffer accumulated access features for the current row, keyed by
  // interned buffer id (first-encounter order within the row).
  struct BufferFeat {
    int buffer_id = -1;
    double bytes = 0.0;
    double unique_bytes = 0.0;
    double lines = 0.0;
    double unique_lines = 0.0;
    int access_type = 0;  // bit 0 read, bit 1 write
    int reuse_type = kReuseNone;
    double reuse_distance_iters = 0.0;
    double reuse_distance_bytes = 0.0;
    double reuse_counter = 1.0;
    double stride = 0.0;
    int n_accesses = 0;
  };

  void Walk(const LoopTreeNode& node) {
    switch (node.kind) {
      case LoopTreeKind::kLoop:
        stack_.push_back({&node, node.extent});
        for (const LoopTreeNodeRef& child : node.children) {
          Walk(*child);
        }
        stack_.pop_back();
        return;
      case LoopTreeKind::kIf:
        for (const LoopTreeNodeRef& child : node.children) {
          Walk(*child);
        }
        return;
      case LoopTreeKind::kStore:
        BuildRow(node);
        return;
    }
  }

  void Push(double v) { out_[idx_++] = static_cast<float>(v); }
  void PushRaw(float v) { out_[idx_++] = v; }

  // Buffers are interned program-wide to dense ids; the comparison shortcut
  // is pointer identity, with name equality as the merge rule (matching the
  // former string-keyed map).
  int InternBuffer(const BufferRef& buffer) {
    for (size_t k = 0; k < interned_.size(); ++k) {
      if (interned_[k] == buffer.get() || interned_[k]->name == buffer->name) {
        return static_cast<int>(k);
      }
    }
    interned_.push_back(buffer.get());
    return static_cast<int>(interned_.size()) - 1;
  }

  // Appends annotation-family features: innermost length, position one-hot,
  // product of lengths, count.
  void AnnotationFeatures(IterAnnotation ann) {
    double innermost_len = 0.0;
    int position = kPosNone;
    double product = 1.0;
    double count = 0.0;
    for (size_t i = 0; i < stack_.size(); ++i) {
      if (stack_[i].loop->annotation != ann) {
        continue;
      }
      count += 1.0;
      product *= static_cast<double>(stack_[i].extent);
      innermost_len = static_cast<double>(stack_[i].extent);
      position = PositionOf(i, stack_);
    }
    if (count == 0.0) {
      product = 0.0;
    }
    Push(Log2p1(innermost_len));
    for (int p = 0; p < kNumPositionTypes; ++p) {
      PushRaw(p == position ? 1.0f : 0.0f);
    }
    Push(Log2p1(product));
    Push(count);
  }

  void BuildRow(const LoopTreeNode& store) {
    out_ = matrix_.AddRow(store.stage_name);
    idx_ = 0;

    extents_.clear();  // clear() keeps buckets: no rehash after the first row
    for (const LoopInfo& f : stack_) {
      extents_[f.loop->var->var_id] = f.extent;
    }

    // 1. Float / int arithmetic counts (16), scaled by iteration count of the
    //    whole statement so bigger statements score bigger.
    double iters = 1.0;
    for (const LoopInfo& f : stack_) {
      iters *= static_cast<double>(f.extent);
    }
    ArithCounts counts;
    if (store.value.defined()) {
      CountArith(store.value, false, &counts);
    }
    if (store.is_accumulate) {
      counts.f_add += 1.0;
    }
    for (double c : {counts.f_add, counts.f_sub, counts.f_mul, counts.f_div, counts.f_mod,
                     counts.f_cmp, counts.f_math, counts.f_select, counts.f_other,
                     counts.i_add, counts.i_sub, counts.i_mul, counts.i_div, counts.i_mod,
                     counts.i_cmp, counts.i_other}) {
      Push(Log2p1(c * iters));
    }

    // 2-4. Vectorization / unrolling / parallelization families (11 each).
    AnnotationFeatures(IterAnnotation::kVectorize);
    AnnotationFeatures(IterAnnotation::kUnroll);
    AnnotationFeatures(IterAnnotation::kParallel);

    // 5. GPU thread binding lengths: blockIdx.x/y/z, threadIdx.x/y/z, vthread.
    double block_x = 0.0;
    double thread_x = 0.0;
    double vthread = 0.0;
    for (const LoopInfo& f : stack_) {
      if (f.loop->annotation == IterAnnotation::kBlockX) {
        block_x = block_x == 0.0 ? static_cast<double>(f.extent)
                                 : block_x * static_cast<double>(f.extent);
      }
      if (f.loop->annotation == IterAnnotation::kThreadX) {
        thread_x = thread_x == 0.0 ? static_cast<double>(f.extent)
                                   : thread_x * static_cast<double>(f.extent);
      }
      if (f.loop->annotation == IterAnnotation::kVThread) {
        vthread = vthread == 0.0 ? static_cast<double>(f.extent)
                                 : vthread * static_cast<double>(f.extent);
      }
    }
    Push(Log2p1(block_x));
    PushRaw(0.0f);  // blockIdx.y (not generated by this implementation)
    PushRaw(0.0f);  // blockIdx.z
    Push(Log2p1(thread_x));
    PushRaw(0.0f);  // threadIdx.y
    PushRaw(0.0f);  // threadIdx.z
    Push(Log2p1(vthread));

    accesses_ = StatementAccesses(store, extents_);
    size_t depth = stack_.size();
    size_t n_acc = accesses_.size();

    // Shared unique-elements computation, done once per row and consumed by
    // both the intensity curve and the buffer slots. For access a and loop
    // level j, contrib[a][j] is the number of distinct positions loop j
    // contributes to the access; suffix[a][d] is the product over loops
    // j >= d — the unique elements the access touches inside depth d. All
    // factors are small integers, so the suffix-product association is exact.
    strides_.assign(n_acc * depth, 0.0);
    suffix_.assign(n_acc * (depth + 1), 1.0);
    iter_suffix_.assign(depth + 1, 1.0);
    for (size_t j = depth; j-- > 0;) {
      iter_suffix_[j] = iter_suffix_[j + 1] * static_cast<double>(stack_[j].extent);
    }
    for (size_t a = 0; a < n_acc; ++a) {
      const AccessPattern& ap = accesses_[a];
      double* suffix = suffix_.data() + a * (depth + 1);
      double* strides = strides_.data() + a * depth;
      for (size_t j = depth; j-- > 0;) {
        int64_t vid = stack_[j].loop->var->var_id;
        double contrib = 1.0;
        if (!ap.analyzable) {
          strides[j] = 1.0;
          contrib = static_cast<double>(stack_[j].extent);
        } else {
          strides[j] = std::fabs(ap.StrideOf(vid));
          if (strides[j] > 0.0) {
            contrib = static_cast<double>(
                std::min<int64_t>(stack_[j].extent, ap.DistinctOf(vid)));
          }
        }
        suffix[j] = contrib * suffix[j + 1];
      }
    }

    // 6. Arithmetic intensity curve: 10 interpolated samples over loop depth.
    double flops_per_iter =
        std::max(0.5, store.value.defined() ? ExprFlopCount(store.value) : 0.0);
    intensity_.assign(depth == 0 ? 1 : depth, 0.0);
    for (size_t d = 0; d < intensity_.size(); ++d) {
      double bytes = 0.0;
      for (size_t a = 0; a < n_acc; ++a) {
        bytes += suffix_[a * (depth + 1) + d] * kBytesPerElement;
      }
      intensity_[d] = (flops_per_iter * iter_suffix_[d]) / std::max(bytes, 1.0);
    }
    for (int s = 0; s < kIntensitySamples; ++s) {
      double pos = intensity_.size() <= 1
                       ? 0.0
                       : static_cast<double>(s) / (kIntensitySamples - 1) *
                             static_cast<double>(intensity_.size() - 1);
      size_t lo = static_cast<size_t>(pos);
      size_t hi = std::min(lo + 1, intensity_.size() - 1);
      double frac = pos - static_cast<double>(lo);
      Push(Log2p1(intensity_[lo] * (1 - frac) + intensity_[hi] * frac));
    }

    // 7. Buffer access features: up to 5 buffers, 18 features each; merge
    //    multiple accesses to the same buffer, order by bytes descending
    //    (equal-bytes ties keep first-encounter order).
    feats_.clear();
    double line_elems = 16.0;  // 64B line / 4B elements
    for (size_t a = 0; a < n_acc; ++a) {
      const AccessPattern& ap = accesses_[a];
      int id = InternBuffer(ap.buffer);
      BufferFeat* bf = nullptr;
      for (BufferFeat& f : feats_) {
        if (f.buffer_id == id) {
          bf = &f;
          break;
        }
      }
      if (bf == nullptr) {
        feats_.emplace_back();
        bf = &feats_.back();
        bf->buffer_id = id;
      }
      bf->access_type |= ap.is_write ? 2 : 1;
      bf->n_accesses += 1;
      bf->bytes += iters * kBytesPerElement;
      double elements = suffix_[a * (depth + 1)];
      double min_stride = depth > 0 ? strides_[a * depth + depth - 1] : 0.0;
      bf->unique_bytes += elements * kBytesPerElement;
      double contiguous = min_stride > 0.0 && min_stride <= 2.0 ? 1.0 / line_elems : 1.0;
      bf->lines += std::max(1.0, iters * (min_stride == 0.0 ? 1.0 / line_elems : contiguous));
      bf->unique_lines += std::max(1.0, elements * contiguous / std::max(min_stride, 1.0));
      // Merge as the minimum over accesses: the fastest-varying access
      // determines locality, and any fixed pick would let one access
      // silently overwrite another's innermost stride.
      bf->stride = bf->n_accesses == 1 ? min_stride : std::min(bf->stride, min_stride);
      // Reuse: innermost enclosing loop the access is invariant to.
      double dist_iters = 1.0;
      for (size_t j = depth; j-- > 0;) {
        if (strides_[a * depth + j] == 0.0 && stack_[j].extent > 1) {
          bf->reuse_type = kReuseLoopMultipleRead;
          bf->reuse_distance_iters = dist_iters;
          bf->reuse_distance_bytes = std::min(elements, dist_iters) * kBytesPerElement;
          bf->reuse_counter = static_cast<double>(stack_[j].extent);
          break;
        }
        dist_iters *= static_cast<double>(stack_[j].extent);
      }
      if (bf->reuse_type == kReuseNone && bf->n_accesses > 1) {
        bf->reuse_type = kReuseSerialMultipleRead;
        bf->reuse_counter = bf->n_accesses;
      }
    }
    order_.resize(feats_.size());
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<int>(i);
    }
    // Stable: equal-bytes ties resolve by first-encounter order, so slot
    // assignment never depends on hash-map iteration order (which varies
    // across standard libraries and would make features non-portable).
    std::stable_sort(order_.begin(), order_.end(), [this](int a, int b) {
      return feats_[static_cast<size_t>(a)].bytes > feats_[static_cast<size_t>(b)].bytes;
    });
    for (int slot = 0; slot < kNumBufferSlots; ++slot) {
      if (slot < static_cast<int>(order_.size())) {
        const BufferFeat& bf = feats_[static_cast<size_t>(order_[static_cast<size_t>(slot)])];
        PushRaw(bf.access_type == 1 ? 1.0f : 0.0f);
        PushRaw(bf.access_type == 2 ? 1.0f : 0.0f);
        PushRaw(bf.access_type == 3 ? 1.0f : 0.0f);
        Push(Log2p1(bf.bytes));
        Push(Log2p1(bf.unique_bytes));
        Push(Log2p1(bf.lines));
        Push(Log2p1(bf.unique_lines));
        for (int r = 0; r < kNumReuseTypes; ++r) {
          PushRaw(r == bf.reuse_type ? 1.0f : 0.0f);
        }
        Push(Log2p1(bf.reuse_distance_iters));
        Push(Log2p1(bf.reuse_distance_bytes));
        Push(Log2p1(bf.reuse_counter));
        Push(Log2p1(bf.stride));
        double rc = std::max(1.0, bf.reuse_counter);
        Push(Log2p1(bf.bytes / rc));
        Push(Log2p1(bf.unique_bytes / rc));
        Push(Log2p1(bf.lines / rc));
        Push(Log2p1(bf.unique_lines / rc));
      } else {
        for (int z = 0; z < 18; ++z) {
          PushRaw(0.0f);
        }
      }
    }

    // 8. Allocation features: output buffer size, number of allocations.
    Push(Log2p1(static_cast<double>(store.buffer->NumElements()) * kBytesPerElement));
    Push(Log2p1(static_cast<double>(program_.buffers.size())));

    // 9. Other: number of outer loops, product of their lengths,
    //    auto_unroll_max_step, reduction flag, buffer count, output rank.
    Push(static_cast<double>(depth));
    Push(Log2p1(iters));
    Push(Log2p1(static_cast<double>(store.auto_unroll_max_step)));
    PushRaw(store.is_accumulate ? 1.0f : 0.0f);
    Push(static_cast<double>(feats_.size()));
    Push(static_cast<double>(store.indices.size()));

    CHECK_EQ(idx_, FeatureDim());
  }

  const LoweredProgram& program_;
  FeatureMatrix matrix_;
  std::vector<LoopInfo> stack_;

  // Row cursor into the matrix row under construction.
  float* out_ = nullptr;
  size_t idx_ = 0;

  // Program-lifetime buffer intern table (id = index).
  std::vector<const Buffer*> interned_;

  // Scratch reused across rows (capacity persists).
  std::unordered_map<int64_t, int64_t> extents_;
  std::vector<AccessPattern> accesses_;
  std::vector<double> strides_;      // n_acc x depth
  std::vector<double> suffix_;       // n_acc x (depth + 1)
  std::vector<double> iter_suffix_;  // depth + 1
  std::vector<double> intensity_;
  std::vector<BufferFeat> feats_;
  std::vector<int> order_;
};

std::vector<std::string> BuildFeatureNames() {
  std::vector<std::string> names;
  for (const char* n : {"f_add", "f_sub", "f_mul", "f_div", "f_mod", "f_cmp", "f_math",
                        "f_select", "f_other", "i_add", "i_sub", "i_mul", "i_div", "i_mod",
                        "i_cmp", "i_other"}) {
    names.push_back(n);
  }
  for (const char* fam : {"vec", "unroll", "parallel"}) {
    names.push_back(std::string(fam) + ".innermost_len");
    for (const char* p : {"inner_s", "mid_s", "outer_s", "inner_r", "mid_r", "outer_r",
                          "mixed", "none"}) {
      names.push_back(std::string(fam) + ".pos_" + p);
    }
    names.push_back(std::string(fam) + ".product");
    names.push_back(std::string(fam) + ".count");
  }
  for (const char* n : {"gpu.block_x", "gpu.block_y", "gpu.block_z", "gpu.thread_x",
                        "gpu.thread_y", "gpu.thread_z", "gpu.vthread"}) {
    names.push_back(n);
  }
  for (int i = 0; i < kIntensitySamples; ++i) {
    names.push_back("intensity." + std::to_string(i));
  }
  for (int b = 0; b < kNumBufferSlots; ++b) {
    std::string prefix = "buf" + std::to_string(b) + ".";
    for (const char* n : {"read", "write", "rw", "bytes", "unique_bytes", "lines",
                          "unique_lines", "reuse_loop", "reuse_serial", "reuse_none",
                          "reuse_dist_iters", "reuse_dist_bytes", "reuse_counter", "stride",
                          "bytes_per_reuse", "unique_bytes_per_reuse", "lines_per_reuse",
                          "unique_lines_per_reuse"}) {
      names.push_back(prefix + n);
    }
  }
  for (const char* n : {"alloc.output_bytes", "alloc.count", "outer_loops", "iters",
                        "auto_unroll_max_step", "is_reduction", "num_buffers",
                        "output_rank"}) {
    names.push_back(n);
  }
  return names;
}

}  // namespace

const std::vector<std::string>& FeatureNames() {
  static const std::vector<std::string> names = BuildFeatureNames();
  return names;
}

size_t FeatureDim() { return FeatureNames().size(); }

FeatureMatrix ExtractFeatures(const LoweredProgram& program) {
  if (!program.ok) {
    return FeatureMatrix();
  }
  return FeatureBuilder(program).Run();
}

FeatureMatrix ExtractStateFeatures(const State& state) {
  LoweredProgram program = Lower(state);
  if (!program.ok) {
    return FeatureMatrix();
  }
  return ExtractFeatures(program);
}

}  // namespace ansor
