// Iterators: the loop axes of a stage in the schedule IR.
//
// An iterator is plain data: a name, an extent, an annotation and an integer
// id unique within its State. It holds no expression. Its provenance is kept
// two ways: the original tensor axis it derives from with its stride within
// that axis (read by lowering to restrict producer loops under compute_at),
// and the stage's relation record (IterRelation, below), from which
// DeriveStageExprs (src/ir/stage_exprs.h) builds each iterator's loop Var and
// each original axis's reconstruction when a program is lowered.
#ifndef ANSOR_SRC_IR_ITERATOR_H_
#define ANSOR_SRC_IR_ITERATOR_H_

#include <cstdint>
#include <string>

namespace ansor {

enum class IterKind { kSpace, kReduce };

enum class IterAnnotation {
  kNone,
  kParallel,
  kVectorize,
  kUnroll,
  // GPU thread bindings.
  kBlockX,
  kThreadX,
  kVThread,
};

const char* IterAnnotationName(IterAnnotation ann);

struct Iterator {
  std::string name;
  int64_t extent = 0;
  IterKind kind = IterKind::kSpace;
  IterAnnotation annotation = IterAnnotation::kNone;
  // Identity within the State (never reused, not even across stages); the
  // stage's relation record refers to iterators by this id.
  int id = -1;
  // Original axis this iterator derives from (var_id of the compute op's axis
  // or reduce var); -1 when the iterator mixes several axes (fused).
  int64_t orig_axis_id = -1;
  // Multiplier of this iterator's value within the original axis; only
  // meaningful when orig_axis_id >= 0.
  int64_t stride = 1;
};

// One entry of a stage's split/fuse history over iterator ids (Stage::
// relations), appended in the order the steps apply. Reading the record
// backwards expresses every original axis over the current iterators:
//   kAxis:  original axis `axis_id` starts as iterator `over`.
//   kSplit: iterator `iter` gains the term `over * factor` (the term is
//           `over` itself when factor is 1). A split of `iter` into k parts
//           appends k consecutive entries, outermost part first, so `iter`
//           is `p0 * m0 + p1 * m1 + ... + pk`.
//   kFuse:  iterator `iter` is `(over / factor) % modulus` of the fused
//           iterator `over`; no division when factor is 1, no modulus when
//           modulus is 0 (the outermost component).
enum class IterRelationKind : uint8_t { kAxis, kSplit, kFuse };

struct IterRelation {
  IterRelationKind kind = IterRelationKind::kAxis;
  int iter = -1;
  int over = -1;
  int64_t axis_id = -1;
  int64_t factor = 1;
  int64_t modulus = 0;
};

}  // namespace ansor

#endif  // ANSOR_SRC_IR_ITERATOR_H_
