// The lowered program representation: a tree of concrete loops, guards and
// buffer store statements.
//
// Lowering turns a schedule State into this tree; the interpreter (src/exec)
// executes it to verify functional correctness, and the feature extractor
// (src/features) and hardware simulator (src/hwsim) walk it to characterize
// performance. This is the "complete program" of paper §4 — every sampled
// program is lowered before measurement.
#ifndef ANSOR_SRC_LOWER_LOOP_TREE_H_
#define ANSOR_SRC_LOWER_LOOP_TREE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/state.h"

namespace ansor {

enum class LoopTreeKind { kLoop, kIf, kStore };

struct LoopTreeNode;
using LoopTreeNodeRef = std::unique_ptr<LoopTreeNode>;

struct LoopTreeNode {
  LoopTreeKind kind = LoopTreeKind::kLoop;

  // kLoop
  Expr var;  // loop variable (Var expression)
  int64_t extent = 0;
  IterAnnotation annotation = IterAnnotation::kNone;
  IterKind iter_kind = IterKind::kSpace;

  // kIf
  Expr condition;

  // kStore (leaf)
  BufferRef buffer;
  std::vector<Expr> indices;
  Expr value;
  bool is_accumulate = false;  // accumulate into buffer via reduce_kind
  ReduceKind reduce_kind = ReduceKind::kSum;
  bool is_init = false;        // reduction initialization store

  // Owning stage (set on every node for features/simulation).
  std::string stage_name;
  int auto_unroll_max_step = 0;

  std::vector<LoopTreeNodeRef> children;
};

struct LoweredProgram {
  bool ok = false;
  std::string error;
  // Top-level sequence (one or two nests per root stage).
  std::vector<LoopTreeNodeRef> roots;
  // Every buffer the program touches (placeholders, stage outputs, cache and
  // rfactor temporaries), keyed by name.
  std::unordered_map<std::string, BufferRef> buffers;
  // Buffers that are DAG outputs.
  std::vector<std::string> output_buffers;

  std::string ToString() const;
};

struct StageExprs;

// Lowers a schedule state. On failure (e.g. an unsupported compute_at
// placement produced by a mutation) returns ok=false with an error message;
// the search treats such programs as failed measurements. Loop variables and
// index expressions come from DeriveScheduleExprs(state) (src/ir/
// stage_exprs.h); the second form takes a derivation the caller already made
// (a program build shares one with VerifyProgram).
LoweredProgram Lower(const State& state);
LoweredProgram Lower(const State& state, const std::vector<StageExprs>& exprs);

}  // namespace ansor

#endif  // ANSOR_SRC_LOWER_LOOP_TREE_H_
