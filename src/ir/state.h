// Program state: a loop-nest schedule for a ComputeDAG plus the replayable
// step history that produced it (paper §4, §5.1).
//
// A State owns its own view of the operation list because schedule steps can
// rewrite the DAG (cache-write and rfactor insert new stages; inlining
// rewrites consumer bodies) — paper §2: "some optimization needs to add new
// nodes to the computational graph". The view holds immutable, shared ops: a
// cache-write of a reduction or an inline applied to ops the DAG still owns
// takes the DAG's precomputed rewrite (ComputeDAG::SharedCacheWrite /
// SharedInline), so every replay of a step list shares those ops; a step on
// an op this State already rewrote, and every rfactor, builds a private op.
//
// The loop structure itself is plain data. Split and fuse append integer
// relations over iterator ids to the stage's record and build no expression;
// the loop variables and axis reconstructions that lowering needs are derived
// from that record by DeriveStageExprs (src/ir/stage_exprs.h) once per
// program build. The search replays step lists for every mutation, crossover
// and random sample, and most replayed programs are never lowered.
#ifndef ANSOR_SRC_IR_STATE_H_
#define ANSOR_SRC_IR_STATE_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/dag/compute_dag.h"
#include "src/ir/steps.h"

namespace ansor {

enum class ComputeLocKind { kRoot, kInlined, kAt };

struct StageLoc {
  ComputeLocKind kind = ComputeLocKind::kRoot;
  std::string at_stage;  // meaningful for kAt
  int at_iter = -1;      // meaningful for kAt
};

struct Stage {
  OperationRef op;
  std::vector<Iterator> iters;
  StageLoc loc;
  // The stage's split/fuse history over iterator ids, in application order
  // (see IterRelation): one kAxis entry per original axis, then the entries
  // of each split and fuse. Cleared with the iterators when the stage's op is
  // rewritten.
  std::vector<IterRelation> relations;
  // Original axis var id -> axis extent.
  std::unordered_map<int64_t, int64_t> axis_extent;
  // Axes whose reconstruction can overflow the extent (non-exact splits);
  // lowering emits a guard for them.
  std::unordered_set<int64_t> guarded_axes;
  int auto_unroll_max_step = 0;

  const std::string& name() const { return op->name(); }
  int FindIter(const std::string& iter_name) const;
};

class State {
 public:
  State() = default;
  // Initial state: the naive program (one stage per compute op, loops in
  // definition order: space axes then reduce axes).
  explicit State(const ComputeDAG* dag);

  const ComputeDAG* dag() const { return dag_; }

  // States normally borrow the DAG from their search task. When a state
  // escapes that scope (e.g. the best program returned from a tuning run),
  // the owner stamps shared ownership here so the DAG outlives the task.
  void RetainDag(std::shared_ptr<const ComputeDAG> owner) {
    dag_owner_ = std::move(owner);
    if (dag_owner_ != nullptr) {
      dag_ = dag_owner_.get();
    }
  }
  const std::vector<Stage>& stages() const { return stages_; }
  std::vector<Stage>& stages() { return stages_; }
  const std::vector<Step>& steps() const { return steps_; }
  std::vector<Step>& steps() { return steps_; }

  int StageIndex(const std::string& name) const;
  const Stage& stage(int index) const { return stages_[static_cast<size_t>(index)]; }

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  // --- Schedule primitives (record a step and apply it) ---------------------
  // All primitives return false (setting error()) instead of aborting on
  // invalid input so that evolutionary search can discard invalid offspring,
  // mirroring Ansor's replay-and-verify crossover.

  // Splits iterator `iter` of `stage` into 1 + lengths.size() parts.
  bool Split(const std::string& stage, int iter, const std::vector<int64_t>& lengths);
  // Splits using lengths mirrored from a previous SplitStep (paper rule 4's
  // consumer tiling must track the producer's tile sizes).
  bool FollowSplit(const std::string& stage, int iter, int src_step, int n_parts);
  bool Fuse(const std::string& stage, int first_iter, int count);
  bool Reorder(const std::string& stage, const std::vector<int>& order);
  bool ComputeAt(const std::string& stage, const std::string& target, int target_iter);
  bool ComputeInline(const std::string& stage);
  bool ComputeRoot(const std::string& stage);
  // Adds a cache-write stage `<stage>.cache`; returns its index via
  // *new_stage (may be null). Paper rule 5.
  bool CacheWrite(const std::string& stage, int* new_stage);
  // Factorizes reduction iterator `iter` (which must come from a prior 2-way
  // split of a single reduction axis) into a new stage `<stage>.rf`.
  // Paper rule 6.
  bool Rfactor(const std::string& stage, int iter, int* new_stage);
  bool Annotate(const std::string& stage, int iter, IterAnnotation ann);
  bool Pragma(const std::string& stage, int auto_unroll_max_step);

  // Replays a step list onto a fresh state for the DAG. Returns a state with
  // failed() set if any step is invalid (crossover verification).
  static State Replay(const ComputeDAG* dag, const std::vector<Step>& steps);

  // The canonical failed state: failed() set, empty step history. Search code
  // normalizes every invalid edit to this so a partially-replayed state can
  // never leak into a population or a measurement batch.
  static State Failure(const ComputeDAG* dag, std::string error);

  // Pretty-prints the loop structure (Figure 5 style).
  std::string ToString() const;

 private:
  bool ApplyStep(const Step& step);
  bool Fail(const std::string& message);

  bool ApplySplit(const Step& step, const std::vector<int64_t>& lengths);
  bool ApplyFuse(const Step& step);
  bool ApplyReorder(const Step& step);
  bool ApplyComputeAt(const Step& step);
  bool ApplyComputeInline(const Step& step);
  bool ApplyCacheWrite(const Step& step);
  bool ApplyRfactor(const Step& step);

  // Re-initializes a stage's iterators (with fresh ids) and its relation
  // record from its (possibly rewritten) op.
  void ResetStageIters(Stage* stage);

  const ComputeDAG* dag_ = nullptr;
  std::shared_ptr<const ComputeDAG> dag_owner_;
  std::vector<Stage> stages_;
  std::vector<Step> steps_;
  std::unordered_map<std::string, int> stage_index_;
  bool failed_ = false;
  std::string error_;
  int last_new_stage_ = -1;
  // Next Iterator::id to hand out.
  int next_iter_id_ = 0;
};

// Canonical signature of a state's step history: the concatenated step
// strings. The dedup key used by search, measurement bookkeeping, and the
// determinism tests.
std::string StepSignature(const State& state);
// The same signature computed from a bare step list (no State/DAG needed):
// the store layer's dedup key for persisted records and artifact snapshots.
// Identical to StepSignature(state) for state.steps() == steps.
std::string StepSignature(const std::vector<Step>& steps);

}  // namespace ansor

#endif  // ANSOR_SRC_IR_STATE_H_
