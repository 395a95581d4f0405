// ComputeDAG: a computation definition as a directed acyclic graph of
// operations (paper §2, §4.1 first column of Figure 5).
//
// The DAG is the unit of optimization: the sketch generator walks its nodes,
// the task scheduler deduplicates subgraphs by canonical hash, and the naive
// executor provides the functional ground truth that every scheduled program
// must reproduce.
//
// A DAG is immutable once constructed: no member rewrites its ops (schedule
// steps that add stages or inline bodies rewrite a State's own op list, never
// the DAG's). So the canonical hash is computed once, in the constructor, and
// CanonicalHash() is a field read; copies carry the same value.
//
// The constructor also precomputes the rewrites that schedule steps apply to
// the DAG's own ops: each reduction op's cache_write pair and, for each
// non-reduction producer, each consumer with that producer inlined. They are
// immutable ops shared by every State that applies the step to an op the DAG
// still owns, so replaying a step list does not rebuild their expression
// trees, and any number of threads may read them without a lock. A step on an
// op a State has already rewritten builds its own result (State::Apply*).
#ifndef ANSOR_SRC_DAG_COMPUTE_DAG_H_
#define ANSOR_SRC_DAG_COMPUTE_DAG_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/expr/operation.h"

namespace ansor {

class ComputeDAG {
 public:
  ComputeDAG() = default;
  // Builds the DAG from the full tensor list (inputs, intermediates and
  // outputs, in any order). Operations are topologically sorted so producers
  // precede consumers.
  explicit ComputeDAG(const std::vector<Tensor>& tensors);

  const std::vector<OperationRef>& ops() const { return ops_; }
  int num_ops() const { return static_cast<int>(ops_.size()); }

  const OperationRef& op(int index) const { return ops_[static_cast<size_t>(index)]; }

  // Index of the op producing the named buffer; -1 if absent.
  int OpIndexOf(const std::string& buffer_name) const;

  // Indices of ops that read the output of op `index`.
  const std::vector<int>& ConsumersOf(int index) const;

  // Indices of placeholder ops / non-consumed compute ops.
  std::vector<int> InputIndices() const;
  std::vector<int> OutputIndices() const;

  // Total floating point operations for one full evaluation.
  double FlopCount() const;

  // Executes the computation naively (full domains, topological order).
  // `inputs` provides placeholder data; every placeholder must be present and
  // correctly sized. Returns storage for every buffer in the DAG.
  std::unordered_map<std::string, std::vector<float>> Execute(
      const std::unordered_map<std::string, std::vector<float>>& inputs) const;

  // Generates deterministic pseudo-random input data for all placeholders.
  std::unordered_map<std::string, std::vector<float>> RandomInputs(uint64_t seed = 42) const;

  // Canonical structural hash: identical computation definitions hash equal
  // regardless of variable identities or buffer names (task deduplication,
  // paper §6: "A subgraph can also appear multiple times"). It keys every
  // program-cache lookup and every persisted record, so it is cached at
  // construction rather than recomputed per call.
  uint64_t CanonicalHash() const { return canonical_hash_; }

  std::string ToString() const;

  // The precomputed cache_write pair of `op` when `op` is this DAG's own
  // reduction op; nullptr otherwise (MakeCacheWriteOps builds one).
  const CacheWriteOps* SharedCacheWrite(const OperationRef& op) const;
  // `consumer` with `producer` inlined when both are this DAG's own ops and
  // `producer` is a non-reduction producer of `consumer`; nullptr otherwise
  // (InlineProducer builds one).
  const OperationRef* SharedInline(const OperationRef& producer,
                                   const OperationRef& consumer) const;

 private:
  // The hash of an op-free DAG: what a default-constructed DAG reports.
  static constexpr uint64_t kEmptyCanonicalHash = 0xabcdef123456ULL;
  static uint64_t ComputeCanonicalHash(const std::vector<OperationRef>& ops);

  std::vector<OperationRef> ops_;
  std::unordered_map<std::string, int> op_index_;
  std::vector<std::vector<int>> consumers_;
  // Per op: its cache_write pair (empty unless the op is a reduction).
  std::vector<CacheWriteOps> cache_writes_;
  // Per op, aligned with consumers_: each consumer with the op inlined (empty
  // for placeholders and reductions).
  std::vector<std::vector<OperationRef>> inlined_consumers_;
  uint64_t canonical_hash_ = kEmptyCanonicalHash;
};

// Counts floating-point operations performed per evaluation of `e`
// (reductions multiply by their domain size).
double ExprFlopCount(const Expr& e);

}  // namespace ansor

#endif  // ANSOR_SRC_DAG_COMPUTE_DAG_H_
