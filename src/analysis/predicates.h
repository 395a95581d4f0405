// Static analysis predicates from paper Table 1.
//
// "We statically analyze the computation definitions to get the values for
// these predications." The sketch-generation rules consult these to decide
// which derivation applies at each node.
#ifndef ANSOR_SRC_ANALYSIS_PREDICATES_H_
#define ANSOR_SRC_ANALYSIS_PREDICATES_H_

#include <vector>

#include "src/ir/state.h"

namespace ansor {

// Consumer stage indices for each stage in the state's current DAG view
// (which may contain cache/rfactor stages absent from the original DAG).
// Inlined stages do not count as consumers.
std::vector<std::vector<int>> StateConsumers(const State& state);

// The node is a simple element-wise operator that can always be inlined
// (element-wise add, ReLU, ...): no reduction, every input read with plain
// axis-variable indices, and it has at least one consumer.
bool IsStrictInlinable(const State& state, int stage_idx);

// The node is compute-intensive with plentiful data-reuse opportunity
// (matmul, conv2d): it has a reduction domain of meaningful size.
bool HasDataReuse(const State& state, int stage_idx);

// The node has exactly one consumer, and that consumer reads it with identity
// indices so it can be fused (matmul + bias_add, conv2d + relu). Returns the
// consumer stage index via *consumer when true.
bool HasFusibleConsumer(const State& state, int stage_idx, int* consumer = nullptr);

// Little space parallelism but ample reduction parallelism (matrix 2-norm,
// tall-skinny matmul): rfactor candidates.
bool HasMoreReductionParallel(const State& state, int stage_idx);

// Space / reduction domain sizes of a stage's op.
int64_t SpaceDomainSize(const Stage& stage);
int64_t ReductionDomainSize(const Stage& stage);

// Floating point operations executed by one full evaluation of this stage.
double StageFlopCount(const Stage& stage);

}  // namespace ansor

#endif  // ANSOR_SRC_ANALYSIS_PREDICATES_H_
