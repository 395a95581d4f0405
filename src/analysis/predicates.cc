#include "src/analysis/predicates.h"

#include <unordered_map>

namespace ansor {
namespace {

// HasDataReuse: minimum reduction-domain size for "plentiful data reuse".
constexpr int64_t kMinReuseReduction = 2;
// HasMoreReductionParallel: space parallelism at most this and ...
constexpr int64_t kMaxSpaceForRfactor = 256;
// ... reduction domain at least this many times larger than the space domain
// (paper: "little parallelism in space dimensions but ample parallelism in
// reduction dimensions", e.g. 2-norm, C_2x2 = A_2x512 B_512x2).
constexpr int64_t kMinReductionSpaceRatio = 16;

// True when every load in the body indexes purely with the op's own axis
// variables, in order (identity access).
bool AllLoadsIdentity(const OperationRef& op) {
  std::vector<const ExprNode*> loads;
  CollectLoads(op->body, &loads);
  for (const ExprNode* load : loads) {
    if (load->operands.size() != op->axis.size()) {
      return false;
    }
    for (size_t d = 0; d < op->axis.size(); ++d) {
      if (!StructuralEqual(load->operands[d], op->axis[d])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

std::vector<std::vector<int>> StateConsumers(const State& state) {
  std::unordered_map<std::string, int> index;
  for (size_t i = 0; i < state.stages().size(); ++i) {
    index[state.stages()[i].name()] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> consumers(state.stages().size());
  for (size_t i = 0; i < state.stages().size(); ++i) {
    const Stage& s = state.stages()[i];
    if (s.loc.kind == ComputeLocKind::kInlined) {
      continue;  // its body has been folded into consumers already
    }
    std::vector<const ExprNode*> loads;
    CollectLoads(s.op->body, &loads);
    std::unordered_map<int, bool> seen;
    for (const ExprNode* load : loads) {
      auto it = index.find(load->buffer->name);
      if (it != index.end() && !seen[it->second]) {
        seen[it->second] = true;
        consumers[static_cast<size_t>(it->second)].push_back(static_cast<int>(i));
      }
    }
  }
  return consumers;
}

int64_t SpaceDomainSize(const Stage& stage) {
  return stage.op->output->NumElements();
}

int64_t ReductionDomainSize(const Stage& stage) {
  int64_t domain = 1;
  for (const Expr& axis : stage.op->ReduceAxes()) {
    domain *= axis->var_extent;
  }
  return domain;
}

double StageFlopCount(const Stage& stage) {
  return static_cast<double>(SpaceDomainSize(stage)) * ExprFlopCount(stage.op->body);
}

bool IsStrictInlinable(const State& state, int stage_idx) {
  const Stage& s = state.stage(stage_idx);
  if (s.op->kind != OpKind::kCompute || HasReduce(s.op->body)) {
    return false;
  }
  if (!AllLoadsIdentity(s.op)) {
    return false;
  }
  auto consumers = StateConsumers(state);
  return !consumers[static_cast<size_t>(stage_idx)].empty();
}

bool HasDataReuse(const State& state, int stage_idx) {
  const Stage& s = state.stage(stage_idx);
  if (s.op->kind != OpKind::kCompute) {
    return false;
  }
  return ReductionDomainSize(s) >= kMinReuseReduction;
}

bool HasFusibleConsumer(const State& state, int stage_idx, int* consumer) {
  auto consumers = StateConsumers(state);
  const auto& list = consumers[static_cast<size_t>(stage_idx)];
  if (list.size() != 1) {
    return false;
  }
  const Stage& s = state.stage(stage_idx);
  const Stage& c = state.stage(list[0]);
  if (c.op->axis.size() != s.op->axis.size() || HasReduce(c.op->body)) {
    return false;
  }
  if (c.loc.kind != ComputeLocKind::kRoot) {
    return false;
  }
  // The consumer must read the producer with identity indices.
  std::vector<const ExprNode*> loads;
  CollectLoads(c.op->body, &loads);
  for (const ExprNode* load : loads) {
    if (load->buffer->name != s.name()) {
      continue;
    }
    for (size_t d = 0; d < c.op->axis.size(); ++d) {
      if (!StructuralEqual(load->operands[d], c.op->axis[d])) {
        return false;
      }
    }
  }
  if (consumer != nullptr) {
    *consumer = list[0];
  }
  return true;
}

bool HasMoreReductionParallel(const State& state, int stage_idx) {
  const Stage& s = state.stage(stage_idx);
  if (s.op->kind != OpKind::kCompute) {
    return false;
  }
  int64_t space = SpaceDomainSize(s);
  int64_t reduction = ReductionDomainSize(s);
  return space <= kMaxSpaceForRfactor && reduction >= space * kMinReductionSpaceRatio;
}

}  // namespace ansor
