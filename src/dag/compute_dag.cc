#include "src/dag/compute_dag.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "src/expr/eval.h"
#include "src/support/rng.h"
#include "src/support/util.h"

namespace ansor {
namespace {

double BodyFlopCount(const Expr& e) {
  if (!e.defined()) {
    return 0.0;
  }
  const ExprNode& n = *e.get();
  double count = 0.0;
  switch (n.kind) {
    case ExprKind::kBinary:
      // Comparisons and boolean ops on floats count as one op; integer index
      // arithmetic does not count as a float op. We approximate by counting
      // every binary node that has a float subtree.
      count = 1.0;
      break;
    case ExprKind::kCall:
      count = 1.0;
      break;
    case ExprKind::kSelect:
      count = 1.0;
      break;
    case ExprKind::kReduce: {
      double domain = 1.0;
      for (const Expr& axis : n.reduce_axes) {
        domain *= static_cast<double>(axis->var_extent);
      }
      double inner = BodyFlopCount(n.operands[0]);
      // One combine op per reduction element.
      return domain * (inner + 1.0);
    }
    case ExprKind::kLoad:
      // Index arithmetic is integer address computation, not float work.
      return 0.0;
    default:
      break;
  }
  for (const Expr& operand : n.operands) {
    count += BodyFlopCount(operand);
  }
  return count;
}

// Canonical hashing helper: maps var ids and buffer names to dense indices in
// first-visit order so that structurally identical DAGs hash identically.
struct Canonicalizer {
  std::unordered_map<int64_t, int64_t> var_ids;
  std::unordered_map<std::string, int64_t> buffer_ids;

  int64_t VarId(int64_t id) {
    auto [it, inserted] = var_ids.try_emplace(id, static_cast<int64_t>(var_ids.size()));
    return it->second;
  }
  int64_t BufferId(const std::string& name) {
    auto [it, inserted] =
        buffer_ids.try_emplace(name, static_cast<int64_t>(buffer_ids.size()));
    return it->second;
  }

  void HashExpr(const Expr& e, uint64_t* h) {
    const ExprNode& n = *e.get();
    HashCombine(h, static_cast<uint64_t>(n.kind) + 17);
    switch (n.kind) {
      case ExprKind::kIntImm:
        HashCombine(h, static_cast<uint64_t>(n.int_value));
        break;
      case ExprKind::kFloatImm:
        HashCombine(h, std::hash<double>()(n.float_value));
        break;
      case ExprKind::kVar:
        HashCombine(h, static_cast<uint64_t>(VarId(n.var_id)));
        HashCombine(h, static_cast<uint64_t>(n.var_extent));
        break;
      case ExprKind::kBinary:
        HashCombine(h, static_cast<uint64_t>(n.binary_op));
        break;
      case ExprKind::kCall:
        HashCombine(h, static_cast<uint64_t>(n.intrinsic));
        break;
      case ExprKind::kLoad:
        HashCombine(h, static_cast<uint64_t>(BufferId(n.buffer->name)));
        break;
      case ExprKind::kReduce:
        HashCombine(h, static_cast<uint64_t>(n.reduce_kind));
        for (const Expr& axis : n.reduce_axes) {
          HashExpr(axis, h);
        }
        break;
      default:
        break;
    }
    for (const Expr& operand : n.operands) {
      HashExpr(operand, h);
    }
  }
};

}  // namespace

double ExprFlopCount(const Expr& e) { return BodyFlopCount(e); }

ComputeDAG::ComputeDAG(const std::vector<Tensor>& tensors) {
  // Collect unique operations keyed by output buffer name.
  std::unordered_map<std::string, OperationRef> by_name;
  std::vector<std::string> order;
  for (const Tensor& t : tensors) {
    CHECK(t.defined());
    if (by_name.try_emplace(t.name(), t.op()).second) {
      order.push_back(t.name());
    }
  }

  // Topological sort (DFS from every node; producers first).
  std::unordered_set<std::string> visiting;
  std::unordered_set<std::string> done;
  std::vector<OperationRef> sorted;
  std::function<void(const std::string&)> visit = [&](const std::string& name) {
    if (done.count(name) > 0) {
      return;
    }
    CHECK_EQ(visiting.count(name), 0u) << "cycle through " << name;
    visiting.insert(name);
    auto it = by_name.find(name);
    CHECK(it != by_name.end()) << "tensor list is missing producer of " << name
                               << "; pass every tensor to ComputeDAG";
    for (const BufferRef& input : it->second->InputBuffers()) {
      visit(input->name);
    }
    visiting.erase(name);
    done.insert(name);
    sorted.push_back(it->second);
  };
  for (const std::string& name : order) {
    visit(name);
  }
  ops_ = std::move(sorted);

  for (size_t i = 0; i < ops_.size(); ++i) {
    op_index_[ops_[i]->name()] = static_cast<int>(i);
  }
  consumers_.assign(ops_.size(), {});
  for (size_t i = 0; i < ops_.size(); ++i) {
    for (const BufferRef& input : ops_[i]->InputBuffers()) {
      auto it = op_index_.find(input->name);
      CHECK(it != op_index_.end());
      consumers_[static_cast<size_t>(it->second)].push_back(static_cast<int>(i));
    }
  }
  canonical_hash_ = ComputeCanonicalHash(ops_);

  cache_writes_.resize(ops_.size());
  inlined_consumers_.resize(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Operation& op = *ops_[i];
    if (op.kind != OpKind::kCompute) {
      continue;
    }
    // Only a reduction is worth a cache stage (sketch rule 5 requires data
    // reuse), so only reductions get a shared pair; building one for every
    // elementwise op as well doubled the cost of this precompute.
    if (HasReduce(op.body)) {
      cache_writes_[i] = MakeCacheWriteOps(op);
      continue;
    }
    for (int consumer : consumers_[i]) {
      inlined_consumers_[i].push_back(InlineProducer(op, ops_[static_cast<size_t>(consumer)]));
    }
  }
}

const CacheWriteOps* ComputeDAG::SharedCacheWrite(const OperationRef& op) const {
  int index = OpIndexOf(op->name());
  if (index < 0 || ops_[static_cast<size_t>(index)] != op) {
    return nullptr;
  }
  const CacheWriteOps& ops = cache_writes_[static_cast<size_t>(index)];
  return ops.cache != nullptr ? &ops : nullptr;
}

const OperationRef* ComputeDAG::SharedInline(const OperationRef& producer,
                                             const OperationRef& consumer) const {
  int p = OpIndexOf(producer->name());
  int c = OpIndexOf(consumer->name());
  if (p < 0 || c < 0 || ops_[static_cast<size_t>(p)] != producer ||
      ops_[static_cast<size_t>(c)] != consumer) {
    return nullptr;
  }
  const std::vector<int>& consumers = consumers_[static_cast<size_t>(p)];
  const std::vector<OperationRef>& inlined = inlined_consumers_[static_cast<size_t>(p)];
  for (size_t k = 0; k < inlined.size(); ++k) {
    if (consumers[k] == c) {
      return &inlined[k];
    }
  }
  return nullptr;
}

int ComputeDAG::OpIndexOf(const std::string& buffer_name) const {
  auto it = op_index_.find(buffer_name);
  return it == op_index_.end() ? -1 : it->second;
}

const std::vector<int>& ComputeDAG::ConsumersOf(int index) const {
  return consumers_[static_cast<size_t>(index)];
}

std::vector<int> ComputeDAG::InputIndices() const {
  std::vector<int> result;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i]->kind == OpKind::kPlaceholder) {
      result.push_back(static_cast<int>(i));
    }
  }
  return result;
}

std::vector<int> ComputeDAG::OutputIndices() const {
  std::vector<int> result;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i]->kind == OpKind::kCompute && consumers_[i].empty()) {
      result.push_back(static_cast<int>(i));
    }
  }
  return result;
}

double ComputeDAG::FlopCount() const {
  double total = 0.0;
  for (const OperationRef& op : ops_) {
    if (op->kind != OpKind::kCompute) {
      continue;
    }
    total += static_cast<double>(op->output->NumElements()) * BodyFlopCount(op->body);
  }
  return total;
}

std::unordered_map<std::string, std::vector<float>> ComputeDAG::Execute(
    const std::unordered_map<std::string, std::vector<float>>& inputs) const {
  std::unordered_map<std::string, std::vector<float>> storage;
  EvalContext ctx;
  for (const OperationRef& op : ops_) {
    const std::string& name = op->name();
    if (op->kind == OpKind::kPlaceholder) {
      auto it = inputs.find(name);
      CHECK(it != inputs.end()) << "missing input for placeholder " << name;
      CHECK_EQ(static_cast<int64_t>(it->second.size()), op->output->NumElements());
      storage[name] = it->second;
      ctx.buffers[name] = &storage[name];
      continue;
    }
    std::vector<float> out(static_cast<size_t>(op->output->NumElements()), 0.0f);
    const std::vector<int64_t>& shape = op->output->shape;
    std::vector<int64_t> point(shape.size(), 0);
    int64_t total = op->output->NumElements();
    for (int64_t flat = 0; flat < total; ++flat) {
      for (size_t d = 0; d < shape.size(); ++d) {
        ctx.vars[op->axis[d]->var_id] = point[d];
      }
      out[static_cast<size_t>(flat)] = static_cast<float>(EvaluateFloat(op->body, &ctx));
      // Row-major odometer increment.
      for (size_t d = shape.size(); d > 0; --d) {
        if (++point[d - 1] < shape[d - 1]) {
          break;
        }
        point[d - 1] = 0;
      }
    }
    for (size_t d = 0; d < shape.size(); ++d) {
      ctx.vars.erase(op->axis[d]->var_id);
    }
    storage[name] = std::move(out);
    ctx.buffers[name] = &storage[name];
  }
  return storage;
}

std::unordered_map<std::string, std::vector<float>> ComputeDAG::RandomInputs(
    uint64_t seed) const {
  std::unordered_map<std::string, std::vector<float>> inputs;
  Rng rng(seed);
  for (const OperationRef& op : ops_) {
    if (op->kind != OpKind::kPlaceholder) {
      continue;
    }
    std::vector<float> data(static_cast<size_t>(op->output->NumElements()));
    for (float& v : data) {
      v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    inputs[op->name()] = std::move(data);
  }
  return inputs;
}

uint64_t ComputeDAG::ComputeCanonicalHash(const std::vector<OperationRef>& ops) {
  Canonicalizer canon;
  uint64_t h = kEmptyCanonicalHash;
  for (const OperationRef& op : ops) {
    HashCombine(&h, static_cast<uint64_t>(op->kind));
    HashCombine(&h, static_cast<uint64_t>(canon.BufferId(op->name())));
    for (int64_t d : op->output->shape) {
      HashCombine(&h, static_cast<uint64_t>(d));
    }
    if (op->kind == OpKind::kCompute) {
      for (const Expr& axis : op->axis) {
        HashCombine(&h, static_cast<uint64_t>(canon.VarId(axis->var_id)));
      }
      canon.HashExpr(op->body, &h);
    }
  }
  return h;
}

std::string ComputeDAG::ToString() const {
  std::ostringstream os;
  for (const OperationRef& op : ops_) {
    if (op->kind == OpKind::kPlaceholder) {
      os << op->name() << " = placeholder([" << Join(op->output->shape, ", ") << "])\n";
    } else {
      os << op->name() << "[";
      for (size_t d = 0; d < op->axis.size(); ++d) {
        if (d > 0) {
          os << ", ";
        }
        os << op->axis[d]->var_name;
      }
      os << "] = " << ansor::ToString(op->body) << "\n";
    }
  }
  return os.str();
}

}  // namespace ansor
