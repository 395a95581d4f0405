#include "src/expr/operation.h"

#include <unordered_map>
#include <unordered_set>

namespace ansor {

std::vector<Expr> Operation::ReduceAxes() const {
  if (kind != OpKind::kCompute || !body.defined() || body.kind() != ExprKind::kReduce) {
    return {};
  }
  return body->reduce_axes;
}

std::vector<BufferRef> Operation::InputBuffers() const {
  std::vector<BufferRef> result;
  if (kind != OpKind::kCompute) {
    return result;
  }
  std::vector<const ExprNode*> loads;
  CollectLoads(body, &loads);
  std::unordered_set<std::string> seen;
  for (const ExprNode* load : loads) {
    if (seen.insert(load->buffer->name).second) {
      result.push_back(load->buffer);
    }
  }
  return result;
}

Tensor Placeholder(const std::string& name, std::vector<int64_t> shape) {
  auto buffer = std::make_shared<Buffer>();
  buffer->name = name;
  buffer->shape = std::move(shape);
  auto op = std::make_shared<Operation>();
  op->kind = OpKind::kPlaceholder;
  op->output = buffer;
  return Tensor(op, buffer);
}

Tensor ConstantPlaceholder(const std::string& name, std::vector<int64_t> shape) {
  Tensor t = Placeholder(name, std::move(shape));
  std::const_pointer_cast<Buffer>(t.buffer())->is_constant = true;
  return t;
}

Tensor Compute(const std::string& name, std::vector<int64_t> shape,
               const std::function<Expr(const std::vector<Expr>&)>& fn) {
  static const char* const kAxisNames[] = {"i", "j", "k", "l", "m", "n", "o", "p"};
  std::vector<Expr> axis;
  axis.reserve(shape.size());
  for (size_t d = 0; d < shape.size(); ++d) {
    CHECK_GT(shape[d], 0) << "dimension " << d << " of " << name << " must be positive";
    std::string axis_name =
        d < 8 ? std::string(kAxisNames[d]) : "ax" + std::to_string(d);
    axis.push_back(MakeVar(axis_name, shape[d]));
  }
  Expr body = fn(axis);
  CHECK(body.defined()) << "compute body for " << name << " is undefined";
  return MakeComputeOp(name, std::move(shape), std::move(axis), std::move(body));
}

Tensor MakeComputeOp(const std::string& name, std::vector<int64_t> shape,
                     std::vector<Expr> axis, Expr body) {
  CHECK_EQ(shape.size(), axis.size());
  auto buffer = std::make_shared<Buffer>();
  buffer->name = name;
  buffer->shape = std::move(shape);
  auto op = std::make_shared<Operation>();
  op->kind = OpKind::kCompute;
  op->output = buffer;
  op->axis = std::move(axis);
  op->body = std::move(body);
  return Tensor(op, buffer);
}

CacheWriteOps MakeCacheWriteOps(const Operation& op) {
  CHECK(op.kind == OpKind::kCompute);
  std::vector<Expr> cache_axis;
  std::unordered_map<int64_t, Expr> bindings;
  for (const Expr& axis : op.axis) {
    Expr v = MakeVar(axis->var_name, axis->var_extent);
    bindings[axis->var_id] = v;
    cache_axis.push_back(std::move(v));
  }
  Expr cache_body = Substitute(op.body, [&](const ExprNode& var) {
    auto it = bindings.find(var.var_id);
    return it == bindings.end() ? Expr() : it->second;
  });
  Tensor cache = MakeComputeOp(op.name() + ".cache", op.output->shape, std::move(cache_axis),
                               std::move(cache_body));
  auto consumer = std::make_shared<Operation>(op);
  consumer->body = Load(cache.buffer(), std::vector<Expr>(op.axis.begin(), op.axis.end()));
  return {cache.op(), std::move(consumer)};
}

OperationRef InlineProducer(const Operation& producer, const OperationRef& consumer) {
  const std::string& buffer_name = producer.name();
  Expr new_body = Rewrite(consumer->body, [&](const ExprNode& load) -> Expr {
    if (load.kind != ExprKind::kLoad || load.buffer->name != buffer_name) {
      return Expr();
    }
    std::unordered_map<int64_t, Expr> bindings;
    for (size_t d = 0; d < producer.axis.size(); ++d) {
      bindings[producer.axis[d]->var_id] = load.operands[d];
    }
    return Substitute(producer.body, [&](const ExprNode& var) {
      auto it = bindings.find(var.var_id);
      return it == bindings.end() ? Expr() : it->second;
    });
  });
  if (new_body.get() == consumer->body.get()) {
    return consumer;
  }
  auto inlined = std::make_shared<Operation>(*consumer);
  inlined->body = std::move(new_body);
  return inlined;
}

}  // namespace ansor
