// Operations and tensors: the nodes of a computation definition.
//
// A Placeholder op declares an input buffer; a Compute op defines each output
// element as an expression of its space axes (plus reduction axes inside a
// Reduce body). Each op produces exactly one buffer.
#ifndef ANSOR_SRC_EXPR_OPERATION_H_
#define ANSOR_SRC_EXPR_OPERATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/expr/expr.h"

namespace ansor {

enum class OpKind { kPlaceholder, kCompute };

struct Operation {
  OpKind kind = OpKind::kPlaceholder;
  BufferRef output;

  // kCompute only: one Var per output dimension (var_extent = shape dim).
  std::vector<Expr> axis;
  // kCompute only: the element expression; a Reduce node at the top level
  // expresses reductions (its reduce_axes carry the reduction domain).
  Expr body;

  const std::string& name() const { return output->name; }

  // Reduction axes of the body (empty for non-reduction ops).
  std::vector<Expr> ReduceAxes() const;

  // All buffers read by this op's body (deduplicated, in first-use order).
  std::vector<BufferRef> InputBuffers() const;
};
using OperationRef = std::shared_ptr<const Operation>;

// A handle pairing an operation with its output buffer. Calling the tensor
// with index expressions produces a Load, which is how computation bodies
// reference their inputs.
class Tensor {
 public:
  Tensor() = default;
  Tensor(OperationRef op, BufferRef buffer) : op_(std::move(op)), buffer_(std::move(buffer)) {}

  bool defined() const { return op_ != nullptr; }
  const OperationRef& op() const { return op_; }
  const BufferRef& buffer() const { return buffer_; }
  const std::string& name() const { return buffer_->name; }
  const std::vector<int64_t>& shape() const { return buffer_->shape; }
  int ndim() const { return static_cast<int>(buffer_->shape.size()); }

  Expr operator()(std::vector<Expr> indices) const { return Load(buffer_, std::move(indices)); }

  template <typename... Args>
  Expr operator()(Args... args) const {
    return Load(buffer_, std::vector<Expr>{Expr(args)...});
  }

 private:
  OperationRef op_;
  BufferRef buffer_;
};

// Declares an input tensor.
Tensor Placeholder(const std::string& name, std::vector<int64_t> shape);

// Declares a constant input tensor (inference weights): the compiler may
// rewrite its layout to match the tile structure (paper §4.2 layout rewrite).
Tensor ConstantPlaceholder(const std::string& name, std::vector<int64_t> shape);

// Defines a computed tensor. The callback receives one space-axis Var per
// output dimension and returns the element expression.
Tensor Compute(const std::string& name, std::vector<int64_t> shape,
               const std::function<Expr(const std::vector<Expr>&)>& fn);

// Rebuilds a compute op with a new name/body/axes (used by schedule steps
// that introduce cache or rfactor stages).
Tensor MakeComputeOp(const std::string& name, std::vector<int64_t> shape,
                     std::vector<Expr> axis, Expr body);

// The two ops a cache_write of compute op `op` makes (paper rule 5): `cache`,
// named `<op>.cache`, carries op's body on fresh axis vars; `consumer` is op
// (same buffer and axes) rewritten to copy the cache element-wise.
struct CacheWriteOps {
  OperationRef cache;
  OperationRef consumer;
};
CacheWriteOps MakeCacheWriteOps(const Operation& op);

// `consumer` with every load of `producer`'s buffer replaced by producer's
// body, its axis vars bound to the load's indices (compute_inline). Returns
// `consumer` itself when its body reads no such load.
OperationRef InlineProducer(const Operation& producer, const OperationRef& consumer);

}  // namespace ansor

#endif  // ANSOR_SRC_EXPR_OPERATION_H_
