// Tensor expression language (paper §2, Figure 1).
//
// Computations are defined declaratively: an output tensor plus an expression
// for each of its elements, possibly containing reductions. Expressions are
// immutable DAG nodes shared via shared_ptr; the Expr wrapper provides
// operator overloading so definitions read like the math in the paper, e.g.
//
//   Tensor A = Placeholder("A", {n, k});
//   Tensor B = Placeholder("B", {k, m});
//   Tensor C = Compute("C", {n, m}, [&](const std::vector<Expr>& i) {
//     Var r = ReduceAxis(k, "k");
//     return Sum(A(i[0], r) * B(r, i[1]), {r});
//   });
#ifndef ANSOR_SRC_EXPR_EXPR_H_
#define ANSOR_SRC_EXPR_EXPR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/support/logging.h"

namespace ansor {

enum class ExprKind {
  kIntImm,
  kFloatImm,
  kVar,
  kBinary,
  kSelect,
  kCall,
  kLoad,
  kReduce,
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,       // float division / integer floor division depending on operand types
  kMod,       // integer modulo
  kMin,
  kMax,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

enum class ReduceKind { kSum, kMax, kMin };

// Intrinsic math calls recognized by the evaluator and the feature extractor.
enum class Intrinsic { kExp, kLog, kSqrt, kTanh, kSigmoid, kAbs, kErf };

struct ExprNode;
using ExprNodeRef = std::shared_ptr<const ExprNode>;

// A named multi-dimensional float buffer. Placeholders and compute ops each
// produce one buffer; Load nodes reference buffers directly.
struct Buffer {
  std::string name;
  std::vector<int64_t> shape;
  // Constant tensors (inference weights) may have their layout rewritten
  // freely by the compiler (paper §4.2).
  bool is_constant = false;

  int64_t NumElements() const {
    int64_t n = 1;
    for (int64_t d : shape) {
      n *= d;
    }
    return n;
  }
};
using BufferRef = std::shared_ptr<const Buffer>;

// Value-semantics handle around an immutable expression node.
class Expr {
 public:
  Expr() = default;
  explicit Expr(ExprNodeRef node) : node_(std::move(node)) {}
  // Implicit conversions from literals keep computation definitions terse.
  Expr(int v);        // NOLINT(google-explicit-constructor)
  Expr(int64_t v);    // NOLINT(google-explicit-constructor)
  Expr(double v);     // NOLINT(google-explicit-constructor)

  bool defined() const { return node_ != nullptr; }
  const ExprNode* get() const { return node_.get(); }
  const ExprNode* operator->() const { return node_.get(); }
  ExprNodeRef node() const { return node_; }

  ExprKind kind() const;

 private:
  ExprNodeRef node_;
};

struct ExprNode {
  ExprKind kind;

  // kIntImm / kFloatImm
  int64_t int_value = 0;
  double float_value = 0.0;

  // kVar
  std::string var_name;
  int64_t var_id = -1;
  int64_t var_extent = -1;  // loop extent for axis vars, -1 when unknown

  // kBinary
  BinaryOp binary_op = BinaryOp::kAdd;

  // kCall
  Intrinsic intrinsic = Intrinsic::kExp;

  // kSelect: operands = {cond, true_value, false_value}
  // kBinary: operands = {lhs, rhs}
  // kCall:   operands = args
  // kLoad:   operands = indices
  // kReduce: operands = {source} (+ optional init as operands[1])
  std::vector<Expr> operands;

  // kLoad
  BufferRef buffer;

  // kReduce
  ReduceKind reduce_kind = ReduceKind::kSum;
  std::vector<Expr> reduce_axes;  // Var exprs carrying extents
};

// --- Constructors -----------------------------------------------------------

Expr IntImm(int64_t v);
Expr FloatImm(double v);

// Fresh variable with a process-unique id. extent < 0 means "unknown".
Expr MakeVar(const std::string& name, int64_t extent = -1);

// Reduction axis variable: a Var that carries its domain extent.
Expr ReduceAxis(int64_t extent, const std::string& name);

Expr Binary(BinaryOp op, Expr a, Expr b);
Expr Select(Expr cond, Expr true_value, Expr false_value);
Expr CallIntrinsic(Intrinsic fn, std::vector<Expr> args);
Expr Load(BufferRef buffer, std::vector<Expr> indices);
Expr Reduce(ReduceKind kind, Expr source, std::vector<Expr> axes, Expr init = Expr());

Expr Sum(Expr source, std::vector<Expr> axes);
Expr MaxReduce(Expr source, std::vector<Expr> axes);

// --- Operators ---------------------------------------------------------------

Expr operator+(Expr a, Expr b);
Expr operator-(Expr a, Expr b);
Expr operator*(Expr a, Expr b);
Expr operator/(Expr a, Expr b);
Expr operator%(Expr a, Expr b);
Expr operator<(Expr a, Expr b);
Expr operator<=(Expr a, Expr b);
Expr operator>(Expr a, Expr b);
Expr operator>=(Expr a, Expr b);
Expr operator==(Expr a, Expr b);
Expr operator!=(Expr a, Expr b);
Expr operator&&(Expr a, Expr b);
Expr operator||(Expr a, Expr b);
Expr Min(Expr a, Expr b);
Expr Max(Expr a, Expr b);

// --- Utilities ---------------------------------------------------------------

// Human-readable rendering of an expression.
std::string ToString(const Expr& e);

// Structural hash / equality. Variables compare by identity (var_id).
uint64_t StructuralHash(const Expr& e);
bool StructuralEqual(const Expr& a, const Expr& b);

// Copy-on-write rewrite, pre-order: a node for which `visit` returns a
// defined Expr is replaced by it (its subtree is not visited); otherwise its
// operands are rewritten. A node is copied only when an operand changed, and
// every unchanged subtree is returned as the same pointer, so callers detect
// "nothing changed" by pointer identity.
Expr Rewrite(const Expr& e, const std::function<Expr(const ExprNode&)>& visit);

// Variable substitution: replaces each Var for which `lookup` returns a
// defined Expr. A Rewrite that visits only Vars.
Expr Substitute(const Expr& e, const std::function<Expr(const ExprNode&)>& lookup);

// Collects every Load node in the expression tree (pre-order).
void CollectLoads(const Expr& e, std::vector<const ExprNode*>* loads);

// Collects distinct variable ids appearing in the expression.
void CollectVars(const Expr& e, std::vector<const ExprNode*>* vars);

// True if the expression contains a Reduce node.
bool HasReduce(const Expr& e);

}  // namespace ansor

#endif  // ANSOR_SRC_EXPR_EXPR_H_
