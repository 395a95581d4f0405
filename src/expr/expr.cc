#include "src/expr/expr.h"

#include <atomic>
#include <sstream>
#include <unordered_map>

#include "src/support/util.h"

namespace ansor {
namespace {

std::atomic<int64_t> g_var_counter{0};

std::shared_ptr<ExprNode> NewNode(ExprKind kind) {
  auto node = std::make_shared<ExprNode>();
  node->kind = kind;
  return node;
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kMin: return "min";
    case BinaryOp::kMax: return "max";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

const char* IntrinsicName(Intrinsic fn) {
  switch (fn) {
    case Intrinsic::kExp: return "exp";
    case Intrinsic::kLog: return "log";
    case Intrinsic::kSqrt: return "sqrt";
    case Intrinsic::kTanh: return "tanh";
    case Intrinsic::kSigmoid: return "sigmoid";
    case Intrinsic::kAbs: return "abs";
    case Intrinsic::kErf: return "erf";
  }
  return "?";
}

}  // namespace

Expr::Expr(int v) : node_(IntImm(v).node()) {}
Expr::Expr(int64_t v) : node_(IntImm(v).node()) {}
Expr::Expr(double v) : node_(FloatImm(v).node()) {}

ExprKind Expr::kind() const {
  CHECK(node_ != nullptr) << "kind() on undefined Expr";
  return node_->kind;
}

Expr IntImm(int64_t v) {
  auto node = NewNode(ExprKind::kIntImm);
  node->int_value = v;
  return Expr(node);
}

Expr FloatImm(double v) {
  auto node = NewNode(ExprKind::kFloatImm);
  node->float_value = v;
  return Expr(node);
}

Expr MakeVar(const std::string& name, int64_t extent) {
  auto node = NewNode(ExprKind::kVar);
  node->var_name = name;
  node->var_id = g_var_counter.fetch_add(1);
  node->var_extent = extent;
  return Expr(node);
}

Expr ReduceAxis(int64_t extent, const std::string& name) {
  CHECK_GT(extent, 0);
  return MakeVar(name, extent);
}

Expr Binary(BinaryOp op, Expr a, Expr b) {
  CHECK(a.defined() && b.defined());
  auto node = NewNode(ExprKind::kBinary);
  node->binary_op = op;
  node->operands = {std::move(a), std::move(b)};
  return Expr(node);
}

Expr Select(Expr cond, Expr true_value, Expr false_value) {
  CHECK(cond.defined() && true_value.defined() && false_value.defined());
  auto node = NewNode(ExprKind::kSelect);
  node->operands = {std::move(cond), std::move(true_value), std::move(false_value)};
  return Expr(node);
}

Expr CallIntrinsic(Intrinsic fn, std::vector<Expr> args) {
  auto node = NewNode(ExprKind::kCall);
  node->intrinsic = fn;
  node->operands = std::move(args);
  return Expr(node);
}

Expr Load(BufferRef buffer, std::vector<Expr> indices) {
  CHECK(buffer != nullptr);
  CHECK_EQ(buffer->shape.size(), indices.size())
      << "rank mismatch loading from " << buffer->name;
  auto node = NewNode(ExprKind::kLoad);
  node->buffer = std::move(buffer);
  node->operands = std::move(indices);
  return Expr(node);
}

Expr Reduce(ReduceKind kind, Expr source, std::vector<Expr> axes, Expr init) {
  CHECK(source.defined());
  CHECK(!axes.empty());
  for (const Expr& axis : axes) {
    CHECK(axis.kind() == ExprKind::kVar && axis->var_extent > 0)
        << "reduce axis must be a Var with a known extent";
  }
  auto node = NewNode(ExprKind::kReduce);
  node->reduce_kind = kind;
  node->operands.push_back(std::move(source));
  if (init.defined()) {
    node->operands.push_back(std::move(init));
  }
  node->reduce_axes = std::move(axes);
  return Expr(node);
}

Expr Sum(Expr source, std::vector<Expr> axes) {
  return Reduce(ReduceKind::kSum, std::move(source), std::move(axes));
}

Expr MaxReduce(Expr source, std::vector<Expr> axes) {
  return Reduce(ReduceKind::kMax, std::move(source), std::move(axes));
}

Expr operator+(Expr a, Expr b) { return Binary(BinaryOp::kAdd, std::move(a), std::move(b)); }
Expr operator-(Expr a, Expr b) { return Binary(BinaryOp::kSub, std::move(a), std::move(b)); }
Expr operator*(Expr a, Expr b) { return Binary(BinaryOp::kMul, std::move(a), std::move(b)); }
Expr operator/(Expr a, Expr b) { return Binary(BinaryOp::kDiv, std::move(a), std::move(b)); }
Expr operator%(Expr a, Expr b) { return Binary(BinaryOp::kMod, std::move(a), std::move(b)); }
Expr operator<(Expr a, Expr b) { return Binary(BinaryOp::kLt, std::move(a), std::move(b)); }
Expr operator<=(Expr a, Expr b) { return Binary(BinaryOp::kLe, std::move(a), std::move(b)); }
Expr operator>(Expr a, Expr b) { return Binary(BinaryOp::kGt, std::move(a), std::move(b)); }
Expr operator>=(Expr a, Expr b) { return Binary(BinaryOp::kGe, std::move(a), std::move(b)); }
Expr operator==(Expr a, Expr b) { return Binary(BinaryOp::kEq, std::move(a), std::move(b)); }
Expr operator!=(Expr a, Expr b) { return Binary(BinaryOp::kNe, std::move(a), std::move(b)); }
Expr operator&&(Expr a, Expr b) { return Binary(BinaryOp::kAnd, std::move(a), std::move(b)); }
Expr operator||(Expr a, Expr b) { return Binary(BinaryOp::kOr, std::move(a), std::move(b)); }
Expr Min(Expr a, Expr b) { return Binary(BinaryOp::kMin, std::move(a), std::move(b)); }
Expr Max(Expr a, Expr b) { return Binary(BinaryOp::kMax, std::move(a), std::move(b)); }

std::string ToString(const Expr& e) {
  if (!e.defined()) {
    return "<undef>";
  }
  const ExprNode& n = *e.get();
  std::ostringstream os;
  switch (n.kind) {
    case ExprKind::kIntImm:
      os << n.int_value;
      break;
    case ExprKind::kFloatImm:
      os << n.float_value << "f";
      break;
    case ExprKind::kVar:
      os << n.var_name;
      break;
    case ExprKind::kBinary: {
      const char* name = BinaryOpName(n.binary_op);
      if (n.binary_op == BinaryOp::kMin || n.binary_op == BinaryOp::kMax) {
        os << name << "(" << ToString(n.operands[0]) << ", " << ToString(n.operands[1]) << ")";
      } else {
        os << "(" << ToString(n.operands[0]) << " " << name << " " << ToString(n.operands[1])
           << ")";
      }
      break;
    }
    case ExprKind::kSelect:
      os << "select(" << ToString(n.operands[0]) << ", " << ToString(n.operands[1]) << ", "
         << ToString(n.operands[2]) << ")";
      break;
    case ExprKind::kCall: {
      os << IntrinsicName(n.intrinsic) << "(";
      for (size_t i = 0; i < n.operands.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        os << ToString(n.operands[i]);
      }
      os << ")";
      break;
    }
    case ExprKind::kLoad: {
      os << n.buffer->name << "[";
      for (size_t i = 0; i < n.operands.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        os << ToString(n.operands[i]);
      }
      os << "]";
      break;
    }
    case ExprKind::kReduce: {
      switch (n.reduce_kind) {
        case ReduceKind::kSum: os << "sum"; break;
        case ReduceKind::kMax: os << "max"; break;
        case ReduceKind::kMin: os << "min"; break;
      }
      os << "(" << ToString(n.operands[0]) << ", axes=[";
      for (size_t i = 0; i < n.reduce_axes.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        os << n.reduce_axes[i]->var_name << ":" << n.reduce_axes[i]->var_extent;
      }
      os << "])";
      break;
    }
  }
  return os.str();
}

uint64_t StructuralHash(const Expr& e) {
  if (!e.defined()) {
    return 0;
  }
  const ExprNode& n = *e.get();
  uint64_t h = static_cast<uint64_t>(n.kind) * 1000003ULL;
  switch (n.kind) {
    case ExprKind::kIntImm:
      HashCombine(&h, static_cast<uint64_t>(n.int_value));
      break;
    case ExprKind::kFloatImm:
      HashCombine(&h, std::hash<double>()(n.float_value));
      break;
    case ExprKind::kVar:
      HashCombine(&h, static_cast<uint64_t>(n.var_id));
      break;
    case ExprKind::kBinary:
      HashCombine(&h, static_cast<uint64_t>(n.binary_op));
      break;
    case ExprKind::kCall:
      HashCombine(&h, static_cast<uint64_t>(n.intrinsic));
      break;
    case ExprKind::kLoad:
      HashCombine(&h, std::hash<std::string>()(n.buffer->name));
      break;
    case ExprKind::kReduce:
      HashCombine(&h, static_cast<uint64_t>(n.reduce_kind));
      for (const Expr& axis : n.reduce_axes) {
        HashCombine(&h, StructuralHash(axis));
      }
      break;
    default:
      break;
  }
  for (const Expr& operand : n.operands) {
    HashCombine(&h, StructuralHash(operand));
  }
  return h;
}

bool StructuralEqual(const Expr& a, const Expr& b) {
  if (a.get() == b.get()) {
    return true;
  }
  if (!a.defined() || !b.defined()) {
    return false;
  }
  const ExprNode& na = *a.get();
  const ExprNode& nb = *b.get();
  if (na.kind != nb.kind || na.operands.size() != nb.operands.size()) {
    return false;
  }
  switch (na.kind) {
    case ExprKind::kIntImm:
      if (na.int_value != nb.int_value) return false;
      break;
    case ExprKind::kFloatImm:
      if (na.float_value != nb.float_value) return false;
      break;
    case ExprKind::kVar:
      return na.var_id == nb.var_id;
    case ExprKind::kBinary:
      if (na.binary_op != nb.binary_op) return false;
      break;
    case ExprKind::kCall:
      if (na.intrinsic != nb.intrinsic) return false;
      break;
    case ExprKind::kLoad:
      if (na.buffer->name != nb.buffer->name) return false;
      break;
    case ExprKind::kReduce:
      if (na.reduce_kind != nb.reduce_kind ||
          na.reduce_axes.size() != nb.reduce_axes.size()) {
        return false;
      }
      for (size_t i = 0; i < na.reduce_axes.size(); ++i) {
        if (!StructuralEqual(na.reduce_axes[i], nb.reduce_axes[i])) {
          return false;
        }
      }
      break;
    default:
      break;
  }
  for (size_t i = 0; i < na.operands.size(); ++i) {
    if (!StructuralEqual(na.operands[i], nb.operands[i])) {
      return false;
    }
  }
  return true;
}

Expr Rewrite(const Expr& e, const std::function<Expr(const ExprNode&)>& visit) {
  if (!e.defined()) {
    return e;
  }
  const ExprNode& n = *e.get();
  Expr replaced = visit(n);
  if (replaced.defined()) {
    return replaced;
  }
  // Copy-on-write: the node is copied on its first changed operand, and an
  // unchanged subtree comes back as the same pointer.
  std::shared_ptr<ExprNode> copy;
  for (size_t i = 0; i < n.operands.size(); ++i) {
    Expr operand = Rewrite(n.operands[i], visit);
    if (operand.get() == n.operands[i].get()) {
      continue;
    }
    if (copy == nullptr) {
      copy = std::make_shared<ExprNode>(n);
    }
    copy->operands[i] = std::move(operand);
  }
  return copy == nullptr ? e : Expr(std::move(copy));
}

Expr Substitute(const Expr& e, const std::function<Expr(const ExprNode&)>& lookup) {
  return Rewrite(e, [&](const ExprNode& n) {
    return n.kind == ExprKind::kVar ? lookup(n) : Expr();
  });
}

void CollectLoads(const Expr& e, std::vector<const ExprNode*>* loads) {
  if (!e.defined()) {
    return;
  }
  const ExprNode& n = *e.get();
  if (n.kind == ExprKind::kLoad) {
    loads->push_back(&n);
  }
  for (const Expr& operand : n.operands) {
    CollectLoads(operand, loads);
  }
}

void CollectVars(const Expr& e, std::vector<const ExprNode*>* vars) {
  if (!e.defined()) {
    return;
  }
  const ExprNode& n = *e.get();
  if (n.kind == ExprKind::kVar) {
    for (const ExprNode* existing : *vars) {
      if (existing->var_id == n.var_id) {
        return;
      }
    }
    vars->push_back(&n);
    return;
  }
  for (const Expr& operand : n.operands) {
    CollectVars(operand, vars);
  }
}

bool HasReduce(const Expr& e) {
  if (!e.defined()) {
    return false;
  }
  if (e.kind() == ExprKind::kReduce) {
    return true;
  }
  for (const Expr& operand : e->operands) {
    if (HasReduce(operand)) {
      return true;
    }
  }
  return false;
}

}  // namespace ansor
