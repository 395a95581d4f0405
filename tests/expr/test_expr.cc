#include <gtest/gtest.h>

#include "src/expr/affine.h"
#include "src/expr/eval.h"
#include "src/expr/expr.h"
#include "src/expr/operation.h"

namespace ansor {
namespace {

TEST(Expr, LiteralsAndOperators) {
  Expr e = IntImm(2) + IntImm(3) * IntImm(4);
  EvalContext ctx;
  EXPECT_EQ(Evaluate(e, &ctx).AsInt(), 14);
}

TEST(Expr, FloorDivAndMod) {
  EvalContext ctx;
  EXPECT_EQ(Evaluate(IntImm(7) / IntImm(2), &ctx).AsInt(), 3);
  EXPECT_EQ(Evaluate(IntImm(-7) / IntImm(2), &ctx).AsInt(), -4);
  EXPECT_EQ(Evaluate(IntImm(7) % IntImm(3), &ctx).AsInt(), 1);
  EXPECT_EQ(Evaluate(IntImm(-7) % IntImm(3), &ctx).AsInt(), 2);
}

TEST(Expr, MinMaxSelect) {
  EvalContext ctx;
  EXPECT_EQ(Evaluate(Min(IntImm(3), IntImm(5)), &ctx).AsInt(), 3);
  EXPECT_EQ(Evaluate(Max(IntImm(3), IntImm(5)), &ctx).AsInt(), 5);
  Expr s = Select(IntImm(1) < IntImm(2), FloatImm(1.5), FloatImm(2.5));
  EXPECT_DOUBLE_EQ(Evaluate(s, &ctx).AsFloat(), 1.5);
}

TEST(Expr, SelectIsLazy) {
  // The untaken branch must not be evaluated (it reads out of bounds).
  auto buffer = std::make_shared<Buffer>();
  buffer->name = "T";
  buffer->shape = {2};
  std::vector<float> data = {1.0f, 2.0f};
  EvalContext ctx;
  ctx.buffers["T"] = &data;
  Expr bad = Load(buffer, {IntImm(5)});
  Expr ok = Load(buffer, {IntImm(1)});
  Expr s = Select(IntImm(0) == IntImm(0), ok, bad);
  EXPECT_FLOAT_EQ(Evaluate(s, &ctx).AsFloat(), 2.0f);
}

TEST(Expr, VarBindingAndFreshIds) {
  Expr x = MakeVar("x");
  Expr y = MakeVar("x");  // same name, distinct identity
  EXPECT_NE(x->var_id, y->var_id);
  EvalContext ctx;
  ctx.vars[x->var_id] = 3;
  ctx.vars[y->var_id] = 4;
  EXPECT_EQ(Evaluate(x * y, &ctx).AsInt(), 12);
}

TEST(Expr, Intrinsics) {
  EvalContext ctx;
  EXPECT_NEAR(Evaluate(CallIntrinsic(Intrinsic::kSqrt, {FloatImm(9.0)}), &ctx).AsFloat(), 3.0,
              1e-12);
  EXPECT_NEAR(Evaluate(CallIntrinsic(Intrinsic::kSigmoid, {FloatImm(0.0)}), &ctx).AsFloat(),
              0.5, 1e-12);
  EXPECT_NEAR(Evaluate(CallIntrinsic(Intrinsic::kExp, {FloatImm(1.0)}), &ctx).AsFloat(),
              2.718281828, 1e-6);
}

TEST(Expr, ReduceSum) {
  Expr k = ReduceAxis(5, "k");
  Expr body = Sum(Expr(k) * Expr(k), {k});
  EvalContext ctx;
  EXPECT_DOUBLE_EQ(Evaluate(body, &ctx).AsFloat(), 0 + 1 + 4 + 9 + 16);
}

TEST(Expr, ReduceMaxMultiAxis) {
  Expr i = ReduceAxis(3, "i");
  Expr j = ReduceAxis(4, "j");
  Expr body = MaxReduce(Expr(i) * IntImm(10) + Expr(j), {i, j});
  EvalContext ctx;
  EXPECT_DOUBLE_EQ(Evaluate(body, &ctx).AsFloat(), 23.0);
}

TEST(Expr, SubstituteReplacesVars) {
  Expr x = MakeVar("x");
  Expr e = Expr(x) * IntImm(2) + IntImm(1);
  int64_t id = x->var_id;
  Expr sub = Substitute(e, [&](const ExprNode& var) {
    return var.var_id == id ? Expr(IntImm(10)) : Expr();
  });
  EvalContext ctx;
  EXPECT_EQ(Evaluate(sub, &ctx).AsInt(), 21);
}

TEST(Expr, SubstituteSharesUnchangedNodes) {
  Expr x = MakeVar("x");
  Expr e = IntImm(1) + IntImm(2);
  Expr sub = Substitute(e, [](const ExprNode&) { return Expr(); });
  EXPECT_EQ(sub.get(), e.get());
}

TEST(Expr, PartialSubstituteSharesUntouchedSiblings) {
  Expr x = MakeVar("x");
  Expr y = MakeVar("y");
  Expr left = x * IntImm(4) + y;     // holds the substituted var
  Expr right = (y + IntImm(3)) * y;  // untouched
  Expr e = Select(left < IntImm(8), left, right);
  int64_t id = x->var_id;
  Expr sub = Substitute(e, [&](const ExprNode& var) {
    return var.var_id == id ? Expr(IntImm(1)) : Expr();
  });
  ASSERT_NE(sub.get(), e.get());
  // The untouched operand and every untouched node below a changed one come
  // back as the same pointer; only the path to `x` is copied.
  EXPECT_EQ(sub->operands[2].get(), right.get());
  const Expr& new_left = sub->operands[1];
  ASSERT_NE(new_left.get(), left.get());
  EXPECT_EQ(new_left->operands[1].get(), y.get());
  EXPECT_EQ(new_left->operands[0]->operands[1].get(), left->operands[0]->operands[1].get());
  EXPECT_EQ(new_left->operands[0]->operands[0]->int_value, 1);
  // The original is unchanged.
  EXPECT_EQ(left->operands[0]->operands[0].get(), x.get());
  EvalContext ctx;
  ctx.vars[y->var_id] = 2;
  EXPECT_EQ(Evaluate(sub, &ctx).AsInt(), 6);  // 1 * 4 + 2 < 8
}

TEST(Expr, RewriteReplacesWholeSubtreesAndSharesTheRest) {
  Tensor a = Placeholder("A", {4});
  Tensor b = Placeholder("B", {4});
  Expr i = MakeVar("i", 4);
  Expr load_a = a(i);
  Expr load_b = b(i);
  Expr e = load_a * load_b + load_b;
  Expr rewritten = Rewrite(e, [&](const ExprNode& n) {
    return n.kind == ExprKind::kLoad && n.buffer->name == "A" ? Expr(FloatImm(2.0)) : Expr();
  });
  ASSERT_NE(rewritten.get(), e.get());
  EXPECT_EQ(rewritten->operands[1].get(), load_b.get());
  EXPECT_EQ(rewritten->operands[0]->operands[0]->float_value, 2.0);
  EXPECT_EQ(rewritten->operands[0]->operands[1].get(), load_b.get());
  // A rewrite that matches nothing returns the input pointer itself.
  Expr same = Rewrite(e, [](const ExprNode&) { return Expr(); });
  EXPECT_EQ(same.get(), e.get());
}

TEST(Expr, StructuralHashEqual) {
  Expr x = MakeVar("x");
  Expr a = Expr(x) + IntImm(1);
  Expr b = Expr(x) + IntImm(1);
  EXPECT_TRUE(StructuralEqual(a, b));
  EXPECT_EQ(StructuralHash(a), StructuralHash(b));
  Expr c = Expr(x) + IntImm(2);
  EXPECT_FALSE(StructuralEqual(a, c));
}

TEST(Expr, CollectLoadsAndVars) {
  Tensor a = Placeholder("A", {4, 4});
  Expr x = MakeVar("x");
  Expr e = a(x, IntImm(0)) + a(x, IntImm(1)) * Expr(x);
  std::vector<const ExprNode*> loads;
  CollectLoads(e, &loads);
  EXPECT_EQ(loads.size(), 2u);
  std::vector<const ExprNode*> vars;
  CollectVars(e, &vars);
  EXPECT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0]->var_id, x->var_id);
}

TEST(Expr, ToStringReadable) {
  Tensor a = Placeholder("A", {4});
  Expr x = MakeVar("x");
  Expr e = a(x) * FloatImm(2.0);
  std::string s = ToString(e);
  EXPECT_NE(s.find("A[x]"), std::string::npos);
}

TEST(Affine, SimpleForms) {
  Expr x = MakeVar("x");
  Expr y = MakeVar("y");
  AffineForm f = AnalyzeAffine(Expr(x) * IntImm(3) + Expr(y) + IntImm(7));
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.CoeffOf(x->var_id), 3);
  EXPECT_EQ(f.CoeffOf(y->var_id), 1);
  EXPECT_EQ(f.constant, 7);
}

TEST(Affine, SubtractionAndNestedMul) {
  Expr x = MakeVar("x");
  AffineForm f = AnalyzeAffine(IntImm(10) - Expr(x) * IntImm(2));
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.CoeffOf(x->var_id), -2);
  EXPECT_EQ(f.constant, 10);
}

TEST(Affine, NonAffineRejected) {
  Expr x = MakeVar("x");
  EXPECT_FALSE(AnalyzeAffine(Expr(x) * Expr(x)).valid);
  EXPECT_FALSE(AnalyzeAffine(Expr(x) / IntImm(2)).valid);
  EXPECT_FALSE(AnalyzeAffine(Min(Expr(x), IntImm(3))).valid);
}

TEST(Operation, ComputeBuildsAxes) {
  Tensor a = Placeholder("A", {3, 5});
  Tensor b = Compute("B", {3, 5}, [&](const std::vector<Expr>& i) {
    return a(i[0], i[1]) + FloatImm(1.0);
  });
  EXPECT_EQ(b.op()->axis.size(), 2u);
  EXPECT_EQ(b.op()->axis[0]->var_extent, 3);
  EXPECT_EQ(b.op()->axis[1]->var_extent, 5);
  auto inputs = b.op()->InputBuffers();
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0]->name, "A");
}

TEST(Operation, ReduceAxesExposed) {
  Tensor a = Placeholder("A", {3, 5});
  Tensor s = Compute("S", {3}, [&](const std::vector<Expr>& i) {
    Expr k = ReduceAxis(5, "k");
    return Sum(a(i[0], k), {k});
  });
  auto reduce_axes = s.op()->ReduceAxes();
  ASSERT_EQ(reduce_axes.size(), 1u);
  EXPECT_EQ(reduce_axes[0]->var_extent, 5);
}

TEST(Buffer, NumElements) {
  Buffer b;
  b.shape = {2, 3, 4};
  EXPECT_EQ(b.NumElements(), 24);
}

TEST(FlattenIndexTest, RowMajor) {
  EXPECT_EQ(FlattenIndex({1, 2}, {3, 4}), 6);
  EXPECT_EQ(FlattenIndex({0, 0}, {3, 4}), 0);
  EXPECT_EQ(FlattenIndex({2, 3}, {3, 4}), 11);
}

}  // namespace
}  // namespace ansor
