#include <gtest/gtest.h>

#include "src/dag/compute_dag.h"
#include "tests/testing.h"

namespace ansor {
namespace {

TEST(ComputeDAG, TopologicalOrder) {
  ComputeDAG dag = testing::MatmulRelu();
  ASSERT_EQ(dag.num_ops(), 4);
  // Placeholders first (producers precede consumers).
  int ia = dag.OpIndexOf("A");
  int ib = dag.OpIndexOf("B");
  int ic = dag.OpIndexOf("C");
  int id = dag.OpIndexOf("D");
  EXPECT_LT(ia, ic);
  EXPECT_LT(ib, ic);
  EXPECT_LT(ic, id);
}

TEST(ComputeDAG, ConsumersAndOutputs) {
  ComputeDAG dag = testing::MatmulRelu();
  int ic = dag.OpIndexOf("C");
  int id = dag.OpIndexOf("D");
  ASSERT_EQ(dag.ConsumersOf(ic).size(), 1u);
  EXPECT_EQ(dag.ConsumersOf(ic)[0], id);
  EXPECT_TRUE(dag.ConsumersOf(id).empty());
  auto outputs = dag.OutputIndices();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0], id);
  EXPECT_EQ(dag.InputIndices().size(), 2u);
}

TEST(ComputeDAG, FlopCountMatmul) {
  // 16x16x16 matmul: per output element, 16 multiplies + 16 adds = 32 flops,
  // 256 elements -> 8192. The relu adds 256 more.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  EXPECT_DOUBLE_EQ(dag.FlopCount(), 16.0 * 16 * 16 * 2 + 16.0 * 16);
}

TEST(ComputeDAG, ExecuteMatmulCorrect) {
  ComputeDAG dag = testing::MatmulRelu(4, 3, 5);
  auto inputs = dag.RandomInputs(1);
  auto result = dag.Execute(inputs);
  const auto& a = inputs.at("A");
  const auto& b = inputs.at("B");
  const auto& c = result.at("C");
  const auto& d = result.at("D");
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) {
      float expect = 0.0f;
      for (int k = 0; k < 5; ++k) {
        expect += a[i * 5 + k] * b[k * 3 + j];
      }
      EXPECT_NEAR(c[i * 3 + j], expect, 1e-4);
      EXPECT_NEAR(d[i * 3 + j], std::max(expect, 0.0f), 1e-4);
    }
  }
}

TEST(ComputeDAG, ExecutePaddedWorkload) {
  ComputeDAG dag = testing::ReluPadMatmul(4, 2, 8, 6);
  auto inputs = dag.RandomInputs(2);
  auto result = dag.Execute(inputs);
  const auto& c = result.at("C");
  // Padded region must be exactly zero.
  for (int i = 0; i < 4; ++i) {
    for (int k = 6; k < 8; ++k) {
      EXPECT_EQ(c[i * 8 + k], 0.0f);
    }
  }
  // Valid region must be relu(A).
  const auto& a = inputs.at("A");
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 6; ++k) {
      EXPECT_NEAR(c[i * 8 + k], std::max(a[i * 6 + k], 0.0f), 1e-6);
    }
  }
}

TEST(ComputeDAG, CanonicalHashEqualForIdenticalDefinitions) {
  ComputeDAG a = testing::MatmulRelu(8, 8, 8);
  ComputeDAG b = testing::MatmulRelu(8, 8, 8);
  EXPECT_EQ(a.CanonicalHash(), b.CanonicalHash());
}

TEST(ComputeDAG, CanonicalHashIsComputedOnceAndCarriedByCopies) {
  ComputeDAG original = testing::Matmul(16, 16, 16);
  ComputeDAG copy = original;
  ComputeDAG assigned;
  assigned = original;
  ComputeDAG fresh = testing::Matmul(16, 16, 16);
  EXPECT_EQ(copy.CanonicalHash(), original.CanonicalHash());
  EXPECT_EQ(assigned.CanonicalHash(), original.CanonicalHash());
  EXPECT_EQ(fresh.CanonicalHash(), original.CanonicalHash());
  // Persisted records are keyed by this value: it must not drift.
  EXPECT_EQ(original.CanonicalHash(), 0x3edd8b87e84f61ULL) << std::hex << "0x" << original.CanonicalHash();
  // A default-constructed DAG reports the hash of an empty op list.
  EXPECT_EQ(ComputeDAG().CanonicalHash(), 0xabcdef123456ULL);
}

TEST(ComputeDAG, CanonicalHashDiffersForDifferentShapes) {
  ComputeDAG a = testing::MatmulRelu(8, 8, 8);
  ComputeDAG b = testing::MatmulRelu(8, 8, 16);
  EXPECT_NE(a.CanonicalHash(), b.CanonicalHash());
}

TEST(ComputeDAG, CanonicalHashDiffersForDifferentBodies) {
  ComputeDAG a = testing::Matmul(8, 8, 8);
  ComputeDAG b = testing::MatmulRelu(8, 8, 8);
  EXPECT_NE(a.CanonicalHash(), b.CanonicalHash());
}

TEST(ComputeDAG, MissingProducerIsFatal) {
  Tensor a = Placeholder("A", {4});
  Tensor b = Compute("B", {4}, [&](const std::vector<Expr>& i) {
    return a(i[0]) + FloatImm(1.0);
  });
  // Omit A from the tensor list: the DAG cannot resolve the producer.
  EXPECT_DEATH({ ComputeDAG dag({b}); }, "missing producer");
}

TEST(ComputeDAG, ToStringMentionsOps) {
  ComputeDAG dag = testing::MatmulRelu();
  std::string s = dag.ToString();
  EXPECT_NE(s.find("placeholder"), std::string::npos);
  EXPECT_NE(s.find("C["), std::string::npos);
}

TEST(ExprFlopCountTest, CountsReductionDomain) {
  ComputeDAG dag = testing::MatrixNorm(4, 32);
  // S: 4 outputs x 32 iterations x (1 mul + 1 add) = 256; N: 4 sqrt = 4.
  EXPECT_DOUBLE_EQ(dag.FlopCount(), 4.0 * 32 * 2 + 4.0);
}

}  // namespace
}  // namespace ansor
