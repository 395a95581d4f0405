#include <gtest/gtest.h>

#include "src/ir/steps.h"

namespace ansor {
namespace {

TEST(Steps, FactoryFillsFields) {
  Step s = MakeSplitStep("C", 1, {4, 2});
  EXPECT_EQ(s.kind, StepKind::kSplit);
  EXPECT_EQ(s.stage, "C");
  EXPECT_EQ(s.iter, 1);
  EXPECT_EQ(s.lengths, (std::vector<int64_t>{4, 2}));

  Step f = MakeFollowSplitStep("D", 0, 3, 2);
  EXPECT_EQ(f.kind, StepKind::kFollowSplit);
  EXPECT_EQ(f.src_step, 3);
  EXPECT_EQ(f.n_parts, 2);

  Step fuse = MakeFuseStep("C", 0, 4);
  EXPECT_EQ(fuse.fuse_count, 4);

  Step at = MakeComputeAtStep("C", "D", 3);
  EXPECT_EQ(at.target_stage, "D");
  EXPECT_EQ(at.target_iter, 3);

  Step ann = MakeAnnotationStep("C", 5, IterAnnotation::kVectorize);
  EXPECT_EQ(ann.annotation, IterAnnotation::kVectorize);

  Step pragma = MakePragmaStep("C", 16);
  EXPECT_EQ(pragma.pragma_value, 16);
}

TEST(Steps, ToStringIsInformative) {
  EXPECT_NE(MakeSplitStep("C", 1, {4, 2}).ToString().find("split(C"), std::string::npos);
  EXPECT_NE(MakeCacheWriteStep("C").ToString().find("cache_write"), std::string::npos);
  EXPECT_NE(MakeRfactorStep("C", 2).ToString().find("rfactor"), std::string::npos);
  EXPECT_NE(MakeReorderStep("C", {1, 0}).ToString().find("reorder"), std::string::npos);
}

// The canonical text of every step kind, byte for byte. These bytes are the
// program identity (StepSignature) that keys the program cache and every
// persisted record, so a change here silently re-keys existing stores.
TEST(Steps, ToStringPinsExactTextPerKind) {
  EXPECT_EQ(MakeSplitStep("C", 1, {4, 2}).ToString(), "split(C, iter=1, lengths=[4,2])");
  EXPECT_EQ(MakeSplitStep("C.cache", 0, {int64_t{1} << 40}).ToString(),
            "split(C.cache, iter=0, lengths=[1099511627776])");
  EXPECT_EQ(MakeFollowSplitStep("D", 0, 3, 2).ToString(),
            "follow_split(D, iter=0, src=3, parts=2)");
  EXPECT_EQ(MakeFuseStep("C", 0, 4).ToString(), "fuse(C, iter=0, count=4)");
  EXPECT_EQ(MakeReorderStep("C", {2, 0, 1}).ToString(), "reorder(C, order=[2,0,1])");
  EXPECT_EQ(MakeReorderStep("C", {}).ToString(), "reorder(C, order=[])");
  EXPECT_EQ(MakeComputeAtStep("C", "D", 3).ToString(), "compute_at(C, D, iter=3)");
  EXPECT_EQ(MakeComputeInlineStep("B").ToString(), "compute_inline(B)");
  EXPECT_EQ(MakeComputeRootStep("B").ToString(), "compute_root(B)");
  EXPECT_EQ(MakeCacheWriteStep("C").ToString(), "cache_write(C)");
  EXPECT_EQ(MakeRfactorStep("S", 2).ToString(), "rfactor(S, iter=2)");
  EXPECT_EQ(MakeAnnotationStep("C", 5, IterAnnotation::kVectorize).ToString(),
            "annotate(C, iter=5, vectorize)");
  EXPECT_EQ(MakeAnnotationStep("C", 0, IterAnnotation::kBlockX).ToString(),
            "annotate(C, iter=0, blockIdx.x)");
  EXPECT_EQ(MakePragmaStep("C", 16).ToString(), "pragma(C, auto_unroll_max_step=16)");
  // Field values a crafted record can carry still print as plain decimals.
  Step odd = MakeFollowSplitStep("D", -1, -7, 0);
  EXPECT_EQ(odd.ToString(), "follow_split(D, iter=-1, src=-7, parts=0)");
}

TEST(Steps, AppendToAppendsToExistingText) {
  std::string out = "prefix;";
  MakeSplitStep("C", 1, {4, 2}).AppendTo(&out);
  MakePragmaStep("C", 64).AppendTo(&out);
  EXPECT_EQ(out, "prefix;split(C, iter=1, lengths=[4,2])pragma(C, auto_unroll_max_step=64)");
}

TEST(Steps, AnnotationNames) {
  EXPECT_STREQ(IterAnnotationName(IterAnnotation::kParallel), "parallel");
  EXPECT_STREQ(IterAnnotationName(IterAnnotation::kVectorize), "vectorize");
  EXPECT_STREQ(IterAnnotationName(IterAnnotation::kUnroll), "unroll");
  EXPECT_STREQ(IterAnnotationName(IterAnnotation::kBlockX), "blockIdx.x");
  EXPECT_STREQ(IterAnnotationName(IterAnnotation::kThreadX), "threadIdx.x");
}

}  // namespace
}  // namespace ansor
