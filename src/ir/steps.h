// Transform steps: the replayable rewriting history of a program (paper §5.1,
// "Node-based crossover": "The genes of a program in Ansor are its rewriting
// steps").
//
// A program state is fully determined by (ComputeDAG, step list). The sampler
// rewrites pending tile sizes inside SplitSteps and replays; the evolutionary
// operators mutate step parameters or merge per-stage step subsets from two
// parents, then replay and verify.
#ifndef ANSOR_SRC_IR_STEPS_H_
#define ANSOR_SRC_IR_STEPS_H_

#include <string>
#include <vector>

#include "src/ir/iterator.h"

namespace ansor {

enum class StepKind {
  kSplit,
  kFollowSplit,
  kFuse,
  kReorder,
  kComputeAt,
  kComputeInline,
  kComputeRoot,
  kCacheWrite,
  kRfactor,
  kAnnotation,
  kPragma,
};

// A single rewriting step. We use one plain struct with a kind discriminator
// (rather than a class hierarchy) so steps are trivially copyable, hashable
// and mutable by the evolutionary operators.
struct Step {
  StepKind kind = StepKind::kSplit;

  // Target stage, identified by op name (stable across stage insertions).
  std::string stage;

  // kSplit / kFollowSplit / kAnnotation / kRfactor: iterator position at
  // application time.
  int iter = -1;

  // kSplit: inner lengths, outermost first; the outer extent is inferred as
  // ceil(extent / prod(lengths)). Length 1 entries act as "pending" tile
  // levels that the annotation sampler later fills in.
  std::vector<int64_t> lengths;

  // kFollowSplit: index (into the step list) of the source SplitStep whose
  // lengths this split mirrors, and the number of parts to produce.
  int src_step = -1;
  int n_parts = 0;

  // kFuse: number of consecutive iterators to fuse starting at `iter`.
  int fuse_count = 0;

  // kReorder: permutation of the stage's iterator indices.
  std::vector<int> order;

  // kComputeAt: consumer stage and iterator position within it.
  std::string target_stage;
  int target_iter = -1;

  // kAnnotation
  IterAnnotation annotation = IterAnnotation::kNone;

  // kPragma: auto_unroll_max_step value.
  int pragma_value = 0;

  // Appends the step's canonical text, e.g. "split(C, iter=0, lengths=[4,2])",
  // to *out. These bytes are the program's identity: StepSignature
  // concatenates them to key the program cache and the record and artifact
  // stores, so any change to them re-keys every persisted store. Built with
  // plain appends (no stream), because a signature is taken on every cache
  // lookup.
  void AppendTo(std::string* out) const;
  std::string ToString() const;
};

// Step factory helpers (purely for readability at call sites).
Step MakeSplitStep(const std::string& stage, int iter, std::vector<int64_t> lengths);
Step MakeFollowSplitStep(const std::string& stage, int iter, int src_step, int n_parts);
Step MakeFuseStep(const std::string& stage, int iter, int fuse_count);
Step MakeReorderStep(const std::string& stage, std::vector<int> order);
Step MakeComputeAtStep(const std::string& stage, const std::string& target_stage,
                       int target_iter);
Step MakeComputeInlineStep(const std::string& stage);
Step MakeComputeRootStep(const std::string& stage);
Step MakeCacheWriteStep(const std::string& stage);
Step MakeRfactorStep(const std::string& stage, int iter);
Step MakeAnnotationStep(const std::string& stage, int iter, IterAnnotation ann);
Step MakePragmaStep(const std::string& stage, int auto_unroll_max_step);

}  // namespace ansor

#endif  // ANSOR_SRC_IR_STEPS_H_
