#include "src/sampler/annotation.h"

#include <algorithm>

#include "src/support/util.h"

namespace ansor {
namespace {

// Probability that a CPU stage's innermost loop is vectorized.
constexpr double kVectorizeProbability = 0.8;
// GPU: threadIdx.x extent candidates.
constexpr int64_t kThreadExtents[] = {32, 64, 128, 256, 512};
// Limit on sampled tile sizes for the innermost level (TVM's
// max_innermost_split_factor analogue).
constexpr int64_t kMaxInnermostFactor = 64;

}  // namespace

std::vector<int64_t> SampleFactorization(int64_t extent, int parts, Rng* rng,
                                         int64_t max_innermost_factor) {
  CHECK_GT(extent, 0);
  CHECK_GE(parts, 1);
  // Sample factors inner-to-outer so the product always divides the extent.
  std::vector<int64_t> lengths(static_cast<size_t>(parts), 1);
  int64_t remaining = extent;
  for (int p = parts - 1; p >= 0; --p) {
    std::vector<int64_t> divisors = Divisors(remaining);
    if (p == parts - 1 && max_innermost_factor > 0) {
      // Bound the innermost tile (register blocking size).
      while (divisors.size() > 1 && divisors.back() > max_innermost_factor) {
        divisors.pop_back();
      }
    }
    int64_t f = divisors[rng->Index(divisors.size())];
    lengths[static_cast<size_t>(p)] = f;
    remaining /= f;
  }
  return lengths;
}

State SampleTileSizes(const State& sketch, const ComputeDAG* dag, Rng* rng) {
  // Replay step-by-step, rewriting the lengths of every SplitStep according
  // to the extent of the iterator at application time.
  State state(dag);
  for (Step step : sketch.steps()) {
    if (step.kind == StepKind::kSplit) {
      int stage_idx = state.StageIndex(step.stage);
      if (stage_idx < 0 || step.iter < 0 ||
          step.iter >= static_cast<int>(state.stage(stage_idx).iters.size())) {
        State failed(dag);
        failed.Split("__invalid__", 0, {1});  // poison the state
        return failed;
      }
      int64_t extent = state.stage(stage_idx).iters[static_cast<size_t>(step.iter)].extent;
      std::vector<int64_t> full = SampleFactorization(
          extent, static_cast<int>(step.lengths.size()) + 1, rng, kMaxInnermostFactor);
      // full[0] is the outer part (implicit); the step stores inner lengths.
      step.lengths.assign(full.begin() + 1, full.end());
      if (!state.Split(step.stage, step.iter, step.lengths)) {
        return state;
      }
      continue;
    }
    // Re-apply other steps verbatim via the public primitives.
    switch (step.kind) {
      case StepKind::kFollowSplit:
        if (!state.FollowSplit(step.stage, step.iter, step.src_step, step.n_parts)) {
          return state;
        }
        break;
      case StepKind::kFuse:
        if (!state.Fuse(step.stage, step.iter, step.fuse_count)) return state;
        break;
      case StepKind::kReorder:
        if (!state.Reorder(step.stage, step.order)) return state;
        break;
      case StepKind::kComputeAt:
        if (!state.ComputeAt(step.stage, step.target_stage, step.target_iter)) return state;
        break;
      case StepKind::kComputeInline:
        if (!state.ComputeInline(step.stage)) return state;
        break;
      case StepKind::kComputeRoot:
        if (!state.ComputeRoot(step.stage)) return state;
        break;
      case StepKind::kCacheWrite:
        if (!state.CacheWrite(step.stage, nullptr)) return state;
        break;
      case StepKind::kRfactor:
        if (!state.Rfactor(step.stage, step.iter, nullptr)) return state;
        break;
      case StepKind::kAnnotation:
        if (!state.Annotate(step.stage, step.iter, step.annotation)) return state;
        break;
      case StepKind::kPragma:
        if (!state.Pragma(step.stage, step.pragma_value)) return state;
        break;
      case StepKind::kSplit:
        break;  // handled above
    }
  }
  return state;
}

namespace {

// Number of leading space iterators of a root stage (candidates for outer
// parallelization / thread binding).
int LeadingSpaceIters(const Stage& stage) {
  int n = 0;
  for (const Iterator& it : stage.iters) {
    if (it.kind != IterKind::kSpace || it.annotation != IterAnnotation::kNone) {
      break;
    }
    ++n;
  }
  return n;
}

void AnnotateCpuStage(State* state, const Stage& stage_snapshot, Rng* rng,
                      const SamplerOptions& options, bool is_root) {
  const std::string name = stage_snapshot.name();
  if (is_root) {
    // Parallelize: fuse a random number of leading space loops and mark the
    // result parallel.
    int leading = LeadingSpaceIters(stage_snapshot);
    if (leading >= 1) {
      int n_fuse = static_cast<int>(rng->Int(1, leading));
      if (n_fuse > 1) {
        if (!state->Fuse(name, 0, n_fuse)) {
          return;
        }
      }
      if (!state->Annotate(name, 0, IterAnnotation::kParallel)) {
        return;
      }
    }
  }
  // Vectorize the innermost loop with some probability.
  int stage_idx = state->StageIndex(name);
  const Stage& current = state->stage(stage_idx);
  if (!current.iters.empty() && rng->Uniform() < kVectorizeProbability) {
    int last = static_cast<int>(current.iters.size()) - 1;
    const Iterator& inner = current.iters[static_cast<size_t>(last)];
    if (inner.annotation == IterAnnotation::kNone && inner.extent >= 2 &&
        inner.extent <= 64) {
      state->Annotate(name, last, IterAnnotation::kVectorize);
    }
  }
  // Unroll pragma for reduction-bearing stages.
  if (HasReduce(current.op->body) && !options.unroll_options.empty()) {
    int value = options.unroll_options[rng->Index(options.unroll_options.size())];
    if (value > 0) {
      state->Pragma(name, value);
    }
  }
}

void AnnotateGpuStage(State* state, const Stage& stage_snapshot, Rng* rng,
                      const SamplerOptions& options, bool is_root) {
  const std::string name = stage_snapshot.name();
  if (is_root) {
    // Fuse all leading space loops, split into (blocks, threads), bind.
    int leading = LeadingSpaceIters(stage_snapshot);
    if (leading >= 1) {
      if (leading > 1 && !state->Fuse(name, 0, leading)) {
        return;
      }
      int stage_idx = state->StageIndex(name);
      int64_t fused_extent = state->stage(stage_idx).iters[0].extent;
      std::vector<int64_t> candidates;
      for (int64_t t : kThreadExtents) {
        if (fused_extent % t == 0) {
          candidates.push_back(t);
        }
      }
      int64_t threads =
          candidates.empty() ? 1 : candidates[rng->Index(candidates.size())];
      if (threads > 1) {
        if (!state->Split(name, 0, {threads})) {
          return;
        }
        state->Annotate(name, 0, IterAnnotation::kBlockX);
        state->Annotate(name, 1, IterAnnotation::kThreadX);
      } else {
        state->Annotate(name, 0, IterAnnotation::kBlockX);
      }
    }
  }
  // Unroll pragma (GPU kernels benefit strongly).
  int stage_idx = state->StageIndex(name);
  if (HasReduce(state->stage(stage_idx).op->body) && !options.unroll_options.empty()) {
    int value = options.unroll_options[rng->Index(options.unroll_options.size())];
    if (value > 0) {
      state->Pragma(name, value);
    }
  }
}

}  // namespace

void AnnotateState(State* state, Rng* rng, const SamplerOptions& options) {
  // Snapshot stage order first; annotation mutates iterators.
  std::vector<std::pair<std::string, bool>> stages;
  for (const Stage& s : state->stages()) {
    if (s.loc.kind == ComputeLocKind::kInlined) {
      continue;
    }
    stages.emplace_back(s.name(), s.loc.kind == ComputeLocKind::kRoot);
  }
  for (const auto& [name, is_root] : stages) {
    int idx = state->StageIndex(name);
    if (idx < 0) {
      continue;
    }
    Stage snapshot = state->stage(idx);
    if (options.gpu) {
      AnnotateGpuStage(state, snapshot, rng, options, is_root);
    } else {
      AnnotateCpuStage(state, snapshot, rng, options, is_root);
    }
    if (state->failed()) {
      return;
    }
  }
}

State SampleCompleteProgram(const State& sketch, const ComputeDAG* dag, Rng* rng,
                            const SamplerOptions& options) {
  State state = SampleTileSizes(sketch, dag, rng);
  if (state.failed()) {
    return state;
  }
  // Occasionally tweak the computation location of a fused producer
  // ("randomly change the computation location of some nodes").
  if (rng->Uniform() < options.location_tweak_probability) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < state.stages().size(); ++i) {
      if (state.stages()[i].loc.kind == ComputeLocKind::kAt) {
        candidates.push_back(i);
      }
    }
    if (!candidates.empty()) {
      size_t pick = candidates[rng->Index(candidates.size())];
      const Stage& s = state.stages()[pick];
      int target_idx = state.StageIndex(s.loc.at_stage);
      if (target_idx >= 0) {
        int n_iters = static_cast<int>(state.stage(target_idx).iters.size());
        if (n_iters > 0) {
          int new_level = static_cast<int>(rng->Int(0, n_iters - 1));
          state.ComputeAt(s.name(), s.loc.at_stage, new_level);
        }
      }
    }
  }
  if (!state.failed()) {
    AnnotateState(&state, rng, options);
  }
  return state;
}

}  // namespace ansor
