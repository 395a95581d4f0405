#include "src/sketch/sketch.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "src/lower/loop_tree.h"
#include "src/program/program_cache.h"
#include "src/support/util.h"

namespace ansor {
namespace {

int CountReduceIters(const Stage& stage) {
  int n = 0;
  for (const Iterator& it : stage.iters) {
    if (it.kind == IterKind::kReduce) {
      ++n;
    }
  }
  return n;
}

}  // namespace

std::vector<int> ApplyMultiLevelTiling(State* state, const std::string& stage_name,
                                       int space_levels, int reduce_levels) {
  int stage_idx = state->StageIndex(stage_name);
  CHECK_GE(stage_idx, 0);
  int n_space = static_cast<int>(state->stage(stage_idx).op->axis.size());
  int n_reduce = CountReduceIters(state->stage(stage_idx));

  std::vector<int> space_steps;
  int sp = space_levels;
  int rp = reduce_levels;
  // Forward over space axes: after splitting, axis a sits at position a*sp.
  // A level count of 1 means "leave the axis unsplit".
  for (int a = 0; a < n_space && sp > 1; ++a) {
    space_steps.push_back(static_cast<int>(state->steps().size()));
    std::vector<int64_t> lengths(static_cast<size_t>(sp - 1), 1);  // pending tile sizes
    if (!state->Split(stage_name, a * sp, lengths)) {
      return {};
    }
  }
  for (int b = 0; b < n_reduce && rp > 1; ++b) {
    std::vector<int64_t> lengths(static_cast<size_t>(rp - 1), 1);
    if (!state->Split(stage_name, n_space * sp + b * rp, lengths)) {
      return {};
    }
  }
  // Reorder into the SSRSRS pattern: S0.. S1.. R0.. S2.. R1.. S3..
  // (generalized: space level l for l in [0, sp), interleaving reduce levels
  // after the second space level).
  std::vector<int> order;
  auto push_space_level = [&](int level) {
    for (int a = 0; a < n_space; ++a) {
      order.push_back(a * sp + level);
    }
  };
  auto push_reduce_level = [&](int level) {
    for (int b = 0; b < n_reduce; ++b) {
      order.push_back(n_space * sp + b * rp + level);
    }
  };
  int reduce_emitted = 0;
  for (int level = 0; level < sp; ++level) {
    push_space_level(level);
    // Emit one reduce level after the 2nd space level and before the last.
    if (level >= 1 && reduce_emitted < rp && level < sp - 1) {
      push_reduce_level(reduce_emitted);
      ++reduce_emitted;
    }
  }
  while (reduce_emitted < rp) {
    // Degenerate cases (few space levels): append remaining reduce levels.
    push_reduce_level(reduce_emitted);
    ++reduce_emitted;
  }
  if (!state->Reorder(stage_name, order)) {
    return {};
  }
  return space_steps;
}

bool FuseConsumer(State* state, const std::string& producer, const std::string& consumer,
                  const std::vector<int>& producer_split_steps) {
  int consumer_idx = state->StageIndex(consumer);
  if (consumer_idx < 0) {
    return false;
  }
  int n_axes = static_cast<int>(state->stage(consumer_idx).op->axis.size());
  if (static_cast<int>(producer_split_steps.size()) != n_axes) {
    return false;
  }
  // The consumer split depth follows the producer's tiling depth, capped at
  // 3 parts (outer tiles / middle tiles / per-tile interior).
  int parts = 3;
  for (int step_idx : producer_split_steps) {
    int src_parts =
        static_cast<int>(state->steps()[static_cast<size_t>(step_idx)].lengths.size()) + 1;
    parts = std::min(parts, src_parts);
  }
  if (parts < 2) {
    return false;
  }
  for (int d = 0; d < n_axes; ++d) {
    if (!state->FollowSplit(consumer, d * parts,
                            producer_split_steps[static_cast<size_t>(d)], parts)) {
      return false;
    }
  }
  std::vector<int> order;
  for (int level = 0; level < parts; ++level) {
    for (int d = 0; d < n_axes; ++d) {
      order.push_back(d * parts + level);
    }
  }
  if (!state->Reorder(consumer, order)) {
    return false;
  }
  // Producer goes at the end of the consumer's second-to-last tile group.
  return state->ComputeAt(producer, consumer, (parts - 1) * n_axes - 1);
}

SketchRule RuleAlwaysInline() {
  SketchRule rule;
  rule.name = "AlwaysInline";
  rule.exclusive = true;
  rule.condition = [](const State& state, int i) {
    return IsStrictInlinable(state, i);
  };
  rule.apply = [](const State& state, int i) {
    State next = state;
    std::vector<std::pair<State, int>> result;
    if (next.ComputeInline(state.stage(i).name())) {
      result.emplace_back(std::move(next), i - 1);
    }
    return result;
  };
  return rule;
}

SketchRule RuleMultiLevelTilingWithFusion(int space_levels, int reduce_levels) {
  SketchRule rule;
  rule.name = "MultiLevelTilingWithFusion";
  rule.exclusive = true;
  rule.condition = [](const State& state, int i) {
    return HasDataReuse(state, i) && HasFusibleConsumer(state, i, nullptr);
  };
  rule.apply = [space_levels, reduce_levels](const State& state, int i) {
    std::vector<std::pair<State, int>> result;
    State next = state;
    int consumer = -1;
    if (!HasFusibleConsumer(next, i, &consumer)) {
      return result;
    }
    std::string producer_name = next.stage(i).name();
    std::string consumer_name = next.stage(consumer).name();
    std::vector<int> split_steps =
        ApplyMultiLevelTiling(&next, producer_name, space_levels, reduce_levels);
    if (split_steps.empty() && !next.stage(i).op->axis.empty()) {
      return result;
    }
    if (!FuseConsumer(&next, producer_name, consumer_name, split_steps)) {
      return result;
    }
    result.emplace_back(std::move(next), i - 1);
    return result;
  };
  return rule;
}

SketchRule RuleAddCacheStage() {
  SketchRule rule;
  rule.name = "AddCacheStage";
  rule.exclusive = false;  // branches alongside plain multi-level tiling
  rule.condition = [](const State& state, int i) {
    return HasDataReuse(state, i) && !HasFusibleConsumer(state, i, nullptr);
  };
  rule.apply = [](const State& state, int i) {
    std::vector<std::pair<State, int>> result;
    State next = state;
    int cache_idx = -1;
    if (!next.CacheWrite(state.stage(i).name(), &cache_idx)) {
      return result;
    }
    // The working node keeps index i: it is now the cache stage carrying the
    // heavy body, whose fusible consumer is the original output (rule 5:
    // "i' = i", letting rule 4 fire next).
    result.emplace_back(std::move(next), i);
    return result;
  };
  return rule;
}

SketchRule RuleMultiLevelTiling(int space_levels, int reduce_levels) {
  SketchRule rule;
  rule.name = "MultiLevelTiling";
  rule.exclusive = true;
  rule.condition = [](const State& state, int i) {
    return HasDataReuse(state, i);
  };
  rule.apply = [space_levels, reduce_levels](const State& state, int i) {
    std::vector<std::pair<State, int>> result;
    State next = state;
    std::vector<int> split_steps = ApplyMultiLevelTiling(&next, state.stage(i).name(),
                                                         space_levels, reduce_levels);
    if (split_steps.empty() && !next.stage(i).op->axis.empty()) {
      return result;
    }
    result.emplace_back(std::move(next), i - 1);
    return result;
  };
  return rule;
}

SketchRule RuleAddRfactor() {
  SketchRule rule;
  rule.name = "AddRfactor";
  rule.exclusive = false;
  rule.condition = [](const State& state, int i) {
    if (!HasMoreReductionParallel(state, i)) {
      return false;
    }
    // Applicable only to a still-pristine single-reduction stage.
    const Stage& s = state.stage(i);
    return s.op->body.defined() && s.op->body.kind() == ExprKind::kReduce &&
           s.op->body->reduce_axes.size() == 1 && CountReduceIters(s) == 1;
  };
  rule.apply = [](const State& state, int i) {
    std::vector<std::pair<State, int>> result;
    State next = state;
    std::string name = state.stage(i).name();
    int n_space = static_cast<int>(state.stage(i).op->axis.size());
    // Split the reduction axis (pending length), then factor the inner part
    // out as a space axis of a new .rf stage.
    if (!next.Split(name, n_space, {1})) {
      return result;
    }
    int rf_idx = -1;
    if (!next.Rfactor(name, n_space + 1, &rf_idx)) {
      return result;
    }
    // The rf stage's iterators are [space..., kr, ko]. Two useful structures
    // exist (both visible in the paper's Fig. 5):
    //  (a) kr innermost under ko — vectorize the factored axis (sampled
    //      program 4: "for k_o: vectorize k_i: E.rf += ...");
    //  (b) kr outermost — parallelize the reduction (the NRM speedup of
    //      §7.1: "Ansor can parallelize reduction loop").
    // Emit both as separate sketches.
    const Stage& rf = next.stage(rf_idx);
    int n_iters = static_cast<int>(rf.iters.size());
    std::string rf_name = rf.name();
    {
      State vec_variant = next;
      std::vector<int> order;
      for (int p = 0; p < n_iters - 2; ++p) {
        order.push_back(p);
      }
      order.push_back(n_iters - 1);  // ko (reduce)
      order.push_back(n_iters - 2);  // kr (factored space, now innermost)
      if (vec_variant.Reorder(rf_name, order)) {
        result.emplace_back(std::move(vec_variant), i - 1);
      }
    }
    {
      State par_variant = next;
      std::vector<int> order;
      order.push_back(n_iters - 2);  // kr leads: fused into the parallel loop
      for (int p = 0; p < n_iters - 2; ++p) {
        order.push_back(p);
      }
      order.push_back(n_iters - 1);  // ko stays innermost
      if (par_variant.Reorder(rf_name, order)) {
        result.emplace_back(std::move(par_variant), i - 1);
      }
    }
    return result;
  };
  return rule;
}

SketchRule RuleSkip() {
  SketchRule rule;
  rule.name = "Skip";
  rule.exclusive = true;
  rule.condition = [](const State& state, int i) {
    return !IsStrictInlinable(state, i);
  };
  rule.apply = [](const State& state, int i) {
    std::vector<std::pair<State, int>> result;
    result.emplace_back(state, i - 1);
    return result;
  };
  return rule;
}

std::vector<State> GenerateSketches(const ComputeDAG* dag, const SketchOptions& options) {
  std::vector<SketchRule> rules = options.custom_rules;
  rules.push_back(RuleAlwaysInline());
  // Rfactor branches as an alternative derivation at the same node (paper
  // example 2: sketch 2 via rules 5+4, sketch 3 via rule 6), so it must be
  // tried before the exclusive tiling rules.
  if (options.enable_rfactor) {
    rules.push_back(RuleAddRfactor());
  }
  if (options.enable_fusion) {
    rules.push_back(
        RuleMultiLevelTilingWithFusion(options.space_levels, options.reduce_levels));
  }
  if (options.enable_cache_write) {
    rules.push_back(RuleAddCacheStage());
  }
  rules.push_back(RuleMultiLevelTiling(options.space_levels, options.reduce_levels));
  rules.push_back(RuleSkip());

  std::vector<State> sketches;
  std::unordered_set<std::string> seen;
  std::deque<std::pair<State, int>> queue;
  {
    State init(dag);
    int last = static_cast<int>(init.stages().size()) - 1;
    queue.emplace_back(std::move(init), last);
  }
  while (!queue.empty() && sketches.size() < options.max_sketches) {
    auto [state, i] = std::move(queue.front());
    queue.pop_front();
    if (i < 0) {
      if (seen.insert(StepSignature(state)).second) {
        sketches.push_back(std::move(state));
      }
      continue;
    }
    for (const SketchRule& rule : rules) {
      if (!rule.condition(state, i)) {
        continue;
      }
      for (auto& [next, next_i] : rule.apply(state, i)) {
        queue.emplace_back(std::move(next), next_i);
      }
      if (rule.exclusive) {
        break;
      }
    }
  }
  return sketches;
}

std::vector<State> SampleLowerablePopulation(const ComputeDAG* dag, int count, Rng* rng,
                                             const SamplerOptions& sampler,
                                             const SketchOptions& options,
                                             ProgramCache* cache) {
  std::vector<State> population;
  std::vector<State> sketches = GenerateSketches(dag, options);
  if (sketches.empty() || count <= 0) {
    return population;
  }
  int attempts = 0;
  while (static_cast<int>(population.size()) < count && attempts < count * 16) {
    ++attempts;
    State s = SampleCompleteProgram(sketches[rng->Index(sketches.size())], dag, rng, sampler);
    if (s.failed()) {
      continue;
    }
    // With a cache the artifact built for this probe is kept: the first
    // scoring pass over the population gets it for free.
    bool lowerable = cache != nullptr ? cache->GetOrBuild(s)->ok() : Lower(s).ok;
    if (lowerable) {
      population.push_back(std::move(s));
    }
  }
  return population;
}

}  // namespace ansor
