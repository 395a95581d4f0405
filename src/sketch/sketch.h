// Sketch generation (paper §4.1, Table 1).
//
// Sketches are the high-level program structures: tile/fusion skeletons with
// pending tile sizes and no annotations. They are produced by recursively
// applying derivation rules to states (S, i), where i is the working node
// index, visiting the DAG from output to input. Users can register custom
// rules (paper: "we allow users to register new derivation rules and
// integrate them seamlessly with existing rules").
#ifndef ANSOR_SRC_SKETCH_SKETCH_H_
#define ANSOR_SRC_SKETCH_SKETCH_H_

#include <functional>
#include <string>
#include <vector>

#include "src/analysis/predicates.h"
#include "src/ir/state.h"
#include "src/sampler/annotation.h"

namespace ansor {

class ProgramCache;

// A derivation rule: if `condition` holds at (state, stage_idx), `apply`
// produces successor (state, next_stage_idx) pairs. `exclusive` rules stop
// lower-priority rules from also firing on the same state (mirroring TVM's
// kApplyAndSkipRest), while additive rules branch the derivation.
struct SketchRule {
  std::string name;
  bool exclusive = true;
  std::function<bool(const State&, int)> condition;
  std::function<std::vector<std::pair<State, int>>(const State&, int)> apply;
};

struct SketchOptions {
  // Custom rules are tried before the built-in ones, in order.
  std::vector<SketchRule> custom_rules;
  // Safety bound on enumeration.
  size_t max_sketches = 64;
  // Ablation knobs: the "Limited space" variant of §7.1/§7.3 shrinks the
  // structure space to roughly what manual templates cover.
  bool enable_fusion = true;
  bool enable_cache_write = true;
  bool enable_rfactor = true;
  int space_levels = 4;
  int reduce_levels = 2;
};

// Built-in rules (exposed for tests and for composing custom rule sets).
SketchRule RuleAlwaysInline();              // Table 1, rule 2
SketchRule RuleMultiLevelTilingWithFusion(int space_levels = 4,
                                          int reduce_levels = 2);  // rule 4
SketchRule RuleAddCacheStage();             // rule 5
SketchRule RuleMultiLevelTiling(int space_levels = 4, int reduce_levels = 2);  // rule 3
SketchRule RuleAddRfactor();                // rule 6
SketchRule RuleSkip();                      // rule 1

// The derivation engine: returns all terminal sketches for the DAG.
std::vector<State> GenerateSketches(const ComputeDAG* dag,
                                    const SketchOptions& options = SketchOptions());

// Samples up to `count` complete programs from the DAG's sketches that also
// lower successfully — the canonical way to seed an evolution population
// (used by tests and benches). Gives up after 16 * count attempts so an
// unsatisfiable request still terminates. When `cache` is given, the
// lowerability probe goes through it, so the compiled artifact is kept and
// reused by the first scoring pass instead of being thrown away.
std::vector<State> SampleLowerablePopulation(const ComputeDAG* dag, int count, Rng* rng,
                                             const SamplerOptions& sampler = SamplerOptions(),
                                             const SketchOptions& options = SketchOptions(),
                                             ProgramCache* cache = nullptr);

// The "SSRSRS" multi-level tile structure (paper §4.1) applied to one stage:
// splits every space axis into `space_levels` parts and every reduce axis into
// `reduce_levels` parts, then reorders into S..S R S R S order. Returns the
// indices (into state->steps()) of the space-axis split steps, for follow-
// split consumers.
std::vector<int> ApplyMultiLevelTiling(State* state, const std::string& stage,
                                       int space_levels = 4, int reduce_levels = 2);

// Fuses `consumer` onto the tiled `producer`: follow-splits every consumer
// axis into up to 3 parts tracking the producer's splits, reorders, and
// computes the producer at the end of the consumer's second-to-last tile
// group. The part count adapts to shallower producer tilings (limited-space
// ablations).
bool FuseConsumer(State* state, const std::string& producer, const std::string& consumer,
                  const std::vector<int>& producer_split_steps);

}  // namespace ansor

#endif  // ANSOR_SRC_SKETCH_SKETCH_H_
