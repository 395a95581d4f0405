// Random annotation (paper §4.2): turns sketches into complete programs.
//
// "Given a list of generated sketches, we randomly pick one sketch, randomly
// fill out tile sizes, parallelize some outer loops, vectorize some inner
// loops, and unroll a few inner loops. We also randomly change the computation
// location of some nodes."
#ifndef ANSOR_SRC_SAMPLER_ANNOTATION_H_
#define ANSOR_SRC_SAMPLER_ANNOTATION_H_

#include <vector>

#include "src/ir/state.h"
#include "src/support/rng.h"

namespace ansor {

struct SamplerOptions {
  bool gpu = false;
  // auto_unroll_max_step candidates (TVM uses the same ladder).
  std::vector<int> unroll_options = {0, 16, 64, 512};
  double location_tweak_probability = 0.1;
};

// Fills every pending SplitStep in the sketch with random divisor
// factorizations by replaying its steps with rewritten lengths.
// Returns a failed state if replay breaks (callers resample).
State SampleTileSizes(const State& sketch, const ComputeDAG* dag, Rng* rng);

// Applies the random annotation policy (parallel / vectorize / unroll /
// thread binding) to a tile-size-complete state, in place.
void AnnotateState(State* state, Rng* rng, const SamplerOptions& options = SamplerOptions());

// Full §4.2 pipeline: tile sizes + annotations + occasional compute-location
// tweak. May return a failed state; callers resample.
State SampleCompleteProgram(const State& sketch, const ComputeDAG* dag, Rng* rng,
                            const SamplerOptions& options = SamplerOptions());

// Random divisor factorization of `extent` into `parts` factors whose product
// divides extent (used by tile sampling and tile-size mutation).
std::vector<int64_t> SampleFactorization(int64_t extent, int parts, Rng* rng,
                                         int64_t max_innermost_factor);

}  // namespace ansor

#endif  // ANSOR_SRC_SAMPLER_ANNOTATION_H_
