// Per-statement program features (paper §5.2 and Appendix B).
//
// "We train the cost model to predict the score of one innermost non-loop
// statement in a loop nest. For a full program, we make predictions for each
// innermost non-loop statement and add the predictions up as the score."
//
// The extracted vector mirrors Appendix B: float/int arithmetic counts,
// vectorization/unrolling/parallelization features with loop-position
// one-hots, GPU thread-binding lengths, a 10-point arithmetic-intensity
// curve, per-buffer access features for up to five buffers, allocation
// features and outer-loop context. Size-like features are log2(1+x)
// transformed. The total dimension is 164, as in the paper.
//
// Rows are returned as one contiguous row-major FeatureMatrix (stride
// FeatureDim(), stage names attached per row), which the evolution loop
// scores against as cached on each ProgramArtifact. Per-row working state
// lives in scratch buffers reused across the rows of one call, but each call
// starts them empty and grows them again: a row costs about 68 heap
// allocations, a sampled GPU conv program about 236.
#ifndef ANSOR_SRC_FEATURES_FEATURE_EXTRACTION_H_
#define ANSOR_SRC_FEATURES_FEATURE_EXTRACTION_H_

#include <string>
#include <vector>

#include "src/features/feature_matrix.h"
#include "src/lower/loop_tree.h"

namespace ansor {

// Dimension of one statement's feature vector.
size_t FeatureDim();

// Names of all features, in order (for debugging / model introspection).
const std::vector<std::string>& FeatureNames();

// One row per innermost store statement of the program (init stores
// included: they are real work), with the owning stage name attached to each
// row. Programs that fail to lower produce an empty matrix.
FeatureMatrix ExtractFeatures(const LoweredProgram& program);

// Convenience: lowers the state first. Empty matrix on lowering failure.
FeatureMatrix ExtractStateFeatures(const State& state);

}  // namespace ansor

#endif  // ANSOR_SRC_FEATURES_FEATURE_EXTRACTION_H_
