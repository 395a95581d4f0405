#include "src/program/program_artifact.h"

#include "src/dag/compute_dag.h"
#include "src/ir/stage_exprs.h"
#include "src/ir/state.h"
#include "src/lower/loop_tree.h"

namespace ansor {

ProgramArtifact::ProgramArtifact(const State& state)
    : ProgramArtifact(state, StepSignature(state)) {}

ProgramArtifact::ProgramArtifact(const State& state, std::string signature,
                                 const Tracer* tracer)
    : signature_(std::move(signature)),
      task_id_(state.dag() != nullptr ? state.dag()->CanonicalHash() : 0),
      steps_(state.steps()) {
  TraceSpan build(tracer, "artifact_build", "program");
  Tracer nested = build.child();
  const Tracer* child = build.enabled() ? &nested : nullptr;
  // One derivation of the loop Vars and axis reconstructions serves both the
  // lowering and the verifier's iterator-domain check. The loop tree and the
  // derivation are locals, so they are freed here, on the building thread.
  std::vector<StageExprs> exprs;
  LoweredProgram lowered;
  {
    TraceSpan lower(child, "lower", "program");
    exprs = DeriveScheduleExprs(state);
    lowered = Lower(state, exprs);
  }
  if (lowered.ok) {
    TraceSpan extract(child, "extract_features", "program");
    features_ = ExtractFeatures(lowered);
  }
  report_ = VerifyProgram(state, exprs, lowered, child);
  resources_ = SummarizeResources(lowered);
}

ProgramArtifact::ProgramArtifact(uint64_t task_id, std::vector<Step> steps,
                                 FeatureMatrix features, VerifierReport report,
                                 ResourceSummary resources)
    : signature_(StepSignature(steps)),
      task_id_(task_id),
      steps_(std::move(steps)),
      features_(std::move(features)),
      report_(std::move(report)),
      resources_(std::move(resources)) {}

}  // namespace ansor
