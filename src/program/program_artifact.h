// One compiled candidate program, content-addressed by its step signature.
//
// The search loop compiles the same program many times over: the evolution
// scores a population, crossover scores its parents, the planner filters
// candidates with the static verifier, and the tuner re-extracts their
// features for cost-model training. A ProgramArtifact keeps what those
// consumers read — the per-statement feature matrix with per-row stage
// names, the structural verifier report, and the small resource summary the
// machine-dependent check reads — so each distinct program is compiled once
// per task and served from the ProgramCache thereafter.
//
// An artifact does not keep its lowered loop tree: the tree is most of a
// build's heap and nothing reads it after construction. A consumer that
// needs the tree (the measurer simulating a program, the core API printing
// the best one) lowers the State it holds; lowering is a pure function of
// the State, so that tree is the one the artifact was built from. The tree
// and the schedule-expression derivation are freed on the building thread
// before the constructor returns, never handed to another thread to free
// (glibc frees a block another thread allocated under that thread's arena
// lock; see src/evolution/evolution.h).
//
// An artifact is plain immutable data: signature, task id, steps, features,
// verifier report and resource summary, all fixed by the constructor. It is
// either compiled from a State (the search's normal path) or restored from a
// persisted snapshot (src/store/artifact_store.h), which holds the same
// fields, so a restored artifact reads exactly like the cold build it was
// captured from. Every accessor is a const read or a pure function of those
// fields, so an artifact is shared across threads, tasks and jobs without
// synchronization. Nothing model-dependent lives here: crossover's per-stage
// parent scores are memoized inside one EvolutionarySearch::Evolve call
// (src/evolution/evolution.h).
#ifndef ANSOR_SRC_PROGRAM_PROGRAM_ARTIFACT_H_
#define ANSOR_SRC_PROGRAM_PROGRAM_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/program_verifier.h"
#include "src/features/feature_extraction.h"
#include "src/ir/steps.h"
#include "src/telemetry/trace.h"

namespace ansor {

class ProgramArtifact {
 public:
  // Lowers the state and, on success, extracts its feature matrix; then
  // verifies it and summarizes its resources. A state whose lowering fails
  // still yields an artifact (ok() == false, empty features) so consumers
  // have one code path.
  explicit ProgramArtifact(const State& state);
  // As above with the StepSignature already computed (the ProgramCache hands
  // over the one it derived the cache key from). A non-null `tracer` records
  // the compile as an "artifact_build" span with "lower", "extract_features"
  // and "verify_structural" children.
  ProgramArtifact(const State& state, std::string signature,
                  const Tracer* tracer = nullptr);
  // Restores an artifact from the fields a snapshot persisted; the signature
  // is StepSignature(steps). Compiles nothing.
  ProgramArtifact(uint64_t task_id, std::vector<Step> steps, FeatureMatrix features,
                  VerifierReport report, ResourceSummary resources);

  ProgramArtifact(const ProgramArtifact&) = delete;
  ProgramArtifact& operator=(const ProgramArtifact&) = delete;

  // Lowering validity: false means the kLowering check of verifier_report()
  // holds the lowering diagnostic.
  bool ok() const { return resources_.lowered; }
  // The state's StepSignature — the content address within one DAG.
  const std::string& signature() const { return signature_; }
  // The producing DAG's canonical hash: the task-level half of the content
  // address (0 only for a default-constructed failed state with no DAG).
  uint64_t task_id() const { return task_id_; }
  // The program's step history (empty for failed states, whose history is
  // normalized away).
  const std::vector<Step>& steps() const { return steps_; }
  // Flat feature matrix, one row per innermost store statement (with its
  // owning stage name attached); empty when ok() is false.
  const FeatureMatrix& features() const { return features_; }
  // Owning stage name of each feature row (node-based crossover scoring).
  const std::vector<std::string>& row_stages() const { return features_.row_stages(); }

  // The static verifier's machine-independent report (lowering, buffer
  // bounds, iterator domains, def-before-use).
  const VerifierReport& verifier_report() const { return report_; }
  // What the machine-dependent resource check reads of the lowered program.
  const ResourceSummary& resource_summary() const { return resources_; }

  // Machine-dependent resource verdict: VerifyResources over the resource
  // summary. A non-null `tracer` records the consult as a "verify_resources"
  // span.
  CheckVerdict resource_verdict(const MachineModel& machine,
                                const Tracer* tracer = nullptr) const {
    return VerifyResources(resources_, machine, tracer);
  }

  // True when every evaluated check passed: the structural report is legal
  // and, if a machine is given, its resource verdict is too.
  bool statically_legal(const MachineModel* machine = nullptr,
                        const Tracer* tracer = nullptr) const {
    return report_.legal() &&
           (machine == nullptr || !resource_verdict(*machine, tracer).failed());
  }

 private:
  std::string signature_;
  uint64_t task_id_ = 0;
  std::vector<Step> steps_;
  FeatureMatrix features_;
  VerifierReport report_;
  ResourceSummary resources_;
};

using ProgramArtifactPtr = std::shared_ptr<const ProgramArtifact>;

}  // namespace ansor

#endif  // ANSOR_SRC_PROGRAM_PROGRAM_ARTIFACT_H_
