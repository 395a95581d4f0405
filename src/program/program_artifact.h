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
// Artifacts come in two flavors that hold the same fields:
//  * Cold (from a State): lowered, feature-extracted, verified and
//    summarized at construction — the search's normal path.
//  * Warm (from a persisted snapshot, src/store/artifact_store.h): the
//    signature, steps, features, and verdict summaries are restored
//    directly; the full verifier report and the resource summary are
//    re-derived lazily, by replaying the steps on the DAG and lowering once,
//    the first time a consumer needs them. Population scoring and static
//    filtering — the bulk of a resumed run's traffic — read only features
//    and verdicts, so a warm-started search recompiles nothing it has
//    already seen. Laziness is invisible: every accessor returns exactly
//    what the cold construction would have.
//
// Artifacts are shared across threads, tasks and jobs, so their only state
// after construction is what a pure function of the program fills in on
// demand: the per-machine resource-check memo, keyed by MachineModel
// fingerprint, and a warm artifact's materialization. Serving either from
// the cache is bit-identical to recomputing it. Nothing model-dependent
// lives here: crossover's per-stage parent scores are memoized inside one
// EvolutionarySearch::Evolve call (src/evolution/evolution.h).
#ifndef ANSOR_SRC_PROGRAM_PROGRAM_ARTIFACT_H_
#define ANSOR_SRC_PROGRAM_PROGRAM_ARTIFACT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/program_verifier.h"
#include "src/features/feature_extraction.h"
#include "src/ir/steps.h"
#include "src/telemetry/trace.h"

namespace ansor {

class ComputeDAG;

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
  // Warm restore from a persisted snapshot: everything a scoring/filtering
  // consumer reads is handed over directly; the full verifier report and the
  // resource summary are re-derived on first demand by replaying `steps` on
  // `dag`. `resource_verdicts` seeds the per-machine memo with (fingerprint,
  // passed) summaries captured at snapshot time.
  ProgramArtifact(std::shared_ptr<const ComputeDAG> dag, std::vector<Step> steps,
                  std::string signature, FeatureMatrix features, bool lowering_ok,
                  bool structurally_legal,
                  const std::vector<std::pair<uint64_t, bool>>& resource_verdicts);

  ProgramArtifact(const ProgramArtifact&) = delete;
  ProgramArtifact& operator=(const ProgramArtifact&) = delete;

  // Lowering validity: false means the kLowering check of verifier_report()
  // holds the lowering diagnostic.
  bool ok() const { return lowering_ok_; }
  // The state's StepSignature — the content address within one DAG.
  const std::string& signature() const { return signature_; }
  // The producing DAG's canonical hash: the task-level half of the content
  // address (0 only for a default-constructed failed state with no DAG).
  uint64_t task_id() const { return task_id_; }
  // The program's step history (what a snapshot persists for lazy
  // re-derivation; empty for failed states, whose history is normalized
  // away).
  const std::vector<Step>& steps() const { return steps_; }
  // Flat feature matrix, one row per innermost store statement (with its
  // owning stage name attached); empty when ok() is false.
  const FeatureMatrix& features() const { return features_; }
  // Owning stage name of each feature row (node-based crossover scoring).
  const std::vector<std::string>& row_stages() const { return features_.row_stages(); }

  // The static verifier's machine-independent report (lowering, buffer
  // bounds, iterator domains, def-before-use). Materializes a warm artifact
  // on first call; statically_legal() does not (the summary flag is part of
  // the snapshot).
  const VerifierReport& verifier_report() const;

  // Machine-dependent resource verdict, computed from the resource summary
  // at most once per MachineModel fingerprint and artifact. Thread-safe; the
  // returned snapshot is immutable. A fingerprint outside the memo
  // materializes a warm artifact. A non-null `tracer` records the (uncached)
  // consult as a "verify_resources" span; memo hits record nothing.
  std::shared_ptr<const CheckVerdict> resource_verdict(const MachineModel& machine,
                                                       const Tracer* tracer = nullptr) const;

  // True when every evaluated check passed: the structural report is legal
  // and, if a machine is given, its resource verdict is too.
  bool statically_legal(const MachineModel* machine = nullptr,
                        const Tracer* tracer = nullptr) const {
    return structurally_legal_ &&
           (machine == nullptr || !resource_verdict(*machine, tracer)->failed());
  }

  // (fingerprint, passed) summary of every memoized resource verdict — what
  // an ArtifactStore snapshot persists so a warm resume re-checks nothing.
  std::vector<std::pair<uint64_t, bool>> resource_verdict_summary() const;

  // False only for a warm artifact that has not yet re-derived its verifier
  // report and resource summary (tests and the zero-rebuild warm-start
  // accounting).
  bool materialized() const { return materialized_.load(std::memory_order_acquire); }

 private:
  // Replays steps_ on dag_ and derives verifier_report_ and
  // resource_summary_ (warm artifacts only; cold ones are born
  // materialized). Idempotent and thread-safe; the result is a pure function
  // of (dag, steps), so a warm artifact after materialization is
  // bit-identical to a cold build.
  void Materialize() const;

  std::string signature_;
  uint64_t task_id_ = 0;
  std::vector<Step> steps_;
  std::shared_ptr<const ComputeDAG> dag_;  // held by warm artifacts for replay
  FeatureMatrix features_;
  bool lowering_ok_ = false;
  bool structurally_legal_ = false;

  mutable std::atomic<bool> materialized_{false};
  mutable std::mutex materialize_mu_;
  mutable VerifierReport verifier_report_;
  mutable ResourceSummary resource_summary_;

  struct ResourceMemo {
    uint64_t machine_fingerprint = 0;
    std::shared_ptr<const CheckVerdict> verdict;
  };
  mutable std::mutex resources_mu_;
  mutable std::vector<ResourceMemo> resources_;
};

using ProgramArtifactPtr = std::shared_ptr<const ProgramArtifact>;

}  // namespace ansor

#endif  // ANSOR_SRC_PROGRAM_PROGRAM_ARTIFACT_H_
