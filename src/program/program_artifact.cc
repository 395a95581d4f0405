#include "src/program/program_artifact.h"

#include "src/dag/compute_dag.h"
#include "src/ir/stage_exprs.h"
#include "src/ir/state.h"
#include "src/lower/loop_tree.h"

namespace ansor {
namespace {

// One compile of `state`: one derivation of the loop Vars and axis
// reconstructions serves both the lowering and the verifier's
// iterator-domain check. `features` is filled only when non-null and the
// lowering succeeded. The loop tree and the derivation are locals, so they
// are freed here, on the thread that built them.
void Compile(const State& state, const Tracer* tracer, FeatureMatrix* features,
             VerifierReport* report, ResourceSummary* resources) {
  std::vector<StageExprs> exprs;
  LoweredProgram lowered;
  {
    TraceSpan lower(tracer, "lower", "program");
    exprs = DeriveScheduleExprs(state);
    lowered = Lower(state, exprs);
  }
  if (features != nullptr && lowered.ok) {
    TraceSpan extract(tracer, "extract_features", "program");
    *features = ExtractFeatures(lowered);
  }
  *report = VerifyProgram(state, exprs, lowered, tracer);
  *resources = SummarizeResources(lowered);
}

}  // namespace

ProgramArtifact::ProgramArtifact(const State& state)
    : ProgramArtifact(state, StepSignature(state)) {}

ProgramArtifact::ProgramArtifact(const State& state, std::string signature,
                                 const Tracer* tracer)
    : signature_(std::move(signature)),
      task_id_(state.dag() != nullptr ? state.dag()->CanonicalHash() : 0),
      steps_(state.steps()) {
  TraceSpan build(tracer, "artifact_build", "program");
  Tracer nested = build.child();
  Compile(state, build.enabled() ? &nested : nullptr, &features_, &verifier_report_,
          &resource_summary_);
  lowering_ok_ = resource_summary_.lowered;
  structurally_legal_ = verifier_report_.legal();
  materialized_.store(true, std::memory_order_release);
}

ProgramArtifact::ProgramArtifact(
    std::shared_ptr<const ComputeDAG> dag, std::vector<Step> steps,
    std::string signature, FeatureMatrix features, bool lowering_ok,
    bool structurally_legal,
    const std::vector<std::pair<uint64_t, bool>>& resource_verdicts)
    : signature_(std::move(signature)),
      task_id_(dag != nullptr ? dag->CanonicalHash() : 0),
      steps_(std::move(steps)),
      dag_(std::move(dag)),
      features_(std::move(features)),
      lowering_ok_(lowering_ok),
      structurally_legal_(structurally_legal) {
  for (const auto& [fingerprint, passed] : resource_verdicts) {
    // Seed the memo with the snapshot's verdict summary: failed() is all the
    // search consults, so a pass/fail skeleton reproduces every filtering
    // decision without re-lowering. Diagnostics are only re-derived when a
    // consumer asks about a machine outside the memo.
    auto verdict = std::make_shared<CheckVerdict>();
    verdict->verdict = passed ? VerifierVerdict::kPass : VerifierVerdict::kFail;
    if (!passed) {
      verdict->diagnostics.push_back("resource-limit failure (from snapshot)");
    }
    resources_.push_back(ResourceMemo{fingerprint, std::move(verdict)});
  }
}

void ProgramArtifact::Materialize() const {
  if (materialized_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(materialize_mu_);
  if (materialized_.load(std::memory_order_acquire)) {
    return;
  }
  // The cold constructor's compile minus the features the snapshot already
  // holds, so a materialized warm artifact is indistinguishable from a cold
  // build of the same (DAG, steps).
  Compile(State::Replay(dag_.get(), steps_), nullptr, nullptr, &verifier_report_,
          &resource_summary_);
  materialized_.store(true, std::memory_order_release);
}

const VerifierReport& ProgramArtifact::verifier_report() const {
  Materialize();
  return verifier_report_;
}

std::shared_ptr<const CheckVerdict> ProgramArtifact::resource_verdict(
    const MachineModel& machine, const Tracer* tracer) const {
  uint64_t fingerprint = machine.Fingerprint();
  {
    std::lock_guard<std::mutex> lock(resources_mu_);
    for (const ResourceMemo& memo : resources_) {
      if (memo.machine_fingerprint == fingerprint) {
        return memo.verdict;
      }
    }
  }
  // Computed outside the lock: the verdict is a pure function of
  // (program, machine), so a racing duplicate is identical and harmless.
  Materialize();
  auto verdict = std::make_shared<const CheckVerdict>(
      VerifyResources(resource_summary_, machine, tracer));
  std::lock_guard<std::mutex> lock(resources_mu_);
  for (const ResourceMemo& memo : resources_) {
    if (memo.machine_fingerprint == fingerprint) {
      return memo.verdict;
    }
  }
  resources_.push_back(ResourceMemo{fingerprint, verdict});
  return verdict;
}

std::vector<std::pair<uint64_t, bool>> ProgramArtifact::resource_verdict_summary() const {
  std::vector<std::pair<uint64_t, bool>> out;
  std::lock_guard<std::mutex> lock(resources_mu_);
  out.reserve(resources_.size());
  for (const ResourceMemo& memo : resources_) {
    // Skipped verdicts (failed lowering) carry no information worth
    // persisting; failed() is false for them either way.
    out.emplace_back(memo.machine_fingerprint, !memo.verdict->failed());
  }
  return out;
}

}  // namespace ansor
