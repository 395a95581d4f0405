// Static schedule verifier: proves legality properties of lowered programs
// without executing them.
//
// The search discards most illegal candidates by paying for them — a failed
// lowering, a wasted measurement, or an interpreter mismatch three subsystems
// after the bad mutation. This pass analyzes a LoweredProgram (plus the State
// that produced it) and returns a structured per-check report:
//
//   1. kLowering       — the state lowered at all (failed lowerings carry the
//                        lowering diagnostic; all other checks are skipped).
//   2. kBufferBounds   — every buffer access provably stays inside its
//                        buffer's shape: each index expression is bounded by
//                        interval analysis (RangeOf) over the enclosing loop
//                        extents, clamped by dominating guard conditions.
//   3. kIteratorDomain — split/fuse/reorder left every original axis fully
//                        covered: the reconstruction expression of each axis
//                        (derived from the stage's relation record by
//                        DeriveStageExprs) spans exactly [0, extent) (or at
//                        least that, for guarded axes), and no reconstruction
//                        references a variable that is not an iterator of the
//                        stage (no dangling iterators).
//   4. kDefBeforeUse   — in execution (DFS) order, the first read of every
//                        program-produced buffer comes after its first store;
//                        accumulating stores count as reads of their own
//                        buffer, so uninitialized reductions are caught.
//   5. kResourceLimits — machine-dependent: total buffer footprint fits the
//                        MachineModel's memory capacity, vectorized loop
//                        extents fit its register budget, GPU thread extents
//                        fit the per-SM resident-thread limit.
//
// Checks 1-4 are pure functions of (state, program) and are stamped onto the
// ProgramArtifact at construction, so the ProgramCache computes them once per
// distinct program. Check 5 depends on the machine, but all it reads of the
// program is a small machine-independent ResourceSummary; the artifact keeps
// that summary (not the loop tree) and runs the check on it for each
// consult, which costs a walk over a few loops.
//
// Soundness direction: a kPass verdict is a proof — the verifier never
// passes a bounds/domain/ordering property that could fail at runtime. The
// converse does not hold: an unanalyzable index is a kFail even though the
// program might be legal, because the search must only skip measurements for
// candidates whose legality it cannot establish more cheaply elsewhere.
#ifndef ANSOR_SRC_ANALYSIS_PROGRAM_VERIFIER_H_
#define ANSOR_SRC_ANALYSIS_PROGRAM_VERIFIER_H_

#include <array>
#include <string>
#include <vector>

#include "src/hwsim/machine_model.h"
#include "src/ir/stage_exprs.h"
#include "src/lower/loop_tree.h"
#include "src/telemetry/trace.h"

namespace ansor {

enum class VerifierCheck {
  kLowering = 0,
  kBufferBounds = 1,
  kIteratorDomain = 2,
  kDefBeforeUse = 3,
  kResourceLimits = 4,
};
inline constexpr int kNumVerifierChecks = 5;

const char* VerifierCheckName(VerifierCheck check);

enum class VerifierVerdict {
  kSkipped,  // not evaluated (e.g. structural checks after a failed lowering)
  kPass,     // proven legal
  kFail,     // proven illegal, or not provable (diagnostics say which)
};

struct CheckVerdict {
  VerifierVerdict verdict = VerifierVerdict::kSkipped;
  // One entry per violation (empty unless verdict == kFail).
  std::vector<std::string> diagnostics;

  bool failed() const { return verdict == VerifierVerdict::kFail; }
};

struct VerifierReport {
  std::array<CheckVerdict, kNumVerifierChecks> checks;

  const CheckVerdict& check(VerifierCheck c) const {
    return checks[static_cast<size_t>(c)];
  }
  CheckVerdict& check(VerifierCheck c) { return checks[static_cast<size_t>(c)]; }

  // True when no check failed (skipped checks do not count against legality;
  // a report whose structural checks passed but whose resource check was
  // never requested is legal as far as it was evaluated).
  bool legal() const {
    for (const CheckVerdict& c : checks) {
      if (c.failed()) {
        return false;
      }
    }
    return true;
  }

  // Multi-line rendering: one line per check with verdict and diagnostics.
  std::string ToString() const;
};

// Runs the machine-independent checks (kLowering, kBufferBounds,
// kIteratorDomain, kDefBeforeUse). Pure function of its arguments; `program`
// must be the lowering of `state`. kResourceLimits is left kSkipped — see
// VerifyResources. A non-null `tracer` records the consult as a
// "verify_structural" span (the verdict is unaffected). kIteratorDomain
// checks the axis reconstructions of DeriveScheduleExprs(state); the second
// form takes the derivation the caller already made for Lower.
VerifierReport VerifyProgram(const State& state, const LoweredProgram& program,
                             const Tracer* tracer = nullptr);
VerifierReport VerifyProgram(const State& state, const std::vector<StageExprs>& exprs,
                             const LoweredProgram& program, const Tracer* tracer = nullptr);

// Everything the resource check reads of a lowered program: the total
// buffer footprint and, in DFS order, every vectorized or thread-bound
// (kThreadX) loop. Machine-independent, so one summary serves every machine.
struct ResourceSummary {
  struct Loop {
    std::string stage;
    IterAnnotation annotation = IterAnnotation::kNone;
    int64_t extent = 0;
  };
  bool lowered = false;  // false: lowering failed and there is nothing to check
  int64_t footprint_bytes = 0;
  std::vector<Loop> loops;
};

ResourceSummary SummarizeResources(const LoweredProgram& program);

// Runs the machine-dependent resource checks against one machine model. Pure
// function of its arguments; returns kSkipped when the program's lowering
// failed (there is nothing to check). A non-null `tracer` records the
// consult as a "verify_resources" span. The LoweredProgram form checks
// SummarizeResources(program): both give the same verdict and diagnostics.
CheckVerdict VerifyResources(const ResourceSummary& summary, const MachineModel& machine,
                             const Tracer* tracer = nullptr);
CheckVerdict VerifyResources(const LoweredProgram& program, const MachineModel& machine,
                             const Tracer* tracer = nullptr);

}  // namespace ansor

#endif  // ANSOR_SRC_ANALYSIS_PROGRAM_VERIFIER_H_
