#include "src/analysis/program_verifier.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/access_pattern.h"
#include "src/expr/affine.h"
#include "src/ir/stage_exprs.h"
#include "src/support/util.h"

namespace ansor {
namespace {

// Proves every buffer access in bounds by interval analysis over the loop
// extents in scope, refined by dominating guard constraints. Guards come from
// two places, and both are matched structurally against subexpressions of the
// index (the lowering and the workload builders reuse the very expression
// they test, so a guard on `x` tightens an index like `x - pad`):
//   * kIf nodes — split guards `reconstruction < extent`;
//   * Select conditions — the evaluator is lazy, so a branch's loads only
//     execute when the condition lands on that branch (the padding idiom:
//     Select(pad <= x && x < h + pad, data[..., x - pad, ...], 0)).
class BoundsChecker {
 public:
  explicit BoundsChecker(CheckVerdict* verdict) : verdict_(verdict) {}

  void Walk(const LoopTreeNode& node) {
    switch (node.kind) {
      case LoopTreeKind::kLoop: {
        int64_t var_id = node.var->var_id;
        var_extent_[var_id] = node.extent;
        for (const LoopTreeNodeRef& child : node.children) {
          Walk(*child);
        }
        var_extent_.erase(var_id);
        return;
      }
      case LoopTreeKind::kIf: {
        size_t before = guards_.size();
        CollectRangeConstraints(node.condition, /*negate=*/false, &guards_);
        for (const LoopTreeNodeRef& child : node.children) {
          Walk(*child);
        }
        guards_.resize(before);
        return;
      }
      case LoopTreeKind::kStore: {
        CheckAccess(node, node.buffer, node.indices, /*is_write=*/true);
        WalkValue(node, node.value);
        return;
      }
    }
  }

 private:
  // Walks the stored value, pushing Select conditions as constraints for the
  // branch they dominate. The condition itself evaluates unconditionally.
  void WalkValue(const LoopTreeNode& store, const Expr& e) {
    if (!e.defined()) {
      return;
    }
    const ExprNode& n = *e.get();
    if (n.kind == ExprKind::kLoad) {
      CheckAccess(store, n.buffer, n.operands, /*is_write=*/false);
      for (const Expr& index : n.operands) {
        WalkValue(store, index);
      }
      return;
    }
    if (n.kind == ExprKind::kSelect) {
      WalkValue(store, n.operands[0]);
      size_t before = guards_.size();
      CollectRangeConstraints(n.operands[0], /*negate=*/false, &guards_);
      WalkValue(store, n.operands[1]);
      guards_.resize(before);
      CollectRangeConstraints(n.operands[0], /*negate=*/true, &guards_);
      WalkValue(store, n.operands[2]);
      guards_.resize(before);
      return;
    }
    for (const Expr& operand : n.operands) {
      WalkValue(store, operand);
    }
  }

  void CheckAccess(const LoopTreeNode& store, const BufferRef& buffer,
                   const std::vector<Expr>& indices, bool is_write) {
    const std::vector<int64_t>& shape = buffer->shape;
    if (indices.size() != shape.size()) {
      Fail(store, buffer, is_write,
           "rank mismatch: " + std::to_string(indices.size()) + " indices for a rank-" +
               std::to_string(shape.size()) + " buffer");
      return;
    }
    for (size_t d = 0; d < shape.size(); ++d) {
      const Expr& index = indices[d];
      ValueRange r = RangeOf(index, var_extent_, guards_);
      if (!r.known) {
        Fail(store, buffer, is_write,
             "dim " + std::to_string(d) + " index " + ToString(index) +
                 " is not statically boundable");
        continue;
      }
      if (r.min > r.max) {
        return;  // unsatisfiable guards: the access is dead code
      }
      if (r.min < 0 || r.max >= shape[d]) {
        Fail(store, buffer, is_write,
             "dim " + std::to_string(d) + " index " + ToString(index) + " spans [" +
                 std::to_string(r.min) + ", " + std::to_string(r.max) + "] outside [0, " +
                 std::to_string(shape[d] - 1) + "]");
      }
    }
  }

  void Fail(const LoopTreeNode& store, const BufferRef& buffer, bool is_write,
            const std::string& message) {
    verdict_->verdict = VerifierVerdict::kFail;
    verdict_->diagnostics.push_back((is_write ? "store to " : "load of ") + buffer->name +
                                    " in stage " + store.stage_name + ": " + message);
  }

  CheckVerdict* verdict_;
  std::unordered_map<int64_t, int64_t> var_extent_;
  std::vector<RangeConstraint> guards_;
};

void CheckBufferBounds(const LoweredProgram& program, CheckVerdict* verdict) {
  verdict->verdict = VerifierVerdict::kPass;
  BoundsChecker checker(verdict);
  for (const LoopTreeNodeRef& root : program.roots) {
    checker.Walk(*root);
  }
}

void CheckIteratorDomains(const State& state, const std::vector<StageExprs>& exprs,
                          CheckVerdict* verdict) {
  CHECK_EQ(exprs.size(), state.stages().size()) << "exprs must be DeriveScheduleExprs(state)";
  verdict->verdict = VerifierVerdict::kPass;
  auto fail = [&](const Stage& stage, const std::string& message) {
    verdict->verdict = VerifierVerdict::kFail;
    verdict->diagnostics.push_back("stage " + stage.name() + ": " + message);
  };

  for (size_t s = 0; s < state.stages().size(); ++s) {
    const Stage& stage = state.stages()[s];
    if (stage.loc.kind == ComputeLocKind::kInlined) {
      continue;  // not lowered; its reconstructions are dead
    }
    const StageExprs& se = exprs[s];
    std::unordered_map<int64_t, int64_t> iter_extent;
    for (size_t i = 0; i < stage.iters.size(); ++i) {
      const Iterator& iter = stage.iters[i];
      if (iter.extent <= 0) {
        fail(stage, "iterator " + iter.name + " has non-positive extent " +
                        std::to_string(iter.extent));
      }
      iter_extent[se.iter_vars[i]->var_id] = iter.extent;
    }
    std::unordered_set<int64_t> referenced;
    for (const auto& [axis_id, extent] : stage.axis_extent) {
      const Expr* value = se.Reconstruction(axis_id);
      if (value == nullptr) {
        fail(stage, "axis " + std::to_string(axis_id) + " has no reconstruction expression");
        continue;
      }
      const Expr& reconstruction = *value;
      std::vector<const ExprNode*> vars;
      CollectVars(reconstruction, &vars);
      bool dangling = false;
      for (const ExprNode* v : vars) {
        referenced.insert(v->var_id);
        if (iter_extent.find(v->var_id) == iter_extent.end()) {
          fail(stage, "reconstruction of axis " + std::to_string(axis_id) +
                          " references dangling variable " + v->var_name);
          dangling = true;
        }
      }
      if (dangling) {
        continue;
      }
      ValueRange r = RangeOf(reconstruction, iter_extent);
      if (!r.known) {
        fail(stage, "reconstruction of axis " + std::to_string(axis_id) + " (" +
                        ToString(reconstruction) + ") is not statically boundable");
        continue;
      }
      bool guarded = stage.guarded_axes.count(axis_id) > 0;
      if (r.min != 0 || r.max < extent - 1) {
        fail(stage, "reconstruction of axis " + std::to_string(axis_id) + " spans [" +
                        std::to_string(r.min) + ", " + std::to_string(r.max) +
                        "], not covering domain [0, " + std::to_string(extent - 1) + "]");
      } else if (!guarded && r.max > extent - 1) {
        fail(stage, "reconstruction of axis " + std::to_string(axis_id) + " overflows to " +
                        std::to_string(r.max) + " past extent " + std::to_string(extent) +
                        " without a guard");
      }
    }
    for (size_t i = 0; i < stage.iters.size(); ++i) {
      const Iterator& iter = stage.iters[i];
      if (referenced.count(se.iter_vars[i]->var_id) == 0) {
        fail(stage, "iterator " + iter.name +
                        " does not contribute to any axis reconstruction (dangling iterator)");
      }
    }
  }
}

class DefUseChecker {
 public:
  DefUseChecker(const std::unordered_set<std::string>* produced, CheckVerdict* verdict)
      : produced_(produced), verdict_(verdict) {}

  void Walk(const LoopTreeNode& node) {
    if (node.kind != LoopTreeKind::kStore) {
      for (const LoopTreeNodeRef& child : node.children) {
        Walk(*child);
      }
      return;
    }
    for (const AccessSite& site : StatementAccessSites(node)) {
      if (!site.is_write) {
        CheckRead(node, site.buffer->name);
      }
    }
    if (node.is_accumulate) {
      // Accumulation reads the previous value of its own buffer: without an
      // earlier initialization store the reduction starts from garbage.
      CheckRead(node, node.buffer->name);
    }
    defined_.insert(node.buffer->name);
  }

 private:
  void CheckRead(const LoopTreeNode& store, const std::string& buffer) {
    if (produced_->count(buffer) > 0 && defined_.count(buffer) == 0) {
      verdict_->verdict = VerifierVerdict::kFail;
      verdict_->diagnostics.push_back("stage " + store.stage_name + " reads " + buffer +
                                      " before any store to it executes");
    }
  }

  const std::unordered_set<std::string>* produced_;
  CheckVerdict* verdict_;
  std::unordered_set<std::string> defined_;
};

void CollectProducedBuffers(const LoopTreeNode& node, std::unordered_set<std::string>* out) {
  if (node.kind == LoopTreeKind::kStore) {
    out->insert(node.buffer->name);
    return;
  }
  for (const LoopTreeNodeRef& child : node.children) {
    CollectProducedBuffers(*child, out);
  }
}

void CheckDefBeforeUse(const LoweredProgram& program, CheckVerdict* verdict) {
  verdict->verdict = VerifierVerdict::kPass;
  std::unordered_set<std::string> produced;
  for (const LoopTreeNodeRef& root : program.roots) {
    CollectProducedBuffers(*root, &produced);
  }
  DefUseChecker checker(&produced, verdict);
  for (const LoopTreeNodeRef& root : program.roots) {
    checker.Walk(*root);
  }
}

void SummarizeLoops(const LoopTreeNode& node, std::vector<ResourceSummary::Loop>* out) {
  if (node.kind == LoopTreeKind::kLoop && (node.annotation == IterAnnotation::kVectorize ||
                                           node.annotation == IterAnnotation::kThreadX)) {
    out->push_back(ResourceSummary::Loop{node.stage_name, node.annotation, node.extent});
  }
  for (const LoopTreeNodeRef& child : node.children) {
    SummarizeLoops(*child, out);
  }
}

}  // namespace

const char* VerifierCheckName(VerifierCheck check) {
  switch (check) {
    case VerifierCheck::kLowering: return "lowering";
    case VerifierCheck::kBufferBounds: return "buffer-bounds";
    case VerifierCheck::kIteratorDomain: return "iterator-domain";
    case VerifierCheck::kDefBeforeUse: return "def-before-use";
    case VerifierCheck::kResourceLimits: return "resource-limits";
  }
  return "unknown";
}

std::string VerifierReport::ToString() const {
  std::ostringstream os;
  for (int i = 0; i < kNumVerifierChecks; ++i) {
    const CheckVerdict& c = checks[static_cast<size_t>(i)];
    const char* verdict = c.verdict == VerifierVerdict::kPass    ? "pass"
                          : c.verdict == VerifierVerdict::kFail  ? "FAIL"
                                                                 : "skipped";
    os << "[" << verdict << "] " << VerifierCheckName(static_cast<VerifierCheck>(i)) << "\n";
    for (const std::string& diag : c.diagnostics) {
      os << "    " << diag << "\n";
    }
  }
  return os.str();
}

VerifierReport VerifyProgram(const State& state, const LoweredProgram& program,
                             const Tracer* tracer) {
  return VerifyProgram(state, DeriveScheduleExprs(state), program, tracer);
}

VerifierReport VerifyProgram(const State& state, const std::vector<StageExprs>& exprs,
                             const LoweredProgram& program, const Tracer* tracer) {
  TraceSpan span(tracer, "verify_structural", "analysis");
  VerifierReport report;
  CheckVerdict& lowering = report.check(VerifierCheck::kLowering);
  if (!program.ok) {
    lowering.verdict = VerifierVerdict::kFail;
    lowering.diagnostics.push_back(program.error.empty() ? "lowering failed" : program.error);
    span.Arg("outcome", "lowering_failed");
    return report;  // structural checks need a loop tree; leave them skipped
  }
  lowering.verdict = VerifierVerdict::kPass;
  CheckBufferBounds(program, &report.check(VerifierCheck::kBufferBounds));
  CheckIteratorDomains(state, exprs, &report.check(VerifierCheck::kIteratorDomain));
  CheckDefBeforeUse(program, &report.check(VerifierCheck::kDefBeforeUse));
  if (span.enabled()) {
    span.Arg("outcome", report.legal() ? "legal" : "illegal");
  }
  return report;
}

ResourceSummary SummarizeResources(const LoweredProgram& program) {
  ResourceSummary summary;
  if (!program.ok) {
    return summary;
  }
  summary.lowered = true;
  for (const auto& [name, buffer] : program.buffers) {
    summary.footprint_bytes += buffer->NumElements() * static_cast<int64_t>(sizeof(float));
  }
  for (const LoopTreeNodeRef& root : program.roots) {
    SummarizeLoops(*root, &summary.loops);
  }
  return summary;
}

CheckVerdict VerifyResources(const ResourceSummary& summary, const MachineModel& machine,
                             const Tracer* tracer) {
  TraceSpan span(tracer, "verify_resources", "analysis");
  CheckVerdict verdict;
  if (!summary.lowered) {
    return verdict;  // kSkipped: nothing to check
  }
  verdict.verdict = VerifierVerdict::kPass;
  auto fail = [&verdict](std::string message) {
    verdict.verdict = VerifierVerdict::kFail;
    verdict.diagnostics.push_back(std::move(message));
  };
  if (machine.memory_capacity_bytes > 0 &&
      summary.footprint_bytes > machine.memory_capacity_bytes) {
    fail("buffer footprint " + std::to_string(summary.footprint_bytes) + " bytes exceeds " +
         machine.name + " memory capacity of " +
         std::to_string(machine.memory_capacity_bytes) + " bytes");
  }
  for (const ResourceSummary::Loop& loop : summary.loops) {
    if (loop.annotation == IterAnnotation::kVectorize && machine.max_vector_extent > 0 &&
        loop.extent > machine.max_vector_extent) {
      fail("stage " + loop.stage + ": vectorized loop extent " + std::to_string(loop.extent) +
           " exceeds the machine's register budget of " +
           std::to_string(machine.max_vector_extent) + " lanes-equivalents");
    }
    if (loop.annotation == IterAnnotation::kThreadX && machine.max_threads_per_core > 0 &&
        loop.extent > machine.max_threads_per_core) {
      fail("stage " + loop.stage + ": thread-bound loop extent " + std::to_string(loop.extent) +
           " exceeds " + std::to_string(machine.max_threads_per_core) +
           " resident threads per core");
    }
  }
  return verdict;
}

CheckVerdict VerifyResources(const LoweredProgram& program, const MachineModel& machine,
                             const Tracer* tracer) {
  return VerifyResources(SummarizeResources(program), machine, tracer);
}

}  // namespace ansor
