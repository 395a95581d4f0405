#include <algorithm>
#include <functional>
#include <sstream>

#include "src/expr/term.h"
#include "src/ir/stage_exprs.h"
#include "src/lower/loop_tree.h"
#include "src/support/util.h"

namespace ansor {
namespace {

class Lowerer {
 public:
  Lowerer(const State& state, const std::vector<StageExprs>& exprs)
      : state_(state), exprs_(exprs) {}

  LoweredProgram Run() {
    CollectBuffers();
    BuildChildrenIndex();
    for (size_t i = 0; i < state_.stages().size(); ++i) {
      const Stage& s = state_.stages()[i];
      if (s.loc.kind != ComputeLocKind::kRoot) {
        continue;
      }
      if (!GenStage(static_cast<int>(i), &prog_.roots)) {
        prog_.ok = false;
        return std::move(prog_);
      }
    }
    prog_.ok = prog_.error.empty();
    return std::move(prog_);
  }

 private:
  bool Fail(const std::string& message) {
    if (prog_.error.empty()) {
      prog_.error = message;
    }
    return false;
  }

  void CollectBuffers() {
    const ComputeDAG* dag = state_.dag();
    for (const OperationRef& op : dag->ops()) {
      if (op->kind == OpKind::kPlaceholder) {
        prog_.buffers[op->name()] = op->output;
      }
    }
    for (const Stage& s : state_.stages()) {
      if (s.loc.kind != ComputeLocKind::kInlined) {
        prog_.buffers[s.name()] = s.op->output;
      }
    }
    for (int out : dag->OutputIndices()) {
      prog_.output_buffers.push_back(dag->op(out)->name());
    }
  }

  void BuildChildrenIndex() {
    for (size_t i = 0; i < state_.stages().size(); ++i) {
      const Stage& s = state_.stages()[i];
      if (s.loc.kind == ComputeLocKind::kAt) {
        children_[s.loc.at_stage][s.loc.at_iter].push_back(static_cast<int>(i));
      }
    }
  }

  // Restriction context for a compute_at stage.
  struct AtContext {
    std::vector<Expr> final_axis;   // per space dim: runtime axis value
    std::vector<bool> guard_dim;    // per space dim
    std::vector<bool> keep_iter;    // per iterator of the stage
  };

  bool ComputeAtContext(int stage_idx, AtContext* ctx) {
    const Stage& s = state_.stage(stage_idx);
    const StageExprs& se = exprs_[static_cast<size_t>(stage_idx)];
    int target_idx = state_.StageIndex(s.loc.at_stage);
    if (target_idx < 0) {
      return Fail("compute_at target missing: " + s.loc.at_stage);
    }
    const Stage& c = state_.stage(target_idx);
    const StageExprs& ce = exprs_[static_cast<size_t>(target_idx)];
    if (c.loc.kind != ComputeLocKind::kRoot) {
      return Fail("compute_at target must be a root stage: " + c.name());
    }
    int level = s.loc.at_iter;
    if (level < 0 || level >= static_cast<int>(c.iters.size())) {
      return Fail("compute_at level out of range in " + c.name());
    }
    size_t ndim = s.op->axis.size();
    if (c.op->axis.size() != ndim) {
      return Fail("compute_at rank mismatch between " + s.name() + " and " + c.name());
    }
    // Identity access check: every load of s's buffer in c's body must index
    // with exactly c's axis variables, in order.
    std::vector<const ExprNode*> loads;
    CollectLoads(c.op->body, &loads);
    bool found = false;
    for (const ExprNode* load : loads) {
      if (load->buffer->name != s.name()) {
        continue;
      }
      found = true;
      for (size_t d = 0; d < ndim; ++d) {
        if (!StructuralEqual(load->operands[d], c.op->axis[d])) {
          return Fail("compute_at requires identity access from " + c.name() + " to " +
                      s.name());
        }
      }
    }
    if (!found) {
      return Fail("compute_at consumer " + c.name() + " does not read " + s.name());
    }

    // Classify the consumer's axis reconstruction into outer prefix and inner
    // coverage per dimension.
    std::unordered_map<int64_t, int> var_pos;
    std::unordered_map<int64_t, int64_t> var_extent;
    for (size_t p = 0; p < c.iters.size(); ++p) {
      var_pos[ce.iter_vars[p]->var_id] = static_cast<int>(p);
      var_extent[ce.iter_vars[p]->var_id] = c.iters[p].extent;
    }
    ctx->final_axis.resize(ndim);
    ctx->guard_dim.assign(ndim, false);
    std::vector<int64_t> coverage(ndim, 1);
    for (size_t d = 0; d < ndim; ++d) {
      int64_t axis_id = c.op->axis[d]->var_id;
      const Expr* value = ce.Reconstruction(axis_id);
      if (value == nullptr) {
        return Fail("missing axis reconstruction in " + c.name());
      }
      std::vector<Expr> terms;
      FlattenAddTerms(*value, &terms);
      Expr prefix;
      int64_t inner_max = 0;
      std::vector<std::pair<int64_t, int64_t>> inner_parts;  // (multiplier, extent)
      for (const Expr& term : terms) {
        AxisTerm at;
        if (!MatchAxisTerm(term, var_extent, &at)) {
          // Composite term (e.g. a fused-then-split loop variable pair). If
          // every variable it references lives in the outer loops it is still
          // a valid prefix contribution; inner composites are unsupported.
          std::vector<const ExprNode*> term_vars;
          CollectVars(term, &term_vars);
          bool all_outer = !term_vars.empty();
          for (const ExprNode* v : term_vars) {
            auto pit = var_pos.find(v->var_id);
            if (pit == var_pos.end() || pit->second > level) {
              all_outer = false;
              break;
            }
          }
          if (!all_outer) {
            return Fail("unsupported axis term in " + c.name() + ": " + ToString(term));
          }
          prefix = prefix.defined() ? prefix + term : term;
          continue;
        }
        if (at.is_constant) {
          prefix = prefix.defined() ? prefix + term : term;
          continue;
        }
        int pos = var_pos.at(at.var_id);
        if (pos <= level) {
          prefix = prefix.defined() ? prefix + term : term;
        } else {
          inner_max += (at.component_extent - 1) * at.multiplier;
          inner_parts.emplace_back(at.multiplier, at.component_extent);
        }
      }
      // Verify the inner terms tile a contiguous range [0, coverage).
      std::sort(inner_parts.begin(), inner_parts.end());
      int64_t expect = 1;
      for (const auto& [mult, ext] : inner_parts) {
        if (mult != expect) {
          return Fail("non-contiguous inner tiling of axis in " + c.name());
        }
        expect = mult * ext;
      }
      coverage[d] = inner_max + 1;
      if (expect != coverage[d]) {
        return Fail("inner tiling coverage mismatch in " + c.name());
      }
      ctx->final_axis[d] = prefix.defined() ? prefix : Expr(IntImm(0));
      ctx->guard_dim[d] = c.guarded_axes.count(axis_id) > 0;
    }

    // Decide which of s's iterators survive: space iterators with stride <
    // coverage of their dimension (the rest are fixed by the consumer's outer
    // loops); reduce iterators always survive.
    std::unordered_map<int64_t, size_t> axis_dim;
    for (size_t d = 0; d < ndim; ++d) {
      axis_dim[s.op->axis[d]->var_id] = d;
    }
    ctx->keep_iter.assign(s.iters.size(), true);
    std::vector<int64_t> kept_max(ndim, 0);
    std::vector<Expr> pinned_zero;
    for (size_t p = 0; p < s.iters.size(); ++p) {
      const Iterator& it = s.iters[p];
      if (it.kind == IterKind::kReduce) {
        continue;
      }
      if (it.orig_axis_id < 0 || axis_dim.count(it.orig_axis_id) == 0) {
        return Fail("compute_at producer " + s.name() + " has a mixed space iterator");
      }
      size_t d = axis_dim[it.orig_axis_id];
      if (it.stride >= coverage[d]) {
        ctx->keep_iter[p] = false;
        pinned_zero.push_back(se.iter_vars[p]);
      } else {
        kept_max[d] += (it.extent - 1) * it.stride;
      }
    }
    for (size_t d = 0; d < ndim; ++d) {
      if (kept_max[d] + 1 != coverage[d]) {
        return Fail("producer tile of " + s.name() + " does not match consumer coverage (" +
                    std::to_string(kept_max[d] + 1) + " vs " + std::to_string(coverage[d]) +
                    ")");
      }
    }
    // final_axis[d] += s's local reconstruction with pinned vars zeroed.
    std::unordered_map<int64_t, bool> pinned_ids;
    for (const Expr& v : pinned_zero) {
      pinned_ids[v->var_id] = true;
    }
    for (size_t d = 0; d < ndim; ++d) {
      int64_t axis_id = s.op->axis[d]->var_id;
      const Expr* value = se.Reconstruction(axis_id);
      if (value == nullptr) {
        return Fail("missing axis reconstruction in " + s.name());
      }
      Expr local = Substitute(*value, [&](const ExprNode& var) {
        return pinned_ids.count(var.var_id) > 0 ? Expr(IntImm(0)) : Expr();
      });
      ctx->final_axis[d] = ctx->final_axis[d] + local;
      ctx->guard_dim[d] = ctx->guard_dim[d] || s.guarded_axes.count(axis_id) > 0;
    }
    return true;
  }

  // Builds the store statement (and a matching init store for reductions).
  struct StoreInfo {
    LoopTreeNodeRef store;
    LoopTreeNodeRef init;  // null when not a reduction
    Expr guard;            // null when no guard needed
    Expr init_guard;
  };

  bool BuildStores(const Stage& s, const StageExprs& se, const std::vector<Expr>& final_axis,
                   const std::vector<bool>& guard_dim, StoreInfo* out) {
    size_t ndim = s.op->axis.size();
    std::vector<Expr> indices(final_axis.begin(), final_axis.begin() + ndim);

    // Substitution: original axis vars -> runtime exprs.
    std::unordered_map<int64_t, Expr> bindings;
    for (size_t d = 0; d < ndim; ++d) {
      bindings[s.op->axis[d]->var_id] = final_axis[d];
    }
    Expr space_guard;
    for (size_t d = 0; d < ndim; ++d) {
      if (!guard_dim[d]) {
        continue;
      }
      Expr cond = final_axis[d] < IntImm(s.op->output->shape[d]);
      space_guard = space_guard.defined() ? (space_guard && cond) : cond;
    }

    bool is_reduce = s.op->body.defined() && s.op->body.kind() == ExprKind::kReduce;
    Expr guard = space_guard;
    Expr value;
    if (is_reduce) {
      const ExprNode& red = *s.op->body.get();
      for (const Expr& axis : red.reduce_axes) {
        const Expr* reconstruction = se.Reconstruction(axis->var_id);
        if (reconstruction == nullptr) {
          return Fail("missing reduce axis reconstruction in " + s.name());
        }
        bindings[axis->var_id] = *reconstruction;
        if (s.guarded_axes.count(axis->var_id) > 0) {
          Expr cond = *reconstruction < IntImm(axis->var_extent);
          guard = guard.defined() ? (guard && cond) : cond;
        }
      }
      value = red.operands[0];
    } else {
      value = s.op->body;
    }
    value = Substitute(value, [&](const ExprNode& var) {
      auto it = bindings.find(var.var_id);
      return it == bindings.end() ? Expr() : it->second;
    });

    auto store = std::make_unique<LoopTreeNode>();
    store->kind = LoopTreeKind::kStore;
    store->buffer = s.op->output;
    store->indices = indices;
    store->value = std::move(value);
    store->stage_name = s.name();
    store->auto_unroll_max_step = s.auto_unroll_max_step;
    if (is_reduce) {
      const ExprNode& red = *s.op->body.get();
      store->is_accumulate = true;
      store->reduce_kind = red.reduce_kind;

      auto init = std::make_unique<LoopTreeNode>();
      init->kind = LoopTreeKind::kStore;
      init->buffer = s.op->output;
      init->indices = indices;
      init->is_init = true;
      init->stage_name = s.name();
      switch (red.reduce_kind) {
        case ReduceKind::kSum:
          init->value = red.operands.size() > 1 ? red.operands[1] : Expr(FloatImm(0.0));
          break;
        case ReduceKind::kMax:
          init->value = FloatImm(-1e30);
          break;
        case ReduceKind::kMin:
          init->value = FloatImm(1e30);
          break;
      }
      out->init = std::move(init);
      out->init_guard = space_guard;
    }
    out->store = std::move(store);
    out->guard = guard;
    return true;
  }

  LoopTreeNodeRef MakeLoop(const Iterator& it, const Expr& var, const std::string& stage_name) {
    auto loop = std::make_unique<LoopTreeNode>();
    loop->kind = LoopTreeKind::kLoop;
    loop->var = var;
    loop->extent = it.extent;
    loop->annotation = it.annotation;
    loop->iter_kind = it.kind;
    loop->stage_name = stage_name;
    return loop;
  }

  LoopTreeNodeRef WrapGuard(Expr guard, LoopTreeNodeRef body, const std::string& stage_name) {
    if (!guard.defined()) {
      return body;
    }
    auto node = std::make_unique<LoopTreeNode>();
    node->kind = LoopTreeKind::kIf;
    node->condition = std::move(guard);
    node->stage_name = stage_name;
    node->children.push_back(std::move(body));
    return node;
  }

  // Emits the loop nests for one stage into *out. Root stages may host
  // compute_at children at loop levels.
  bool GenStage(int stage_idx, std::vector<LoopTreeNodeRef>* out) {
    const Stage& s = state_.stage(stage_idx);
    const StageExprs& se = exprs_[static_cast<size_t>(stage_idx)];

    std::vector<Expr> final_axis;
    std::vector<bool> guard_dim;
    std::vector<bool> keep_iter(s.iters.size(), true);
    bool is_root = s.loc.kind == ComputeLocKind::kRoot;
    if (is_root) {
      size_t ndim = s.op->axis.size();
      final_axis.resize(ndim);
      guard_dim.assign(ndim, false);
      for (size_t d = 0; d < ndim; ++d) {
        int64_t axis_id = s.op->axis[d]->var_id;
        const Expr* value = se.Reconstruction(axis_id);
        if (value == nullptr) {
          return Fail("missing axis reconstruction in " + s.name());
        }
        final_axis[d] = *value;
        guard_dim[d] = s.guarded_axes.count(axis_id) > 0;
      }
    } else {
      AtContext ctx;
      if (!ComputeAtContext(stage_idx, &ctx)) {
        return false;
      }
      final_axis = std::move(ctx.final_axis);
      guard_dim = std::move(ctx.guard_dim);
      keep_iter = std::move(ctx.keep_iter);
    }

    StoreInfo stores;
    if (!BuildStores(s, se, final_axis, guard_dim, &stores)) {
      return false;
    }

    // Init nest: kept space iterators only.
    if (stores.init != nullptr) {
      LoopTreeNodeRef body = WrapGuard(std::move(stores.init_guard), std::move(stores.init),
                                       s.name());
      for (size_t p = s.iters.size(); p > 0; --p) {
        const Iterator& it = s.iters[p - 1];
        if (!keep_iter[p - 1] || it.kind != IterKind::kSpace) {
          continue;
        }
        // Init loops reuse the same loop variables; annotations carry over so
        // the simulator sees the same parallel structure.
        LoopTreeNodeRef loop = MakeLoop(it, se.iter_vars[p - 1], s.name());
        loop->children.push_back(std::move(body));
        body = std::move(loop);
      }
      out->push_back(std::move(body));
    }

    // Main nest, inserting compute_at children at their levels. Build from
    // the innermost statement outwards.
    LoopTreeNodeRef body = WrapGuard(std::move(stores.guard), std::move(stores.store),
                                     s.name());
    auto cit = children_.find(s.name());
    for (size_t p = s.iters.size(); p > 0; --p) {
      const Iterator& it = s.iters[p - 1];
      if (!keep_iter[p - 1]) {
        continue;
      }
      LoopTreeNodeRef loop = MakeLoop(it, se.iter_vars[p - 1], s.name());
      // Children registered at this level run before the deeper body.
      if (is_root && cit != children_.end()) {
        auto lit = cit->second.find(static_cast<int>(p - 1));
        if (lit != cit->second.end()) {
          for (int child : lit->second) {
            if (!GenStage(child, &loop->children)) {
              return false;
            }
          }
        }
      }
      loop->children.push_back(std::move(body));
      body = std::move(loop);
    }
    out->push_back(std::move(body));
    return true;
  }

  const State& state_;
  const std::vector<StageExprs>& exprs_;
  LoweredProgram prog_;
  std::unordered_map<std::string, std::unordered_map<int, std::vector<int>>> children_;
};

void PrintNode(const LoopTreeNode& node, int indent, std::ostringstream* os) {
  auto pad = [&] {
    for (int i = 0; i < indent; ++i) {
      *os << "  ";
    }
  };
  pad();
  switch (node.kind) {
    case LoopTreeKind::kLoop:
      if (node.annotation != IterAnnotation::kNone) {
        *os << IterAnnotationName(node.annotation) << " ";
      } else {
        *os << "for ";
      }
      *os << node.var->var_name << " in range(" << node.extent << ")\n";
      break;
    case LoopTreeKind::kIf:
      *os << "if " << ToString(node.condition) << "\n";
      break;
    case LoopTreeKind::kStore:
      *os << node.buffer->name << "[";
      for (size_t i = 0; i < node.indices.size(); ++i) {
        if (i > 0) {
          *os << ", ";
        }
        *os << ToString(node.indices[i]);
      }
      *os << "]";
      if (node.is_init) {
        *os << " = " << ToString(node.value) << "  // init\n";
      } else if (node.is_accumulate) {
        *os << " <@= " << ToString(node.value) << "\n";
      } else {
        *os << " = " << ToString(node.value) << "\n";
      }
      return;
  }
  for (const LoopTreeNodeRef& child : node.children) {
    PrintNode(*child, indent + 1, os);
  }
}

}  // namespace

std::string LoweredProgram::ToString() const {
  std::ostringstream os;
  if (!ok) {
    os << "<lowering failed: " << error << ">\n";
    return os.str();
  }
  for (const LoopTreeNodeRef& root : roots) {
    PrintNode(*root, 0, &os);
  }
  return os.str();
}

LoweredProgram Lower(const State& state) {
  return Lower(state, DeriveScheduleExprs(state));
}

LoweredProgram Lower(const State& state, const std::vector<StageExprs>& exprs) {
  if (state.failed()) {
    LoweredProgram prog;
    prog.error = "state failed: " + state.error();
    return prog;
  }
  CHECK_EQ(exprs.size(), state.stages().size()) << "exprs must be DeriveScheduleExprs(state)";
  return Lowerer(state, exprs).Run();
}

}  // namespace ansor
