#include "src/ir/stage_exprs.h"

#include <algorithm>
#include <string>

namespace ansor {

const Expr* StageExprs::Reconstruction(int64_t axis_id) const {
  for (const auto& [axis, value] : reconstructions) {
    if (axis == axis_id) {
      return &value;
    }
  }
  return nullptr;
}

StageExprs DeriveStageExprs(const Stage& stage) {
  StageExprs out;
  int max_id = -1;
  for (const Iterator& it : stage.iters) {
    max_id = std::max(max_id, it.id);
  }
  for (const IterRelation& r : stage.relations) {
    max_id = std::max({max_id, r.iter, r.over});
  }
  // value[id]: the expression of iterator `id` over the current iterators.
  std::vector<Expr> value(static_cast<size_t>(max_id + 1));
  out.iter_vars.reserve(stage.iters.size());
  for (const Iterator& it : stage.iters) {
    Expr var = MakeVar(it.name, it.extent);
    if (it.id >= 0) {
      value[static_cast<size_t>(it.id)] = var;
    }
    out.iter_vars.push_back(std::move(var));
  }
  auto value_of = [&](int id) -> Expr {
    if (id < 0) {
      return MakeVar("<iterator " + std::to_string(id) + ">");
    }
    Expr& v = value[static_cast<size_t>(id)];
    if (!v.defined()) {
      v = MakeVar("<iterator " + std::to_string(id) + ">");
    }
    return v;
  };

  // Every relation defines an older iterator over newer ones, so walking the
  // record backwards finds each `over` already expressed.
  const std::vector<IterRelation>& rel = stage.relations;
  for (size_t end = rel.size(); end > 0;) {
    const IterRelation& last = rel[end - 1];
    if (last.kind == IterRelationKind::kAxis) {
      --end;
      continue;
    }
    if (last.kind == IterRelationKind::kFuse) {
      Expr v = value_of(last.over);
      if (last.factor != 1) {
        v = v / IntImm(last.factor);
      }
      if (last.modulus != 0) {
        v = v % IntImm(last.modulus);
      }
      if (last.iter >= 0) {
        value[static_cast<size_t>(last.iter)] = std::move(v);
      }
      --end;
      continue;
    }
    // A split's parts are consecutive entries with the same `iter`; their
    // sum is built outermost first.
    size_t begin = end - 1;
    while (begin > 0 && rel[begin - 1].kind == IterRelationKind::kSplit &&
           rel[begin - 1].iter == last.iter) {
      --begin;
    }
    Expr sum;
    for (size_t j = begin; j < end; ++j) {
      Expr term = value_of(rel[j].over);
      if (rel[j].factor != 1) {
        term = term * IntImm(rel[j].factor);
      }
      sum = sum.defined() ? sum + term : term;
    }
    if (last.iter >= 0) {
      value[static_cast<size_t>(last.iter)] = std::move(sum);
    }
    end = begin;
  }

  for (const IterRelation& r : rel) {
    if (r.kind == IterRelationKind::kAxis) {
      out.reconstructions.emplace_back(r.axis_id, value_of(r.over));
    }
  }
  return out;
}

std::vector<StageExprs> DeriveScheduleExprs(const State& state) {
  std::vector<StageExprs> out(state.stages().size());
  for (size_t i = 0; i < out.size(); ++i) {
    const Stage& stage = state.stages()[i];
    if (stage.loc.kind != ComputeLocKind::kInlined) {
      out[i] = DeriveStageExprs(stage);
    }
  }
  return out;
}

}  // namespace ansor
