// The expressions a stage's schedule implies, derived from its plain-data
// loop structure.
//
// A State records split and fuse as integer relations over iterator ids
// (Stage::relations), so replaying steps builds no expression. Lowering,
// the structural verifier and rfactor need expressions: a loop Var per
// iterator, and for each original axis its reconstruction over those Vars
// (`v0*m0 + ... + vk` for a split, `(f / t) % e` for a fuse component).
// DeriveStageExprs builds both; it is the only place they are built.
#ifndef ANSOR_SRC_IR_STAGE_EXPRS_H_
#define ANSOR_SRC_IR_STAGE_EXPRS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/ir/state.h"

namespace ansor {

struct StageExprs {
  // One fresh Var per iterator, parallel to Stage::iters, named after the
  // iterator and carrying its extent.
  std::vector<Expr> iter_vars;
  // (original axis var id, reconstruction over iter_vars), in the order of
  // the stage's kAxis relations. A relation whose iterator is neither a
  // current iterator nor defined by a later relation (a corrupted record)
  // yields a Var that no iterator owns, which the verifier reports as
  // dangling.
  std::vector<std::pair<int64_t, Expr>> reconstructions;

  // The reconstruction of `axis_id`, or null when the record has none.
  const Expr* Reconstruction(int64_t axis_id) const;
};

// Derives a stage's loop Vars and axis reconstructions. Each call builds
// fresh Vars, so two derivations of one stage share no variable: a consumer
// must take the loop Vars and the reconstructions from the same derivation.
StageExprs DeriveStageExprs(const Stage& stage);

// DeriveStageExprs for every stage of a state, indexed like
// State::stages(). Inlined stages are never lowered and get empty entries.
// A program build derives once and hands the result to both Lower and
// VerifyProgram.
std::vector<StageExprs> DeriveScheduleExprs(const State& state);

}  // namespace ansor

#endif  // ANSOR_SRC_IR_STAGE_EXPRS_H_
