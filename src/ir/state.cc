#include "src/ir/state.h"

#include <algorithm>
#include <sstream>

#include "src/ir/stage_exprs.h"

namespace ansor {
namespace {

// *product = a * b; true (and *product unspecified) when the int64 product
// overflows. Split lengths come from the sampler, mutation and persisted
// records alike, so an overflowing product must fail the step, not the
// process.
bool MulOverflows(int64_t a, int64_t b, int64_t* product) {
  return __builtin_mul_overflow(a, b, product);
}

}  // namespace

int Stage::FindIter(const std::string& iter_name) const {
  for (size_t i = 0; i < iters.size(); ++i) {
    if (iters[i].name == iter_name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

State::State(const ComputeDAG* dag) : dag_(dag) {
  CHECK(dag != nullptr);
  for (const OperationRef& op : dag->ops()) {
    if (op->kind != OpKind::kCompute) {
      continue;
    }
    Stage stage;
    stage.op = op;
    stages_.push_back(std::move(stage));
    ResetStageIters(&stages_.back());
  }
  for (size_t i = 0; i < stages_.size(); ++i) {
    stage_index_[stages_[i].name()] = static_cast<int>(i);
  }
}

void State::ResetStageIters(Stage* stage) {
  stage->iters.clear();
  stage->relations.clear();
  stage->axis_extent.clear();
  stage->guarded_axes.clear();
  const OperationRef& op = stage->op;
  auto add_axis = [&](const Expr& axis, IterKind kind) {
    Iterator it;
    it.name = axis->var_name;
    it.extent = axis->var_extent;
    it.kind = kind;
    it.id = next_iter_id_++;
    it.orig_axis_id = axis->var_id;
    it.stride = 1;
    IterRelation root;
    root.kind = IterRelationKind::kAxis;
    root.over = it.id;
    root.axis_id = axis->var_id;
    stage->relations.push_back(root);
    stage->axis_extent[axis->var_id] = axis->var_extent;
    stage->iters.push_back(std::move(it));
  };
  for (const Expr& axis : op->axis) {
    add_axis(axis, IterKind::kSpace);
  }
  for (const Expr& axis : op->ReduceAxes()) {
    add_axis(axis, IterKind::kReduce);
  }
}

int State::StageIndex(const std::string& name) const {
  auto it = stage_index_.find(name);
  return it == stage_index_.end() ? -1 : it->second;
}

bool State::Fail(const std::string& message) {
  failed_ = true;
  error_ = message;
  return false;
}

// --- Public primitives --------------------------------------------------------

bool State::Split(const std::string& stage, int iter, const std::vector<int64_t>& lengths) {
  Step step = MakeSplitStep(stage, iter, lengths);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

bool State::FollowSplit(const std::string& stage, int iter, int src_step, int n_parts) {
  Step step = MakeFollowSplitStep(stage, iter, src_step, n_parts);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

bool State::Fuse(const std::string& stage, int first_iter, int count) {
  Step step = MakeFuseStep(stage, first_iter, count);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

bool State::Reorder(const std::string& stage, const std::vector<int>& order) {
  Step step = MakeReorderStep(stage, order);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

bool State::ComputeAt(const std::string& stage, const std::string& target, int target_iter) {
  Step step = MakeComputeAtStep(stage, target, target_iter);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

bool State::ComputeInline(const std::string& stage) {
  Step step = MakeComputeInlineStep(stage);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

bool State::ComputeRoot(const std::string& stage) {
  Step step = MakeComputeRootStep(stage);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

bool State::CacheWrite(const std::string& stage, int* new_stage) {
  Step step = MakeCacheWriteStep(stage);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  if (new_stage != nullptr) {
    *new_stage = last_new_stage_;
  }
  return true;
}

bool State::Rfactor(const std::string& stage, int iter, int* new_stage) {
  Step step = MakeRfactorStep(stage, iter);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  if (new_stage != nullptr) {
    *new_stage = last_new_stage_;
  }
  return true;
}

bool State::Annotate(const std::string& stage, int iter, IterAnnotation ann) {
  Step step = MakeAnnotationStep(stage, iter, ann);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

bool State::Pragma(const std::string& stage, int auto_unroll_max_step) {
  Step step = MakePragmaStep(stage, auto_unroll_max_step);
  if (!ApplyStep(step)) {
    return false;
  }
  steps_.push_back(std::move(step));
  return true;
}

// --- Step application ---------------------------------------------------------

bool State::ApplyStep(const Step& step) {
  if (failed_) {
    return false;
  }
  int stage_idx = StageIndex(step.stage);
  if (stage_idx < 0) {
    return Fail("unknown stage " + step.stage);
  }
  switch (step.kind) {
    case StepKind::kSplit:
      return ApplySplit(step, step.lengths);
    case StepKind::kFollowSplit: {
      if (step.src_step < 0 || step.src_step >= static_cast<int>(steps_.size())) {
        return Fail("follow_split source step out of range");
      }
      const Step& src = steps_[static_cast<size_t>(step.src_step)];
      if (src.kind != StepKind::kSplit) {
        return Fail("follow_split source is not a split");
      }
      int n_src_parts = static_cast<int>(src.lengths.size()) + 1;
      if (step.n_parts < 2 || step.n_parts > n_src_parts) {
        return Fail("follow_split invalid part count");
      }
      std::vector<int64_t> lengths;
      for (int j = 0; j + 2 < step.n_parts; ++j) {
        lengths.push_back(src.lengths[static_cast<size_t>(j)]);
      }
      int64_t tail = 1;
      for (size_t j = static_cast<size_t>(step.n_parts) - 2; j < src.lengths.size(); ++j) {
        tail *= src.lengths[j];
      }
      lengths.push_back(tail);
      return ApplySplit(step, lengths);
    }
    case StepKind::kFuse:
      return ApplyFuse(step);
    case StepKind::kReorder:
      return ApplyReorder(step);
    case StepKind::kComputeAt:
      return ApplyComputeAt(step);
    case StepKind::kComputeInline:
      return ApplyComputeInline(step);
    case StepKind::kComputeRoot: {
      Stage& s = stages_[static_cast<size_t>(stage_idx)];
      s.loc = StageLoc{};
      return true;
    }
    case StepKind::kCacheWrite:
      return ApplyCacheWrite(step);
    case StepKind::kRfactor:
      return ApplyRfactor(step);
    case StepKind::kAnnotation: {
      Stage& s = stages_[static_cast<size_t>(stage_idx)];
      if (step.iter < 0 || step.iter >= static_cast<int>(s.iters.size())) {
        return Fail("annotation iterator out of range");
      }
      s.iters[static_cast<size_t>(step.iter)].annotation = step.annotation;
      return true;
    }
    case StepKind::kPragma: {
      Stage& s = stages_[static_cast<size_t>(stage_idx)];
      s.auto_unroll_max_step = step.pragma_value;
      return true;
    }
  }
  return Fail("unknown step kind");
}

bool State::ApplySplit(const Step& step, const std::vector<int64_t>& lengths) {
  Stage& stage = stages_[static_cast<size_t>(StageIndex(step.stage))];
  if (step.iter < 0 || step.iter >= static_cast<int>(stage.iters.size())) {
    return Fail("split iterator out of range in " + step.stage);
  }
  if (lengths.empty()) {
    return Fail("split needs at least one length");
  }
  Iterator old_iter = stage.iters[static_cast<size_t>(step.iter)];
  int64_t prod = 1;
  for (int64_t l : lengths) {
    if (l <= 0) {
      return Fail("split length must be positive");
    }
    if (MulOverflows(prod, l, &prod)) {
      return Fail("split lengths overflow in " + step.stage);
    }
  }
  // ceil(extent / prod) without CeilDiv's `extent + prod - 1`, which can
  // overflow for a valid `prod` near the int64 limit.
  int64_t outer_extent = old_iter.extent / prod + (old_iter.extent % prod != 0 ? 1 : 0);
  int64_t covered = 0;
  if (MulOverflows(outer_extent, prod, &covered)) {
    return Fail("split lengths overflow in " + step.stage);
  }
  // The outer part's stride is the largest new stride: every other one is
  // old stride times a suffix product of `lengths`, which divides `prod`.
  int64_t outer_stride = 0;
  if (MulOverflows(old_iter.stride, prod, &outer_stride)) {
    return Fail("split strides overflow in " + step.stage);
  }
  bool exact = covered == old_iter.extent;
  if (!exact && old_iter.orig_axis_id < 0) {
    return Fail("non-exact split of a fused iterator in " + step.stage);
  }
  if (!exact) {
    stage.guarded_axes.insert(old_iter.orig_axis_id);
  }

  // New iterators: [outer, lengths...]. The old value decomposes as
  //   v = v0 * m0 + v1 * m1 + ... + vk (m_j = product of extents after j),
  // recorded as one kSplit relation per part.
  size_t n_parts = lengths.size() + 1;
  size_t first = static_cast<size_t>(step.iter);
  stage.iters.insert(stage.iters.begin() + step.iter + 1, n_parts - 1, Iterator());
  size_t rel = stage.relations.size();
  stage.relations.resize(rel + n_parts);
  int64_t multiplier = 1;
  for (size_t j = n_parts; j-- > 0;) {
    Iterator& it = stage.iters[first + j];
    it.name = old_iter.name;
    it.name += '.';
    it.name += std::to_string(j);
    it.extent = j == 0 ? outer_extent : lengths[j - 1];
    it.kind = old_iter.kind;
    it.annotation = IterAnnotation::kNone;
    it.id = next_iter_id_ + static_cast<int>(j);
    it.orig_axis_id = old_iter.orig_axis_id;
    it.stride = old_iter.stride * multiplier;
    IterRelation& part = stage.relations[rel + j];
    part.kind = IterRelationKind::kSplit;
    part.iter = old_iter.id;
    part.over = it.id;
    part.factor = multiplier;
    multiplier *= it.extent;
  }
  next_iter_id_ += static_cast<int>(n_parts);
  // Remap compute_at children anchored below the split point: a child at the
  // split iterator moves to its innermost part.
  int added = static_cast<int>(n_parts) - 1;
  for (Stage& other : stages_) {
    if (other.loc.kind == ComputeLocKind::kAt && other.loc.at_stage == step.stage &&
        other.loc.at_iter >= step.iter) {
      other.loc.at_iter += added;
    }
  }
  return true;
}

bool State::ApplyFuse(const Step& step) {
  Stage& stage = stages_[static_cast<size_t>(StageIndex(step.stage))];
  int first = step.iter;
  int count = step.fuse_count;
  if (first < 0 || count < 2 || first + count > static_cast<int>(stage.iters.size())) {
    return Fail("fuse range out of bounds in " + step.stage);
  }
  for (int j = 1; j < count; ++j) {
    if (stage.iters[static_cast<size_t>(first + j)].kind !=
        stage.iters[static_cast<size_t>(first)].kind) {
      return Fail("cannot fuse space and reduce iterators");
    }
  }

  int64_t fused_extent = 1;
  for (int j = 0; j < count; ++j) {
    if (MulOverflows(fused_extent, stage.iters[static_cast<size_t>(first + j)].extent,
                     &fused_extent)) {
      return Fail("fused extent overflows in " + step.stage);
    }
  }
  Iterator fused;
  for (int j = 0; j < count; ++j) {
    if (j > 0) {
      fused.name += '@';
    }
    fused.name += stage.iters[static_cast<size_t>(first + j)].name;
  }
  fused.extent = fused_extent;
  fused.kind = stage.iters[static_cast<size_t>(first)].kind;
  fused.id = next_iter_id_++;

  // Provenance: the fuse preserves a single-axis identity only when all
  // components come from the same axis with contiguous strides.
  bool same_axis = true;
  for (int j = 0; j < count; ++j) {
    const Iterator& it = stage.iters[static_cast<size_t>(first + j)];
    if (it.orig_axis_id < 0 ||
        it.orig_axis_id != stage.iters[static_cast<size_t>(first)].orig_axis_id) {
      same_axis = false;
      break;
    }
  }
  if (same_axis) {
    for (int j = 0; j + 1 < count; ++j) {
      const Iterator& hi = stage.iters[static_cast<size_t>(first + j)];
      const Iterator& lo = stage.iters[static_cast<size_t>(first + j + 1)];
      if (hi.stride != lo.stride * lo.extent) {
        same_axis = false;
        break;
      }
    }
  }
  if (same_axis) {
    fused.orig_axis_id = stage.iters[static_cast<size_t>(first)].orig_axis_id;
    fused.stride = stage.iters[static_cast<size_t>(first + count - 1)].stride;
  } else {
    fused.orig_axis_id = -1;
    fused.stride = 1;
  }

  // Old component j reconstructs as (fused / prod(extents after j)) % extent_j,
  // recorded as one kFuse relation per component.
  size_t rel = stage.relations.size();
  stage.relations.resize(rel + static_cast<size_t>(count));
  int64_t tail = 1;
  for (int j = count - 1; j >= 0; --j) {
    const Iterator& it = stage.iters[static_cast<size_t>(first + j)];
    IterRelation& component = stage.relations[rel + static_cast<size_t>(j)];
    component.kind = IterRelationKind::kFuse;
    component.iter = it.id;
    component.over = fused.id;
    component.factor = tail;
    component.modulus = j > 0 ? it.extent : 0;
    tail *= it.extent;
  }

  stage.iters.erase(stage.iters.begin() + first, stage.iters.begin() + first + count);
  stage.iters.insert(stage.iters.begin() + first, std::move(fused));
  // Remap compute_at children: anchors inside the fused range collapse onto
  // the fused iterator; later anchors shift up.
  for (Stage& other : stages_) {
    if (other.loc.kind != ComputeLocKind::kAt || other.loc.at_stage != step.stage) {
      continue;
    }
    if (other.loc.at_iter >= first + count) {
      other.loc.at_iter -= count - 1;
    } else if (other.loc.at_iter >= first) {
      other.loc.at_iter = first;
    }
  }
  return true;
}

bool State::ApplyReorder(const Step& step) {
  Stage& stage = stages_[static_cast<size_t>(StageIndex(step.stage))];
  if (step.order.size() != stage.iters.size()) {
    return Fail("reorder permutation size mismatch in " + step.stage);
  }
  std::vector<bool> seen(stage.iters.size(), false);
  for (int idx : step.order) {
    if (idx < 0 || idx >= static_cast<int>(stage.iters.size()) ||
        seen[static_cast<size_t>(idx)]) {
      return Fail("reorder is not a permutation in " + step.stage);
    }
    seen[static_cast<size_t>(idx)] = true;
  }
  std::vector<Iterator> new_iters;
  new_iters.reserve(stage.iters.size());
  for (int idx : step.order) {
    new_iters.push_back(stage.iters[static_cast<size_t>(idx)]);
  }
  stage.iters = std::move(new_iters);
  // Remap compute_at anchors to the iterator's new position.
  for (Stage& other : stages_) {
    if (other.loc.kind != ComputeLocKind::kAt || other.loc.at_stage != step.stage) {
      continue;
    }
    for (size_t pos = 0; pos < step.order.size(); ++pos) {
      if (step.order[pos] == other.loc.at_iter) {
        other.loc.at_iter = static_cast<int>(pos);
        break;
      }
    }
  }
  return true;
}

bool State::ApplyComputeAt(const Step& step) {
  Stage& stage = stages_[static_cast<size_t>(StageIndex(step.stage))];
  int target_idx = StageIndex(step.target_stage);
  if (target_idx < 0) {
    return Fail("compute_at target stage not found: " + step.target_stage);
  }
  const Stage& target = stages_[static_cast<size_t>(target_idx)];
  if (step.target_iter < 0 || step.target_iter >= static_cast<int>(target.iters.size())) {
    return Fail("compute_at target iterator out of range");
  }
  if (step.target_stage == step.stage) {
    return Fail("compute_at onto itself");
  }
  stage.loc.kind = ComputeLocKind::kAt;
  stage.loc.at_stage = step.target_stage;
  stage.loc.at_iter = step.target_iter;
  return true;
}

bool State::ApplyComputeInline(const Step& step) {
  Stage& stage = stages_[static_cast<size_t>(StageIndex(step.stage))];
  if (HasReduce(stage.op->body)) {
    return Fail("cannot inline a reduction stage: " + step.stage);
  }
  const OperationRef producer = stage.op;
  // Replace loads of this buffer in all other stages with the body, binding
  // axis vars to the load's index expressions. A consumer the DAG already
  // rewrote this way (both ops still the DAG's own) takes the shared op.
  for (Stage& s : stages_) {
    if (s.op->kind != OpKind::kCompute || s.name() == step.stage) {
      continue;
    }
    const OperationRef* shared = dag_->SharedInline(producer, s.op);
    s.op = shared != nullptr ? *shared : InlineProducer(*producer, s.op);
  }
  stage.loc.kind = ComputeLocKind::kInlined;
  return true;
}

bool State::ApplyCacheWrite(const Step& step) {
  int stage_idx = StageIndex(step.stage);
  Stage& stage = stages_[static_cast<size_t>(stage_idx)];
  const OperationRef op = stage.op;
  if (op->kind != OpKind::kCompute) {
    return Fail("cache_write target is not a compute op");
  }
  std::string cache_name = step.stage + ".cache";
  if (StageIndex(cache_name) >= 0) {
    return Fail("cache stage already exists: " + cache_name);
  }

  // The cache op carries the original body on fresh axis vars; the original
  // op becomes its identity consumer. A stage still holding the DAG's own op
  // takes the pair the DAG built once.
  const CacheWriteOps* shared = dag_->SharedCacheWrite(op);
  CacheWriteOps ops = shared != nullptr ? *shared : MakeCacheWriteOps(*op);
  stage.op = std::move(ops.consumer);
  ResetStageIters(&stage);

  Stage cache_stage;
  cache_stage.op = std::move(ops.cache);
  stages_.insert(stages_.begin() + stage_idx, std::move(cache_stage));
  ResetStageIters(&stages_[static_cast<size_t>(stage_idx)]);

  stage_index_.clear();
  for (size_t i = 0; i < stages_.size(); ++i) {
    stage_index_[stages_[i].name()] = static_cast<int>(i);
  }
  last_new_stage_ = stage_idx;
  return true;
}

bool State::ApplyRfactor(const Step& step) {
  int stage_idx = StageIndex(step.stage);
  Stage& stage = stages_[static_cast<size_t>(stage_idx)];
  const OperationRef op = stage.op;
  if (!op->body.defined() || op->body.kind() != ExprKind::kReduce) {
    return Fail("rfactor target has no reduction");
  }
  if (op->body->reduce_axes.size() != 1) {
    return Fail("rfactor supports a single reduction axis");
  }
  if (step.iter < 0 || step.iter >= static_cast<int>(stage.iters.size())) {
    return Fail("rfactor iterator out of range");
  }
  const Iterator kept = stage.iters[static_cast<size_t>(step.iter)];
  if (kept.kind != IterKind::kReduce || kept.orig_axis_id < 0) {
    return Fail("rfactor iterator must derive from the reduction axis");
  }
  if (stage.guarded_axes.count(kept.orig_axis_id) > 0) {
    return Fail("rfactor requires an exact split of the reduction axis");
  }
  // Find the other reduce iterator of the same axis.
  int other_idx = -1;
  int n_reduce_parts = 0;
  for (size_t i = 0; i < stage.iters.size(); ++i) {
    const Iterator& it = stage.iters[i];
    if (it.kind == IterKind::kReduce && it.orig_axis_id == kept.orig_axis_id) {
      ++n_reduce_parts;
      if (static_cast<int>(i) != step.iter) {
        other_idx = static_cast<int>(i);
      }
    }
  }
  if (n_reduce_parts != 2 || other_idx < 0) {
    return Fail("rfactor requires the reduction axis split into exactly two parts");
  }
  const Iterator other = stage.iters[static_cast<size_t>(other_idx)];
  int64_t reduce_axis_id = kept.orig_axis_id;
  const Expr reduce_source = op->body->operands[0];
  ReduceKind reduce_kind = op->body->reduce_kind;

  std::string rf_name = step.stage + ".rf";
  if (StageIndex(rf_name) >= 0) {
    return Fail("rfactor stage already exists: " + rf_name);
  }

  // rf op: space axes = original space axes (fresh) + kept axis.
  std::vector<Expr> rf_axis;
  std::unordered_map<int64_t, Expr> bindings;
  for (const Expr& axis : op->axis) {
    Expr v = MakeVar(axis->var_name, axis->var_extent);
    bindings[axis->var_id] = v;
    rf_axis.push_back(std::move(v));
  }
  Expr kr = MakeVar("kr", kept.extent);
  rf_axis.push_back(kr);
  Expr ko = ReduceAxis(other.extent, "ko");
  // The original reduction var reconstructs from (kept, other) via the
  // stage's axis reconstruction; substitute kept -> kr, other -> ko.
  const StageExprs exprs = DeriveStageExprs(stage);
  const Expr* k_value_ptr = exprs.Reconstruction(reduce_axis_id);
  if (k_value_ptr == nullptr) {
    return Fail("rfactor reduction axis has no reconstruction in " + step.stage);
  }
  const Expr k_value = *k_value_ptr;
  bindings[exprs.iter_vars[static_cast<size_t>(step.iter)]->var_id] = kr;
  bindings[exprs.iter_vars[static_cast<size_t>(other_idx)]->var_id] = ko;
  Expr rf_source = Substitute(reduce_source, [&](const ExprNode& var) -> Expr {
    if (var.var_id == reduce_axis_id) {
      return Substitute(k_value, [&](const ExprNode& inner) {
        auto it = bindings.find(inner.var_id);
        return it == bindings.end() ? Expr() : it->second;
      });
    }
    auto it = bindings.find(var.var_id);
    return it == bindings.end() ? Expr() : it->second;
  });
  std::vector<int64_t> rf_shape = op->output->shape;
  rf_shape.push_back(kept.extent);
  Tensor rf = MakeComputeOp(rf_name, std::move(rf_shape), std::move(rf_axis),
                            Reduce(reduce_kind, std::move(rf_source), {ko}));

  // Original op now reduces the rf tensor over the kept axis.
  Expr knew = ReduceAxis(kept.extent, "ki");
  std::vector<Expr> load_indices(op->axis.begin(), op->axis.end());
  load_indices.push_back(knew);
  auto new_op = std::make_shared<Operation>(*op);
  new_op->body = Reduce(reduce_kind, Load(rf.buffer(), std::move(load_indices)), {knew});
  stage.op = std::move(new_op);
  ResetStageIters(&stage);

  Stage rf_stage;
  rf_stage.op = rf.op();
  stages_.insert(stages_.begin() + stage_idx, std::move(rf_stage));
  ResetStageIters(&stages_[static_cast<size_t>(stage_idx)]);

  stage_index_.clear();
  for (size_t i = 0; i < stages_.size(); ++i) {
    stage_index_[stages_[i].name()] = static_cast<int>(i);
  }
  last_new_stage_ = stage_idx;
  return true;
}

std::string StepSignature(const State& state) { return StepSignature(state.steps()); }

std::string StepSignature(const std::vector<Step>& steps) {
  std::string sig;
  sig.reserve(steps.size() * 48);  // a typical step's text is 30-60 bytes
  for (const Step& step : steps) {
    step.AppendTo(&sig);
    sig += ';';
  }
  return sig;
}

State State::Failure(const ComputeDAG* dag, std::string error) {
  State state;
  state.dag_ = dag;
  state.failed_ = true;
  state.error_ = std::move(error);
  return state;
}

State State::Replay(const ComputeDAG* dag, const std::vector<Step>& steps) {
  State state(dag);
  state.steps_.reserve(steps.size());
  for (const Step& step : steps) {
    if (!state.ApplyStep(step)) {
      return state;  // failed() is set
    }
    state.steps_.push_back(step);
  }
  return state;
}

std::string State::ToString() const {
  // Children indexed by (stage name, iterator position).
  std::unordered_map<std::string, std::unordered_map<int, std::vector<int>>> children;
  for (size_t i = 0; i < stages_.size(); ++i) {
    const Stage& s = stages_[i];
    if (s.loc.kind == ComputeLocKind::kAt) {
      children[s.loc.at_stage][s.loc.at_iter].push_back(static_cast<int>(i));
    }
  }
  std::ostringstream os;
  std::function<void(int, int)> print_stage = [&](int stage_idx, int indent) {
    const Stage& s = stages_[static_cast<size_t>(stage_idx)];
    auto pad = [&](int n) {
      for (int j = 0; j < n; ++j) {
        os << "  ";
      }
    };
    int level = indent;
    for (size_t i = 0; i < s.iters.size(); ++i) {
      const Iterator& it = s.iters[i];
      pad(level);
      if (it.annotation != IterAnnotation::kNone) {
        os << IterAnnotationName(it.annotation) << " ";
      } else {
        os << "for ";
      }
      os << it.name << " in range(" << it.extent << ")\n";
      ++level;
      auto cit = children.find(s.name());
      if (cit != children.end()) {
        auto lit = cit->second.find(static_cast<int>(i));
        if (lit != cit->second.end()) {
          for (int child : lit->second) {
            print_stage(child, level);
          }
        }
      }
    }
    pad(level);
    os << s.name() << "[...] = ...\n";
  };
  for (size_t i = 0; i < stages_.size(); ++i) {
    const Stage& s = stages_[i];
    if (s.loc.kind == ComputeLocKind::kRoot) {
      print_stage(static_cast<int>(i), 0);
    } else if (s.loc.kind == ComputeLocKind::kInlined) {
      os << s.name() << ": inlined\n";
    }
  }
  return os.str();
}

}  // namespace ansor
