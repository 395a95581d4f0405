// Gradient-boosted regression trees, from scratch.
//
// The paper (§5.2) trains a gradient boosting decision tree [XGBoost] as the
// underlying model f, predicting a score per innermost statement; the program
// score is the sum over its statements. The loss is weighted squared error
//   loss(f, P, y) = y * (sum_{s in S(P)} f(s) - y)^2
// with the throughput y itself as the weight, so well-performing programs
// matter more. We implement the same objective: per-row gradients derive from
// the program-level residual, trees use histogram-based greedy splits.
//
// Training bins every feature once (per-feature quantile edges, at most
// max_bins bins). The split search then works on a row-major matrix of
// histogram slot ids over the *kept* columns only: constant columns are
// dropped, and so is every column whose binned values and bin count equal an
// earlier kept column's (such as an exact copy, or a copy scaled by 2). Per
// node, one pass over the node's rows in ascending order adds each row's
// gradient and hessian to one (g, h) slot per kept column; the columns are
// then scanned in feature order. Contract: the trees are bit-identical to a
// per-feature histogram search over all columns. Each (feature, bin) sum adds
// the same doubles in the same row order, the gain formula and the strict
// `gain > best + min_gain` rule are unchanged, and a dropped duplicate's gains
// can never beat a best gain that has already seen them, because with
// min_gain >= 0 the running best never decreases (Train() CHECKs
// min_gain >= 0). Training is single-threaded: a node's histogram is tens of
// microseconds of work, less than a thread-pool dispatch costs.
//
// Inference is served from a CompiledForest: all trees flattened into shared
// structure-of-arrays storage (feature / threshold / children / value), with
// leaves rewritten to self-loop so every row walks a tree in exactly its
// depth steps — a fixed-trip branchless loop that interleaves a block of rows
// for instruction-level parallelism. Leaf values are pre-scaled by the
// learning rate at compile time; batch results are bit-identical to the
// scalar PredictRow loop (same products, same accumulation order).
#ifndef ANSOR_SRC_COSTMODEL_GBDT_H_
#define ANSOR_SRC_COSTMODEL_GBDT_H_

#include <cstdint>
#include <vector>

#include "src/features/feature_matrix.h"

namespace ansor {

class ByteWriter;
class ByteReader;

struct GbdtParams {
  int num_trees = 50;
  int max_depth = 6;
  double learning_rate = 0.15;
  double lambda = 1.0;          // L2 regularization on leaf values
  // Histogram bin count per feature. Must lie in [2, 256]: bin indices are
  // stored as uint8_t, so anything above 256 would silently wrap and
  // corrupt splits. Train() CHECKs this bound.
  int max_bins = 32;
  int min_rows_per_leaf = 4;
  // Minimum gain improvement for a split. Must be >= 0: duplicate feature
  // columns are dropped before the split search, which is exact only because
  // the best gain then never decreases. Train() CHECKs this bound.
  double min_gain = 1e-6;
};

struct TreeNode {
  int feature = -1;     // -1 for leaves
  float threshold = 0;  // go left when x[feature] <= threshold
  int left = -1;
  int right = -1;
  double value = 0.0;  // leaf output
};

struct Tree {
  std::vector<TreeNode> nodes;
  double PredictRow(const float* row) const;
  double PredictRow(const std::vector<float>& row) const { return PredictRow(row.data()); }
};

// A training set where rows are statements grouped into programs.
struct GbdtDataset {
  FeatureMatrix rows;          // statement feature rows (flat, row-major)
  std::vector<int> group;      // row i belongs to program group[i]
  std::vector<double> labels;  // per-program target (normalized throughput)
  std::vector<double> weights; // per-program weight

  int num_programs() const { return static_cast<int>(labels.size()); }
};

// Forest compiled to structure-of-arrays node storage for batch inference.
// Leaves self-loop (left == right == self), so traversal of tree t is a
// fixed loop of depth(t) steps with no leaf test inside.
class CompiledForest {
 public:
  void Compile(const std::vector<Tree>& trees, double learning_rate);

  bool empty() const { return roots_.empty(); }

  // out[i] = sum over trees of the (learning-rate-scaled) leaf value for
  // rows[i]. Rows are interleaved in blocks so independent traversals
  // overlap; accumulation order per row is tree order, matching the scalar
  // path bit for bit.
  void PredictRows(const float* const* rows, size_t n, double* out) const;

 private:
  std::vector<int32_t> feature_;
  std::vector<float> threshold_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  std::vector<double> value_;  // pre-scaled by learning_rate
  std::vector<int32_t> roots_;
  std::vector<int32_t> depth_;
};

class Gbdt {
 public:
  explicit Gbdt(GbdtParams params = GbdtParams()) : params_(params) {}

  // Trains from scratch on the dataset (sum-over-group objective) and
  // compiles the forest for batch inference. Histogram slot ids are
  // uint16_t: the kept columns' bins may total at most 65536 (any dataset of
  // up to 256 features), else Train() CHECK-fails.
  void Train(const GbdtDataset& data);

  bool trained() const { return !trees_.empty(); }
  double base_score() const { return base_score_; }

  // Score of a single statement row (scalar reference path).
  double PredictRow(const float* row) const;
  double PredictRow(const std::vector<float>& row) const { return PredictRow(row.data()); }
  // Batched statement scores via the compiled forest (bit-identical to the
  // scalar path). out must have room for n values.
  void PredictStatementRows(const float* const* rows, size_t n, double* out) const;
  // Score of a program: base score plus the sum over its statement rows.
  double PredictProgram(const std::vector<std::vector<float>>& rows) const;

  const std::vector<Tree>& trees() const { return trees_; }
  const CompiledForest& forest() const { return forest_; }
  const GbdtParams& params() const { return params_; }

  // Binary codec (store layer, src/store/bytes.h): params, base score, and
  // the trained trees with raw IEEE threshold/value bits, so a decoded
  // model's predictions are bit-identical to the encoder's. DecodeFrom
  // validates every node index and recompiles the inference forest; it fails
  // the reader (returning false, model untouched semantically) on malformed
  // input.
  void EncodeTo(ByteWriter* w) const;
  bool DecodeFrom(ByteReader* r);

 private:
  GbdtParams params_;
  std::vector<Tree> trees_;
  CompiledForest forest_;
  double base_score_ = 0.0;
};

}  // namespace ansor

#endif  // ANSOR_SRC_COSTMODEL_GBDT_H_
