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
#ifndef ANSOR_SRC_COSTMODEL_GBDT_H_
#define ANSOR_SRC_COSTMODEL_GBDT_H_

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

class Gbdt {
 public:
  explicit Gbdt(GbdtParams params = GbdtParams()) : params_(params) {}

  // Trains from scratch on the dataset (sum-over-group objective). Histogram
  // slot ids are uint16_t: the kept columns' bins may total at most 65536
  // (any dataset of up to 256 features), else Train() CHECK-fails.
  void Train(const GbdtDataset& data);

  bool trained() const { return !trees_.empty(); }
  double base_score() const { return base_score_; }

  // Score of a single statement row: the sum over trees, in tree order, of
  // learning_rate * leaf value.
  double PredictRow(const float* row) const;
  double PredictRow(const std::vector<float>& row) const { return PredictRow(row.data()); }
  // Score of a program: base score plus the sum over its statement rows.
  double PredictProgram(const std::vector<std::vector<float>>& rows) const;

  const std::vector<Tree>& trees() const { return trees_; }
  const GbdtParams& params() const { return params_; }

  // Binary codec (store layer, src/store/bytes.h): params, base score, and
  // the trained trees with raw IEEE threshold/value bits, so a decoded
  // model's predictions are bit-identical to the encoder's. DecodeFrom
  // validates every node against the rows predictions will read: a split's
  // feature must lie in [0, num_features), and an internal node's children
  // must lie after it in its tree (the order Train emits), so every walk
  // ends at a leaf. It fails the reader (returning false, model untouched
  // semantically) on malformed input.
  void EncodeTo(ByteWriter* w) const;
  bool DecodeFrom(ByteReader* r, int num_features);

 private:
  GbdtParams params_;
  std::vector<Tree> trees_;
  double base_score_ = 0.0;
};

}  // namespace ansor

#endif  // ANSOR_SRC_COSTMODEL_GBDT_H_
