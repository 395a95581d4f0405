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
// Training works on one persistent GbdtDataset. Programs are appended, never
// rewritten, and the dataset keeps each feature's distinct values sorted as
// rows arrive, so binning derives every feature's quantile edges (at most
// max_bins bins) without sorting a column. A row goes to bin b when
// edges[b-1] < x <= edges[b]: the split "bin <= b" is exactly the test
// `x <= threshold` that inference applies, with threshold = edges[b].
//
// A GbdtBinCache holds every feature's edges and binned column between
// Train calls on one growing dataset. Train recomputes each feature's edges
// from its distinct values; a feature whose edges did not move bins only
// the rows appended since the last call, and a feature whose edges moved is
// re-binned over all rows. The cache has one owner: GbdtCostModel keeps one
// next to its dataset, and Train(data) without one bins from scratch.
//
// The split search works on histogram slot ids over the *kept* columns only:
// constant columns are dropped, and so is every column whose binned values
// and bin count equal an earlier kept column's (such as an exact copy, or a
// copy scaled by 2). Rows whose slot rows are equal can never be told apart
// by a split, so trees grow over the distinct slot rows: each group carries
// its row count and the integer sums of its rows' quantized gradients and
// hessians. Gradients and hessians are quantized to int64 fixed point, g
// and h each with its own power-of-two scale sized so that no sum over all
// rows can overflow; the hessians, their scale and the root's hessian
// histogram are the same for every tree of one Train and computed once.
// The split search's node totals and histogram cells are integer sums:
// exact, and independent of the order rows or groups are added in. A node's
// histogram is built at most once: a split accumulates the smaller child,
// and the larger child is the parent minus it. The scan visits the columns
// in feature order and skips empty bins (h == 0), whose gain equals the gain
// of the bin before them. Searching a node and min_rows_per_leaf count rows,
// not groups.
//
// Contract: the split chosen at a node is the first (feature, bin), in
// feature and bin order, whose gain beats the best so far by the strict
// `gain > best + min_gain`, over all columns. Dropped duplicates, skipped
// empty bins and grouped rows cannot change it: identical integer sums give
// identical gains, and with min_gain >= 0 (Train() CHECKs it) a gain equal to
// one already seen never wins. A node's value is the Newton step
// -g / (h + lambda) over its rows' unquantized gradients, summed in ascending
// row order in one pass over the rows once the tree's shape is known.
// Training is single-threaded: a node's histogram is tens of microseconds
// of work, less than a thread-pool dispatch costs.
#ifndef ANSOR_SRC_COSTMODEL_GBDT_H_
#define ANSOR_SRC_COSTMODEL_GBDT_H_

#include <cstdint>
#include <vector>

#include "src/features/feature_matrix.h"

namespace ansor {

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
  // columns and empty bins are skipped by the split search, which is exact
  // only because the best gain then never decreases. Train() CHECKs this.
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

// A training set where rows are statements grouped into programs. Programs
// are only appended: each owns a contiguous row range, and AddProgram merges
// its values into every feature's sorted list of distinct values (-0.0 and
// +0.0 are one value, stored as +0.0). Labels and weights are per program
// and may be reset before every Train; rows never change.
class GbdtDataset {
 public:
  // Appends a non-empty program as program num_programs(), with label 0
  // and weight 1. Every program must have the first program's dim().
  void AddProgram(const FeatureMatrix& rows);
  // Sets program `p`'s target (normalized throughput) and loss weight.
  void SetTarget(int p, double label, double weight);

  int num_programs() const { return static_cast<int>(labels_.size()); }
  const FeatureMatrix& rows() const { return rows_; }
  // Program p owns rows [program_begin(p), program_begin(p + 1)).
  size_t program_begin(int p) const { return program_begin_[static_cast<size_t>(p)]; }
  double label(int p) const { return labels_[static_cast<size_t>(p)]; }
  double weight(int p) const { return weights_[static_cast<size_t>(p)]; }
  // Sorted distinct values of `feature` over all rows.
  const std::vector<float>& values(size_t feature) const { return values_[feature]; }

 private:
  FeatureMatrix rows_;
  std::vector<size_t> program_begin_ = {0};
  std::vector<double> labels_;
  std::vector<double> weights_;
  std::vector<std::vector<float>> values_;
};

// Every feature's bin edges and binned column for one GbdtDataset, kept
// between Train calls so that a call bins only what changed (see the file
// comment). A cache serves one dataset: between calls that dataset may only
// grow by AddProgram. It is reset when max_bins or the feature count
// changes, or when the dataset has fewer rows than were binned.
class GbdtBinCache {
 public:
  // Brings the edges and columns up to date with `data`.
  void Refresh(const GbdtDataset& data, int max_bins);

  size_t dim() const { return edges_.size(); }
  // Ascending edges of `feature`: a row goes to bin b when
  // edges[b-1] < x <= edges[b].
  const std::vector<float>& edges(size_t feature) const { return edges_[feature]; }
  // The bin of every row of the dataset in `feature`.
  const std::vector<uint8_t>& column(size_t feature) const { return columns_[feature]; }

 private:
  int max_bins_ = 0;
  size_t n_rows_ = 0;  // rows binned so far
  std::vector<std::vector<float>> edges_;
  std::vector<std::vector<uint8_t>> columns_;
};

class Gbdt {
 public:
  explicit Gbdt(GbdtParams params = GbdtParams()) : params_(params) {}

  // Trains from scratch on the dataset (sum-over-group objective), binning
  // with `bins`, which it refreshes (see GbdtBinCache). Histogram slot ids
  // are uint16_t: the kept columns' bins may total at most 65536 (any
  // dataset of up to 256 features), else Train() CHECK-fails. Labels must be
  // finite, and weights positive and close enough in scale that every row's
  // hessian quantizes to a positive integer (CHECKed once per Train).
  void Train(const GbdtDataset& data, GbdtBinCache* bins);
  // Train with a cache of its own: bins every row.
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

 private:
  GbdtParams params_;
  std::vector<Tree> trees_;
  double base_score_ = 0.0;
};

}  // namespace ansor

#endif  // ANSOR_SRC_COSTMODEL_GBDT_H_
