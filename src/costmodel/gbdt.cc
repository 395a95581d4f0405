#include "src/costmodel/gbdt.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "src/support/logging.h"

namespace ansor {
namespace {

// Per-feature histogram bin edges, ascending.
struct BinMap {
  std::vector<std::vector<float>> edges;

  // The number of edges below x: x lands in bin b when
  // edges[b - 1] < x <= edges[b], so "bin <= b" is inference's
  // `x <= edges[b]`.
  uint8_t BinOf(int feature, float x) const {
    const std::vector<float>& e = edges[static_cast<size_t>(feature)];
    return static_cast<uint8_t>(std::lower_bound(e.begin(), e.end(), x) - e.begin());
  }
};

// Edges from the dataset's sorted distinct values: one bin per value when
// there are at most max_bins of them, else quantile edges (data values).
BinMap BuildBins(const GbdtDataset& data, int max_bins) {
  BinMap bins;
  bins.edges.resize(data.rows().dim());
  for (size_t f = 0; f < bins.edges.size(); ++f) {
    const std::vector<float>& values = data.values(f);
    std::vector<float>& edges = bins.edges[f];
    if (static_cast<int>(values.size()) <= max_bins) {
      // One bin per distinct value: edges between consecutive values.
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        edges.push_back(0.5f * (values[i] + values[i + 1]));
      }
    } else {
      for (int b = 1; b < max_bins; ++b) {
        size_t idx = values.size() * static_cast<size_t>(b) / static_cast<size_t>(max_bins);
        float edge = values[idx];
        if (edges.empty() || edge > edges.back()) {
          edges.push_back(edge);
        }
      }
    }
  }
  return bins;
}

// The split search's view of the binned features: one row-major matrix of
// histogram slot ids, slot[i * n_cols + k] = offset[k] + bin of row i in kept
// column k. Only columns that can win a split are kept: constant columns
// (one bin) never can, and neither can a column whose binned bytes and bin
// count equal an earlier kept column's — it yields the same gains, which
// never beat a best gain that has already seen them (min_gain >= 0).
struct SlotMatrix {
  size_t n_cols = 0;
  std::vector<uint16_t> slot;
  std::vector<int> feature;      // kept column k -> feature index
  std::vector<uint32_t> offset;  // column k owns slots [offset[k], offset[k + 1])

  size_t n_slots() const { return offset.back(); }
  const uint16_t* row(size_t i) const { return slot.data() + i * n_cols; }
};

SlotMatrix BuildSlots(const FeatureMatrix& rows, const BinMap& bins) {
  size_t n_rows = rows.rows();
  SlotMatrix slots;
  slots.offset.push_back(0);
  std::vector<std::vector<uint8_t>> kept;  // binned bytes per kept column
  std::vector<uint8_t> column(n_rows);
  for (size_t f = 0; f < bins.edges.size(); ++f) {
    size_t n_bins = bins.edges[f].size() + 1;
    if (n_bins < 2) {
      continue;
    }
    for (size_t i = 0; i < n_rows; ++i) {
      column[i] = bins.BinOf(static_cast<int>(f), rows.at(i, f));
    }
    bool duplicate = false;
    for (size_t k = 0; k < kept.size() && !duplicate; ++k) {
      duplicate = slots.offset[k + 1] - slots.offset[k] == n_bins && kept[k] == column;
    }
    if (duplicate) {
      continue;
    }
    kept.push_back(column);
    slots.feature.push_back(static_cast<int>(f));
    slots.offset.push_back(slots.offset.back() + static_cast<uint32_t>(n_bins));
  }
  CHECK_LE(slots.n_slots(), size_t{65536}) << "histogram slot ids are uint16_t";
  slots.n_cols = kept.size();
  slots.slot.resize(n_rows * slots.n_cols);
  for (size_t k = 0; k < slots.n_cols; ++k) {
    uint32_t first = slots.offset[k];
    for (size_t i = 0; i < n_rows; ++i) {
      slots.slot[i * slots.n_cols + k] = static_cast<uint16_t>(first + kept[k][i]);
    }
  }
  return slots;
}

// Power-of-two fixed point for one tree's per-row values: q = x * 2^exp,
// rounded. The exponent puts (n_rows + 1) * max|x| below 2^62, so no sum of
// quantized rows (nor a difference of two such sums) can overflow int64,
// and is clamped so that 2^exp and 2^-exp stay normal doubles.
struct FixedPoint {
  double scale = 1.0;    // 2^exp
  double inverse = 1.0;  // 2^-exp

  static FixedPoint For(const std::vector<double>& values) {
    double max_abs = 0.0;
    for (double x : values) {
      max_abs = std::max(max_abs, std::fabs(x));
    }
    CHECK(std::isfinite(max_abs)) << "gradients must be finite";
    int exp = 0;
    if (max_abs > 0.0) {
      // (n_rows + 1) * max_abs < 2^(bound_exp + max_exp), computed on the
      // mantissa so that the product cannot overflow.
      int max_exp = 0;
      double mantissa = std::frexp(max_abs, &max_exp);
      int bound_exp = 0;
      std::frexp(static_cast<double>(values.size() + 1) * mantissa, &bound_exp);
      exp = std::clamp(62 - bound_exp - max_exp, -1022, 1022);
    }
    return {std::ldexp(1.0, exp), std::ldexp(1.0, -exp)};
  }

  int64_t Quantize(double x) const { return std::llround(x * scale); }
  double Value(int64_t q) const { return static_cast<double>(q) * inverse; }
};

struct SplitResult {
  double gain = 0.0;
  int column = -1;  // kept column of the SlotMatrix
  int bin = -1;     // go left when bin(x) <= bin
};

// Grows trees over the slot matrix. The histograms, (g, h) int64 pairs per
// slot, live in two buffers per depth, allocated once per Train: a node at
// depth d reads its own from hist_[d][0] if it is a left child, else from
// hist_[d][1], and fills its children's at depth d + 1. The left subtree is
// built before the right one, so the right child's buffer stays intact
// until it is read.
class TreeBuilder {
 public:
  TreeBuilder(const SlotMatrix& slots, size_t n_rows, const BinMap& bins,
              const GbdtParams& params)
      : slots_(slots), bins_(bins), params_(params), order_(n_rows), scratch_(n_rows),
        qgrad_(n_rows), qhess_(n_rows) {
    hist_.resize(static_cast<size_t>(std::max(params_.max_depth, 0)) + 1);
    for (auto& pair : hist_) {
      for (auto& h : pair) {
        h.resize(2 * slots_.n_slots());
      }
    }
  }

  Tree Build(const std::vector<double>& grad, const std::vector<double>& hess) {
    grad_ = grad.data();
    hess_ = hess.data();
    gscale_ = FixedPoint::For(grad);
    hscale_ = FixedPoint::For(hess);
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<int>(i);
      qgrad_[i] = gscale_.Quantize(grad[i]);
      qhess_[i] = hscale_.Quantize(hess[i]);
      CHECK_GT(qhess_[i], 0) << "row " << i << "'s hessian quantizes to " << qhess_[i];
    }
    tree_ = Tree();
    int64_t* root = hist_[0][0].data();
    if (Searched(order_.size(), 0)) {
      Accumulate(0, order_.size(), root);
    }
    BuildNode(0, order_.size(), 0, root);
    return std::move(tree_);
  }

 private:
  // Whether a node of `n` rows at `depth` looks for a split.
  bool Searched(size_t n, int depth) const {
    return depth < params_.max_depth &&
           n >= 2 * static_cast<size_t>(params_.min_rows_per_leaf);
  }

  // The node owns order_[begin, end), ascending; `hist` holds its histogram
  // when Searched.
  int BuildNode(size_t begin, size_t end, int depth, const int64_t* hist) {
    double g = 0.0;
    double h = 0.0;
    int64_t qg = 0;
    int64_t qh = 0;
    for (size_t j = begin; j < end; ++j) {
      size_t i = static_cast<size_t>(order_[j]);
      g += grad_[i];
      h += hess_[i];
      qg += qgrad_[i];
      qh += qhess_[i];
    }
    int node_id = static_cast<int>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    // Newton step leaf value.
    tree_.nodes[static_cast<size_t>(node_id)].value = -g / (h + params_.lambda);

    if (!Searched(end - begin, depth)) {
      return node_id;
    }
    SplitResult best = FindBestSplit(hist, qg, qh);
    if (best.column < 0) {
      return node_id;
    }
    size_t column = static_cast<size_t>(best.column);
    size_t mid = Partition(begin, end, column,
                           slots_.offset[column] + static_cast<uint32_t>(best.bin));
    size_t n_left = mid - begin;
    size_t n_right = end - mid;
    size_t min_rows = static_cast<size_t>(params_.min_rows_per_leaf);
    if (n_left < min_rows || n_right < min_rows) {
      return node_id;
    }
    // Children histograms: accumulate the smaller child, derive the larger.
    int64_t* left_hist = hist_[static_cast<size_t>(depth + 1)][0].data();
    int64_t* right_hist = hist_[static_cast<size_t>(depth + 1)][1].data();
    bool search_left = Searched(n_left, depth + 1);
    bool search_right = Searched(n_right, depth + 1);
    if (search_left || search_right) {
      bool left_smaller = n_left <= n_right;
      int64_t* small = left_smaller ? left_hist : right_hist;
      int64_t* large = left_smaller ? right_hist : left_hist;
      if (left_smaller) {
        Accumulate(begin, mid, small);
      } else {
        Accumulate(mid, end, small);
      }
      if (left_smaller ? search_right : search_left) {
        for (size_t s = 0; s < 2 * slots_.n_slots(); ++s) {
          large[s] = hist[s] - small[s];
        }
      }
    }
    int left_id = BuildNode(begin, mid, depth + 1, left_hist);
    int right_id = BuildNode(mid, end, depth + 1, right_hist);
    TreeNode& node = tree_.nodes[static_cast<size_t>(node_id)];
    node.feature = slots_.feature[column];
    node.threshold =
        bins_.edges[static_cast<size_t>(node.feature)][static_cast<size_t>(best.bin)];
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  // Stable partition of order_[begin, end): rows whose slot in `column` is
  // at most `last_left` first. Returns the first right row's position.
  size_t Partition(size_t begin, size_t end, size_t column, uint32_t last_left) {
    size_t mid = begin;
    size_t n_right = 0;
    for (size_t j = begin; j < end; ++j) {
      int i = order_[j];
      if (slots_.row(static_cast<size_t>(i))[column] <= last_left) {
        order_[mid++] = i;
      } else {
        scratch_[n_right++] = i;
      }
    }
    std::copy(scratch_.begin(), scratch_.begin() + static_cast<std::ptrdiff_t>(n_right),
              order_.begin() + static_cast<std::ptrdiff_t>(mid));
    return mid;
  }

  // hist = the (g, h) sums per slot over order_[begin, end).
  void Accumulate(size_t begin, size_t end, int64_t* hist) {
    std::fill(hist, hist + 2 * slots_.n_slots(), int64_t{0});
    size_t n_cols = slots_.n_cols;
    for (size_t j = begin; j < end; ++j) {
      size_t i = static_cast<size_t>(order_[j]);
      int64_t g = qgrad_[i];
      int64_t h = qhess_[i];
      const uint16_t* slot = slots_.row(i);
      auto add = [hist, g, h](uint16_t s) {
        int64_t* cell = hist + 2 * static_cast<size_t>(s);
        cell[0] += g;
        cell[1] += h;
      };
      // Unrolled by four: columns own disjoint slots, so the adds are
      // independent.
      size_t k = 0;
      for (; k + 4 <= n_cols; k += 4) {
        add(slot[k]);
        add(slot[k + 1]);
        add(slot[k + 2]);
        add(slot[k + 3]);
      }
      for (; k < n_cols; ++k) {
        add(slot[k]);
      }
    }
  }

  SplitResult FindBestSplit(const int64_t* hist, int64_t qg_total, int64_t qh_total) const {
    SplitResult best;
    double lambda = params_.lambda;
    double g_total = gscale_.Value(qg_total);
    double parent_score = g_total * g_total / (hscale_.Value(qh_total) + lambda);
    for (size_t k = 0; k < slots_.n_cols; ++k) {
      const int64_t* cell = hist + 2 * static_cast<size_t>(slots_.offset[k]);
      size_t n_bins = slots_.offset[k + 1] - slots_.offset[k];
      int64_t qgl = 0;
      int64_t qhl = 0;
      for (size_t b = 0; b + 1 < n_bins; ++b) {
        if (cell[2 * b + 1] == 0) {
          continue;  // empty bin: the gain of the bin before it
        }
        qgl += cell[2 * b];
        qhl += cell[2 * b + 1];
        if (qhl == qh_total) {
          break;  // every later split leaves the right child empty
        }
        double gl = gscale_.Value(qgl);
        double hl = hscale_.Value(qhl);
        double gr = gscale_.Value(qg_total - qgl);
        double hr = hscale_.Value(qh_total - qhl);
        double gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score;
        if (gain > best.gain + params_.min_gain) {
          best.gain = gain;
          best.column = static_cast<int>(k);
          best.bin = static_cast<int>(b);
        }
      }
    }
    return best;
  }

  const SlotMatrix& slots_;
  const BinMap& bins_;
  const GbdtParams& params_;
  std::vector<int> order_;    // row ids, grouped by node
  std::vector<int> scratch_;  // Partition's right rows
  std::vector<int64_t> qgrad_;
  std::vector<int64_t> qhess_;
  std::vector<std::array<std::vector<int64_t>, 2>> hist_;  // [depth][left / right]
  const double* grad_ = nullptr;
  const double* hess_ = nullptr;
  FixedPoint gscale_;
  FixedPoint hscale_;
  Tree tree_;
};

}  // namespace

double Tree::PredictRow(const float* row) const {
  if (nodes.empty()) {
    return 0.0;
  }
  int cur = 0;
  for (;;) {
    const TreeNode& node = nodes[static_cast<size_t>(cur)];
    if (node.feature < 0) {
      return node.value;
    }
    cur = row[static_cast<size_t>(node.feature)] <= node.threshold ? node.left : node.right;
  }
}

void GbdtDataset::AddProgram(const FeatureMatrix& rows) {
  CHECK(!rows.empty());
  rows_.AppendMatrix(rows);
  program_begin_.push_back(rows_.rows());
  labels_.push_back(0.0);
  weights_.push_back(1.0);
  values_.resize(rows_.dim());
  for (size_t r = 0; r < rows.rows(); ++r) {
    const float* row = rows.row(r);
    for (size_t f = 0; f < values_.size(); ++f) {
      float x = row[f] == 0.0f ? 0.0f : row[f];  // -0.0 and +0.0 are one value
      std::vector<float>& values = values_[f];
      auto it = std::lower_bound(values.begin(), values.end(), x);
      if (it == values.end() || *it != x) {
        values.insert(it, x);
      }
    }
  }
}

void GbdtDataset::SetTarget(int p, double label, double weight) {
  labels_[static_cast<size_t>(p)] = label;
  weights_[static_cast<size_t>(p)] = weight;
}

void Gbdt::Train(const GbdtDataset& data) {
  // Bin indices live in uint8_t: more than 256 bins would wrap silently.
  CHECK_GE(params_.max_bins, 2);
  CHECK_LE(params_.max_bins, 256);
  // Skipping duplicate columns (BuildSlots) and empty bins (FindBestSplit)
  // is exact only while the best gain never decreases.
  CHECK_GE(params_.min_gain, 0.0);
  trees_.clear();
  base_score_ = 0.0;
  size_t n_rows = data.rows().rows();
  int n_programs = data.num_programs();
  if (n_rows == 0) {
    return;
  }

  BinMap bins = BuildBins(data, params_.max_bins);
  SlotMatrix slots = BuildSlots(data.rows(), bins);

  // Base score: weighted mean label spread across the average row count.
  double wy = 0.0;
  double w = 0.0;
  for (int p = 0; p < n_programs; ++p) {
    wy += data.weight(p) * data.label(p);
    w += data.weight(p);
  }
  double mean_label = w > 0.0 ? wy / w : 0.0;
  base_score_ = mean_label;

  std::vector<double> program_pred(static_cast<size_t>(n_programs), base_score_);
  std::vector<double> grad(n_rows);
  std::vector<double> hess(n_rows);
  TreeBuilder builder(slots, n_rows, bins, params_);
  for (int t = 0; t < params_.num_trees; ++t) {
    for (int p = 0; p < n_programs; ++p) {
      double wp = data.weight(p);
      double residual = program_pred[static_cast<size_t>(p)] - data.label(p);
      for (size_t i = data.program_begin(p); i < data.program_begin(p + 1); ++i) {
        grad[i] = 2.0 * wp * residual;
        hess[i] = 2.0 * wp;
      }
    }
    Tree tree = builder.Build(grad, hess);
    // Update program predictions.
    bool useful = false;
    for (int p = 0; p < n_programs; ++p) {
      double delta = 0.0;
      for (size_t i = data.program_begin(p); i < data.program_begin(p + 1); ++i) {
        delta += tree.PredictRow(data.rows().row(i));
      }
      if (delta != 0.0) {
        useful = true;
      }
      program_pred[static_cast<size_t>(p)] += params_.learning_rate * delta;
    }
    trees_.push_back(std::move(tree));
    if (!useful) {
      break;  // converged: the tree is a stump predicting zero
    }
  }
}

double Gbdt::PredictRow(const float* row) const {
  double score = 0.0;
  for (const Tree& tree : trees_) {
    score += params_.learning_rate * tree.PredictRow(row);
  }
  return score;
}

double Gbdt::PredictProgram(const std::vector<std::vector<float>>& rows) const {
  double score = base_score_;
  for (const auto& row : rows) {
    score += PredictRow(row);
  }
  return score;
}

}  // namespace ansor
