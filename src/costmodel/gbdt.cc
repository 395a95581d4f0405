#include "src/costmodel/gbdt.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/support/logging.h"
#include "src/support/util.h"

namespace ansor {
namespace {

// Edges from a feature's sorted distinct values: one bin per value when
// there are at most max_bins of them, else quantile edges (data values).
std::vector<float> EdgesOf(const std::vector<float>& values, int max_bins) {
  std::vector<float> edges;
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
  return edges;
}

// The number of edges below x: x lands in bin b when
// edges[b - 1] < x <= edges[b], so "bin <= b" is inference's `x <= edges[b]`.
// This is std::lower_bound, halving without a data-dependent branch.
uint8_t BinOf(const std::vector<float>& edges, float x) {
  if (edges.empty()) {
    return 0;
  }
  const float* base = edges.data();
  size_t n = edges.size();
  while (n > 1) {
    size_t half = n / 2;
    base = base[half] < x ? base + half : base;
    n -= half;
  }
  return static_cast<uint8_t>(base - edges.data() + (*base < x ? 1 : 0));
}

// Hash of a slot row, combined four slots at a time.
uint64_t HashSlots(const uint16_t* slots, size_t n) {
  uint64_t h = n;
  for (size_t k = 0; k < n; k += 4) {
    uint64_t word = 0;
    std::memcpy(&word, slots + k, std::min<size_t>(4, n - k) * sizeof(uint16_t));
    HashCombine(&h, word);
  }
  return h;
}

// The split search's view of the binned features: the distinct rows of the
// matrix of histogram slot ids, where a row's slot in kept column k is
// offset[k] + its bin in that column. Only columns that can win a split are
// kept: constant columns (one bin) never can, and neither can a column whose
// binned bytes and bin count equal an earlier kept column's — it yields the
// same gains, which never beat a best gain that has already seen them
// (min_gain >= 0). Rows with equal slot rows form one group, numbered in
// order of their first row.
struct SlotGroups {
  size_t n_cols = 0;
  std::vector<int> feature;      // kept column k -> feature index
  std::vector<uint32_t> offset;  // column k owns slots [offset[k], offset[k + 1])
  std::vector<uint16_t> slot;    // group g's slot row: slot[g * n_cols + k]
  std::vector<int> count;        // rows per group
  std::vector<int> group_of;     // row -> group

  size_t n_groups() const { return count.size(); }
  size_t n_slots() const { return offset.back(); }
  const uint16_t* row(size_t g) const { return slot.data() + g * n_cols; }
};

SlotGroups GroupSlots(const GbdtBinCache& bins, size_t n_rows) {
  SlotGroups groups;
  groups.offset.push_back(0);
  std::vector<const std::vector<uint8_t>*> kept;  // binned column per kept column
  for (size_t f = 0; f < bins.dim(); ++f) {
    size_t n_bins = bins.edges(f).size() + 1;
    if (n_bins < 2) {
      continue;
    }
    const std::vector<uint8_t>& column = bins.column(f);
    bool duplicate = false;
    for (size_t k = 0; k < kept.size() && !duplicate; ++k) {
      duplicate = groups.offset[k + 1] - groups.offset[k] == n_bins && *kept[k] == column;
    }
    if (duplicate) {
      continue;
    }
    kept.push_back(&column);
    groups.feature.push_back(static_cast<int>(f));
    groups.offset.push_back(groups.offset.back() + static_cast<uint32_t>(n_bins));
  }
  CHECK_LE(groups.n_slots(), size_t{65536}) << "histogram slot ids are uint16_t";
  size_t n_cols = kept.size();
  groups.n_cols = n_cols;

  // Open addressing over group ids, at most half full.
  size_t capacity = 2;
  while (capacity < 2 * n_rows) {
    capacity *= 2;
  }
  std::vector<int> table(capacity, -1);
  std::vector<uint16_t> row(n_cols);
  groups.group_of.resize(n_rows);
  for (size_t i = 0; i < n_rows; ++i) {
    for (size_t k = 0; k < n_cols; ++k) {
      row[k] = static_cast<uint16_t>(groups.offset[k] + (*kept[k])[i]);
    }
    size_t pos = HashSlots(row.data(), n_cols) & (capacity - 1);
    while (table[pos] >= 0 &&
           !std::equal(row.begin(), row.end(), groups.row(static_cast<size_t>(table[pos])))) {
      pos = (pos + 1) & (capacity - 1);
    }
    if (table[pos] < 0) {
      table[pos] = static_cast<int>(groups.n_groups());
      groups.slot.insert(groups.slot.end(), row.begin(), row.end());
      groups.count.push_back(0);
    }
    groups.group_of[i] = table[pos];
    ++groups.count[static_cast<size_t>(table[pos])];
  }
  return groups;
}

// Power-of-two fixed point for per-row gradients or hessians: q = x * 2^exp,
// rounded. The exponent puts (n_rows + 1) * max|x| below 2^62, so no sum of
// quantized rows (nor a difference of two such sums) can overflow int64,
// and is clamped so that 2^exp and 2^-exp stay normal doubles.
struct FixedPoint {
  double scale = 1.0;    // 2^exp
  double inverse = 1.0;  // 2^-exp

  // For `n_rows` values whose largest magnitude is `max_abs`.
  static FixedPoint For(double max_abs, size_t n_rows) {
    CHECK(std::isfinite(max_abs)) << "gradients must be finite";
    int exp = 0;
    if (max_abs > 0.0) {
      // (n_rows + 1) * max_abs < 2^(bound_exp + max_exp), computed on the
      // mantissa so that the product cannot overflow.
      int max_exp = 0;
      double mantissa = std::frexp(max_abs, &max_exp);
      int bound_exp = 0;
      std::frexp(static_cast<double>(n_rows + 1) * mantissa, &bound_exp);
      exp = std::clamp(62 - bound_exp - max_exp, -1022, 1022);
    }
    return {std::ldexp(1.0, exp), std::ldexp(1.0, -exp)};
  }

  int64_t Quantize(double x) const { return std::llround(x * scale); }
  double Value(int64_t q) const { return static_cast<double>(q) * inverse; }
};

double MaxAbs(const std::vector<double>& values) {
  double max_abs = 0.0;
  for (double x : values) {
    max_abs = std::max(max_abs, std::fabs(x));
  }
  return max_abs;
}

struct SplitResult {
  double gain = 0.0;
  int column = -1;  // kept column of the SlotGroups
  int bin = -1;     // go left when bin(x) <= bin
};

// Grows trees over the slot groups. Every row of program p has gradient
// grad[p] and hessian hess[p]; the hessians are the same for every tree, so
// their quantization and the root's hessian histogram are computed once.
// The histograms, (g, h) int64 pairs per slot, live in two buffers per
// depth, allocated once per Train: a node at depth d reads its own from
// hist_[d][0] if it is a left child, else from hist_[d][1], and fills its
// children's at depth d + 1. The left subtree is built before the right
// one, so the right child's buffer stays intact until it is read.
class TreeBuilder {
 public:
  TreeBuilder(const GbdtDataset& data, const SlotGroups& groups, const GbdtBinCache& bins,
              const GbdtParams& params, const std::vector<double>& hess)
      : data_(data), groups_(groups), bins_(bins), params_(params), hess_(hess),
        order_(groups.n_groups()), scratch_(groups.n_groups()), qgrad_(groups.n_groups()),
        qhess_(groups.n_groups()), leaf_(groups.n_groups()) {
    size_t n_slots2 = 2 * groups_.n_slots();
    hist_.resize(static_cast<size_t>(std::max(params_.max_depth, 0)) + 1);
    for (auto& pair : hist_) {
      for (auto& h : pair) {
        h.resize(n_slots2);
      }
    }
    size_t n_rows = groups_.group_of.size();
    hscale_ = FixedPoint::For(MaxAbs(hess), n_rows);
    for (int p = 0; p < data_.num_programs(); ++p) {
      int64_t q = hscale_.Quantize(hess[static_cast<size_t>(p)]);
      for (size_t i = data_.program_begin(p); i < data_.program_begin(p + 1); ++i) {
        CHECK_GT(q, 0) << "row " << i << "'s hessian quantizes to " << q;
        qhess_[static_cast<size_t>(groups_.group_of[i])] += q;
      }
    }
    root_hess_.resize(n_slots2);
    for (size_t g = 0; g < groups_.n_groups(); ++g) {
      const uint16_t* slot = groups_.row(g);
      for (size_t k = 0; k < groups_.n_cols; ++k) {
        root_hess_[2 * static_cast<size_t>(slot[k]) + 1] += qhess_[g];
      }
    }
  }

  Tree Build(const std::vector<double>& grad) {
    size_t n_rows = groups_.group_of.size();
    gscale_ = FixedPoint::For(MaxAbs(grad), n_rows);
    std::fill(qgrad_.begin(), qgrad_.end(), int64_t{0});
    for (int p = 0; p < data_.num_programs(); ++p) {
      int64_t q = gscale_.Quantize(grad[static_cast<size_t>(p)]);
      for (size_t i = data_.program_begin(p); i < data_.program_begin(p + 1); ++i) {
        qgrad_[static_cast<size_t>(groups_.group_of[i])] += q;
      }
    }
    for (size_t g = 0; g < order_.size(); ++g) {
      order_[g] = static_cast<int>(g);
    }
    tree_ = Tree();
    parent_.clear();
    int64_t* root = hist_[0][0].data();
    if (Searched(n_rows, 0)) {
      AccumulateRoot(root);
    }
    BuildNode(0, order_.size(), n_rows, 0, root, -1);
    SetValues(grad);
    return std::move(tree_);
  }

 private:
  // Whether a node of `n_rows` rows at `depth` looks for a split.
  bool Searched(size_t n_rows, int depth) const {
    return depth < params_.max_depth &&
           n_rows >= 2 * static_cast<size_t>(params_.min_rows_per_leaf);
  }

  // The node owns the groups order_[begin, end), which hold `n_rows` rows;
  // `hist` holds its histogram when Searched. Node values are set later, by
  // SetValues.
  int BuildNode(size_t begin, size_t end, size_t n_rows, int depth, const int64_t* hist,
                int parent) {
    int node_id = static_cast<int>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    parent_.push_back(parent);
    auto leaf = [&] {
      for (size_t j = begin; j < end; ++j) {
        leaf_[static_cast<size_t>(order_[j])] = node_id;
      }
      return node_id;
    };
    if (!Searched(n_rows, depth)) {
      return leaf();
    }
    int64_t qg = 0;
    int64_t qh = 0;
    for (size_t j = begin; j < end; ++j) {
      size_t g = static_cast<size_t>(order_[j]);
      qg += qgrad_[g];
      qh += qhess_[g];
    }
    SplitResult best = FindBestSplit(hist, qg, qh);
    if (best.column < 0) {
      return leaf();
    }
    size_t column = static_cast<size_t>(best.column);
    size_t n_left = 0;
    size_t mid = Partition(begin, end, column,
                           groups_.offset[column] + static_cast<uint32_t>(best.bin), &n_left);
    size_t n_right = n_rows - n_left;
    size_t min_rows = static_cast<size_t>(params_.min_rows_per_leaf);
    if (n_left < min_rows || n_right < min_rows) {
      return leaf();
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
        for (size_t s = 0; s < 2 * groups_.n_slots(); ++s) {
          large[s] = hist[s] - small[s];
        }
      }
    }
    int left_id = BuildNode(begin, mid, n_left, depth + 1, left_hist, node_id);
    int right_id = BuildNode(mid, end, n_right, depth + 1, right_hist, node_id);
    TreeNode& node = tree_.nodes[static_cast<size_t>(node_id)];
    node.feature = groups_.feature[column];
    node.threshold = bins_.edges(static_cast<size_t>(node.feature))[static_cast<size_t>(best.bin)];
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  // Every node's Newton step over its rows' unquantized gradients, each
  // node's sums taken in ascending row order: rows are visited in order, and
  // each adds its gradient and hessian to every node from its leaf up.
  void SetValues(const std::vector<double>& grad) {
    size_t n_nodes = tree_.nodes.size();
    node_g_.assign(n_nodes, 0.0);
    node_h_.assign(n_nodes, 0.0);
    for (int p = 0; p < data_.num_programs(); ++p) {
      double g = grad[static_cast<size_t>(p)];
      double h = hess_[static_cast<size_t>(p)];
      for (size_t i = data_.program_begin(p); i < data_.program_begin(p + 1); ++i) {
        int n = leaf_[static_cast<size_t>(groups_.group_of[i])];
        for (; n >= 0; n = parent_[static_cast<size_t>(n)]) {
          node_g_[static_cast<size_t>(n)] += g;
          node_h_[static_cast<size_t>(n)] += h;
        }
      }
    }
    for (size_t n = 0; n < n_nodes; ++n) {
      tree_.nodes[n].value = -node_g_[n] / (node_h_[n] + params_.lambda);
    }
  }

  // Stable partition of order_[begin, end): groups whose slot in `column`
  // is at most `last_left` first. Returns the first right group's position
  // and sets *n_left to the left groups' row count.
  size_t Partition(size_t begin, size_t end, size_t column, uint32_t last_left, size_t* n_left) {
    size_t mid = begin;
    size_t n_right = 0;
    size_t left_rows = 0;
    for (size_t j = begin; j < end; ++j) {
      int g = order_[j];
      if (groups_.row(static_cast<size_t>(g))[column] <= last_left) {
        order_[mid++] = g;
        left_rows += static_cast<size_t>(groups_.count[static_cast<size_t>(g)]);
      } else {
        scratch_[n_right++] = g;
      }
    }
    std::copy(scratch_.begin(), scratch_.begin() + static_cast<std::ptrdiff_t>(n_right),
              order_.begin() + static_cast<std::ptrdiff_t>(mid));
    *n_left = left_rows;
    return mid;
  }

  // The root's histogram: the precomputed hessian sums plus this tree's
  // gradient sums over every group.
  void AccumulateRoot(int64_t* hist) {
    std::copy(root_hess_.begin(), root_hess_.end(), hist);
    size_t n_cols = groups_.n_cols;
    for (size_t g = 0; g < groups_.n_groups(); ++g) {
      int64_t q = qgrad_[g];
      const uint16_t* slot = groups_.row(g);
      size_t k = 0;
      for (; k + 4 <= n_cols; k += 4) {
        hist[2 * static_cast<size_t>(slot[k])] += q;
        hist[2 * static_cast<size_t>(slot[k + 1])] += q;
        hist[2 * static_cast<size_t>(slot[k + 2])] += q;
        hist[2 * static_cast<size_t>(slot[k + 3])] += q;
      }
      for (; k < n_cols; ++k) {
        hist[2 * static_cast<size_t>(slot[k])] += q;
      }
    }
  }

  // hist = the (g, h) sums per slot over the groups order_[begin, end).
  void Accumulate(size_t begin, size_t end, int64_t* hist) {
    std::fill(hist, hist + 2 * groups_.n_slots(), int64_t{0});
    size_t n_cols = groups_.n_cols;
    for (size_t j = begin; j < end; ++j) {
      size_t g = static_cast<size_t>(order_[j]);
      int64_t qg = qgrad_[g];
      int64_t qh = qhess_[g];
      const uint16_t* slot = groups_.row(g);
      auto add = [hist, qg, qh](uint16_t s) {
        int64_t* cell = hist + 2 * static_cast<size_t>(s);
        cell[0] += qg;
        cell[1] += qh;
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

  // Scans each column in two passes. The first gathers the prefix sums at
  // the column's non-empty bins without a branch; an empty bin's gain is the
  // gain of the bin before it, so skipping it cannot change the split, and
  // a data-dependent branch per bin costs more than the gain it skips. The
  // second computes the gains of the gathered bins in bin order.
  SplitResult FindBestSplit(const int64_t* hist, int64_t qg_total, int64_t qh_total) const {
    SplitResult best;
    double lambda = params_.lambda;
    double g_total = gscale_.Value(qg_total);
    double parent_score = g_total * g_total / (hscale_.Value(qh_total) + lambda);
    double threshold = best.gain + params_.min_gain;
    std::array<int64_t, 256> prefix_g;  // max_bins <= 256
    std::array<int64_t, 256> prefix_h;
    std::array<int, 256> prefix_bin;
    for (size_t k = 0; k < groups_.n_cols; ++k) {
      const int64_t* cell = hist + 2 * static_cast<size_t>(groups_.offset[k]);
      size_t n_bins = groups_.offset[k + 1] - groups_.offset[k];
      int64_t qgl = 0;
      int64_t qhl = 0;
      size_t n = 0;
      for (size_t b = 0; b + 1 < n_bins; ++b) {
        qgl += cell[2 * b];
        qhl += cell[2 * b + 1];
        prefix_g[n] = qgl;
        prefix_h[n] = qhl;
        prefix_bin[n] = static_cast<int>(b);
        n += cell[2 * b + 1] != 0 ? 1 : 0;
      }
      for (size_t j = 0; j < n; ++j) {
        if (prefix_h[j] == qh_total) {
          break;  // every later split leaves the right child empty
        }
        double gl = gscale_.Value(prefix_g[j]);
        double hl = hscale_.Value(prefix_h[j]);
        double gr = gscale_.Value(qg_total - prefix_g[j]);
        double hr = hscale_.Value(qh_total - prefix_h[j]);
        double gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score;
        // A new best is rare: as a branch, the comparison does not chain
        // one bin's gain to the next as a branch-free select would.
        if (__builtin_expect(gain > threshold, 0)) {
          best.gain = gain;
          threshold = gain + params_.min_gain;
          best.column = static_cast<int>(k);
          best.bin = prefix_bin[j];
        }
      }
    }
    return best;
  }

  const GbdtDataset& data_;
  const SlotGroups& groups_;
  const GbdtBinCache& bins_;
  const GbdtParams& params_;
  const std::vector<double>& hess_;  // per program
  std::vector<int> order_;           // group ids, grouped by node
  std::vector<int> scratch_;         // Partition's right groups
  std::vector<int64_t> qgrad_;       // per group: this tree's quantized gradient sum
  std::vector<int64_t> qhess_;       // per group: the quantized hessian sum
  std::vector<int> leaf_;            // per group: its leaf in this tree
  std::vector<int> parent_;          // per node: its parent, -1 for the root
  std::vector<double> node_g_;       // SetValues' per-node sums
  std::vector<double> node_h_;
  std::vector<int64_t> root_hess_;   // the root histogram's h cells (g cells 0)
  std::vector<std::array<std::vector<int64_t>, 2>> hist_;  // [depth][left / right]
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

void GbdtBinCache::Refresh(const GbdtDataset& data, int max_bins) {
  size_t n_rows = data.rows().rows();
  size_t dim = data.rows().dim();
  if (max_bins != max_bins_ || dim != edges_.size() || n_rows < n_rows_) {
    max_bins_ = max_bins;
    n_rows_ = 0;
    edges_.assign(dim, {});
    columns_.assign(dim, {});
  }
  for (size_t f = 0; f < dim; ++f) {
    std::vector<float> edges = EdgesOf(data.values(f), max_bins);
    // Equal edges bin every old row as before: bin only the new ones.
    size_t first = edges == edges_[f] ? n_rows_ : 0;
    edges_[f] = std::move(edges);
    std::vector<uint8_t>& column = columns_[f];
    column.resize(n_rows);
    for (size_t i = first; i < n_rows; ++i) {
      column[i] = BinOf(edges_[f], data.rows().at(i, f));
    }
  }
  n_rows_ = n_rows;
}

void Gbdt::Train(const GbdtDataset& data) {
  GbdtBinCache bins;
  Train(data, &bins);
}

void Gbdt::Train(const GbdtDataset& data, GbdtBinCache* bins) {
  // Bin indices live in uint8_t: more than 256 bins would wrap silently.
  CHECK_GE(params_.max_bins, 2);
  CHECK_LE(params_.max_bins, 256);
  // Skipping duplicate columns (GroupSlots) and empty bins (FindBestSplit)
  // is exact only while the best gain never decreases.
  CHECK_GE(params_.min_gain, 0.0);
  trees_.clear();
  base_score_ = 0.0;
  size_t n_rows = data.rows().rows();
  int n_programs = data.num_programs();
  if (n_rows == 0) {
    return;
  }

  bins->Refresh(data, params_.max_bins);
  SlotGroups groups = GroupSlots(*bins, n_rows);

  // Base score: weighted mean label spread across the average row count.
  double wy = 0.0;
  double w = 0.0;
  for (int p = 0; p < n_programs; ++p) {
    wy += data.weight(p) * data.label(p);
    w += data.weight(p);
  }
  double mean_label = w > 0.0 ? wy / w : 0.0;
  base_score_ = mean_label;

  // Per-program gradients and hessians: every row of a program shares them.
  std::vector<double> program_pred(static_cast<size_t>(n_programs), base_score_);
  std::vector<double> grad(static_cast<size_t>(n_programs));
  std::vector<double> hess(static_cast<size_t>(n_programs));
  for (int p = 0; p < n_programs; ++p) {
    hess[static_cast<size_t>(p)] = 2.0 * data.weight(p);
  }
  TreeBuilder builder(data, groups, *bins, params_, hess);
  for (int t = 0; t < params_.num_trees; ++t) {
    for (int p = 0; p < n_programs; ++p) {
      double residual = program_pred[static_cast<size_t>(p)] - data.label(p);
      grad[static_cast<size_t>(p)] = 2.0 * data.weight(p) * residual;
    }
    Tree tree = builder.Build(grad);
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
