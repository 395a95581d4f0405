#include "src/costmodel/gbdt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/store/bytes.h"
#include "src/support/logging.h"

namespace ansor {
namespace {

// Per-feature histogram bin edges computed from (sub-sampled) quantiles.
struct BinMap {
  // edges[f] sorted ascending; bin(x) = upper_bound index.
  std::vector<std::vector<float>> edges;

  uint8_t BinOf(int feature, float x) const {
    const std::vector<float>& e = edges[static_cast<size_t>(feature)];
    return static_cast<uint8_t>(std::upper_bound(e.begin(), e.end(), x) - e.begin());
  }
};

BinMap BuildBins(const FeatureMatrix& rows, int max_bins) {
  size_t dim = rows.dim();
  size_t n_rows = rows.rows();
  BinMap bins;
  bins.edges.resize(dim);
  std::vector<float> values;
  values.reserve(n_rows);
  for (size_t f = 0; f < dim; ++f) {
    values.clear();
    for (size_t i = 0; i < n_rows; ++i) {
      values.push_back(rows.at(i, f));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
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

struct SplitResult {
  double gain = 0.0;
  int column = -1;  // kept column of the SlotMatrix
  int bin = -1;     // go left when bin(x) <= bin
};

// Builds one tree over the slot matrix. Every (column, bin) histogram sum
// adds the node's grad/hess values in ascending row order, and columns are
// scanned in feature order with a strict `>` on the gain, so the trees equal
// those of a per-feature histogram search bit for bit.
class TreeBuilder {
 public:
  TreeBuilder(const SlotMatrix& slots, size_t n_rows, const BinMap& bins,
              const std::vector<double>& grad, const std::vector<double>& hess,
              const GbdtParams& params)
      : slots_(slots), n_rows_(n_rows), bins_(bins), grad_(grad), hess_(hess),
        params_(params) {}

  Tree Build() {
    std::vector<int> all(n_rows_);
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<int>(i);
    }
    BuildNode(all, 0);
    return std::move(tree_);
  }

 private:
  int BuildNode(const std::vector<int>& rows, int depth) {
    double g = 0.0;
    double h = 0.0;
    for (int i : rows) {
      g += grad_[static_cast<size_t>(i)];
      h += hess_[static_cast<size_t>(i)];
    }
    int node_id = static_cast<int>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    // Newton step leaf value.
    tree_.nodes[static_cast<size_t>(node_id)].value = -g / (h + params_.lambda);

    if (depth >= params_.max_depth ||
        static_cast<int>(rows.size()) < 2 * params_.min_rows_per_leaf) {
      return node_id;
    }
    SplitResult best = FindBestSplit(rows, g, h);
    if (best.column < 0) {
      return node_id;
    }
    size_t column = static_cast<size_t>(best.column);
    uint32_t last_left = slots_.offset[column] + static_cast<uint32_t>(best.bin);
    std::vector<int> left;
    std::vector<int> right;
    for (int i : rows) {
      if (slots_.row(static_cast<size_t>(i))[column] <= last_left) {
        left.push_back(i);
      } else {
        right.push_back(i);
      }
    }
    if (static_cast<int>(left.size()) < params_.min_rows_per_leaf ||
        static_cast<int>(right.size()) < params_.min_rows_per_leaf) {
      return node_id;
    }
    int left_id = BuildNode(left, depth + 1);
    int right_id = BuildNode(right, depth + 1);
    TreeNode& node = tree_.nodes[static_cast<size_t>(node_id)];
    node.feature = slots_.feature[column];
    node.threshold =
        bins_.edges[static_cast<size_t>(node.feature)][static_cast<size_t>(best.bin)];
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  SplitResult FindBestSplit(const std::vector<int>& rows, double g_total, double h_total) {
    // Interleaved (g, h) sums per slot. Each row's grad/hess are loaded once
    // and added to one slot per column; consecutive adds hit different
    // slots, so they do not chain through one bin's store and load.
    hist_.assign(2 * slots_.n_slots(), 0.0);
    double* hist = hist_.data();
    size_t n_cols = slots_.n_cols;
    for (int i : rows) {
      double g = grad_[static_cast<size_t>(i)];
      double h = hess_[static_cast<size_t>(i)];
      const uint16_t* slot = slots_.row(static_cast<size_t>(i));
      auto add = [hist, g, h](uint16_t s) {
        double* cell = hist + 2 * static_cast<size_t>(s);
        cell[0] += g;
        cell[1] += h;
      };
      // Unrolled by four: columns own disjoint slots, so the adds are
      // independent and their order within a row does not matter.
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

    SplitResult best;
    double parent_score = g_total * g_total / (h_total + params_.lambda);
    for (size_t k = 0; k < n_cols; ++k) {
      const double* cell = hist + 2 * static_cast<size_t>(slots_.offset[k]);
      size_t n_bins = slots_.offset[k + 1] - slots_.offset[k];
      double gl = 0.0;
      double hl = 0.0;
      for (size_t b = 0; b + 1 < n_bins; ++b) {
        gl += cell[2 * b];
        hl += cell[2 * b + 1];
        double gr = g_total - gl;
        double hr = h_total - hl;
        if (hl <= 0.0 || hr <= 0.0) {
          continue;
        }
        double gain = gl * gl / (hl + params_.lambda) + gr * gr / (hr + params_.lambda) -
                      parent_score;
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
  size_t n_rows_;
  const BinMap& bins_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const GbdtParams& params_;
  std::vector<double> hist_;
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

void Gbdt::Train(const GbdtDataset& data) {
  // Bin indices live in uint8_t: more than 256 bins would wrap silently.
  CHECK_GE(params_.max_bins, 2);
  CHECK_LE(params_.max_bins, 256);
  // Dropping duplicate columns (BuildSlots) is exact only while the best gain
  // never decreases.
  CHECK_GE(params_.min_gain, 0.0);
  trees_.clear();
  base_score_ = 0.0;
  size_t n_rows = data.rows.rows();
  if (n_rows == 0 || data.num_programs() == 0) {
    return;
  }
  CHECK_EQ(data.group.size(), n_rows);
  CHECK_EQ(data.weights.size(), data.labels.size());

  BinMap bins = BuildBins(data.rows, params_.max_bins);
  SlotMatrix slots = BuildSlots(data.rows, bins);

  // Rows per program (for the sum-structured prediction).
  std::vector<std::vector<int>> program_rows(static_cast<size_t>(data.num_programs()));
  for (size_t i = 0; i < n_rows; ++i) {
    program_rows[static_cast<size_t>(data.group[i])].push_back(static_cast<int>(i));
  }

  // Base score: weighted mean label spread across the average row count.
  double wy = 0.0;
  double w = 0.0;
  for (int p = 0; p < data.num_programs(); ++p) {
    wy += data.weights[static_cast<size_t>(p)] * data.labels[static_cast<size_t>(p)];
    w += data.weights[static_cast<size_t>(p)];
  }
  double mean_label = w > 0.0 ? wy / w : 0.0;
  base_score_ = mean_label;

  std::vector<double> program_pred(static_cast<size_t>(data.num_programs()), base_score_);
  std::vector<double> grad(n_rows);
  std::vector<double> hess(n_rows);
  for (int t = 0; t < params_.num_trees; ++t) {
    for (size_t i = 0; i < n_rows; ++i) {
      int p = data.group[i];
      double wp = data.weights[static_cast<size_t>(p)];
      double residual = program_pred[static_cast<size_t>(p)] -
                        data.labels[static_cast<size_t>(p)];
      grad[i] = 2.0 * wp * residual;
      hess[i] = 2.0 * wp;
    }
    Tree tree = TreeBuilder(slots, n_rows, bins, grad, hess, params_).Build();
    // Update program predictions.
    bool useful = false;
    for (int p = 0; p < data.num_programs(); ++p) {
      double delta = 0.0;
      for (int i : program_rows[static_cast<size_t>(p)]) {
        delta += tree.PredictRow(data.rows.row(static_cast<size_t>(i)));
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

namespace {
// Decoder sanity bounds: far beyond any trainable model, small enough to
// reject allocation bombs from corrupted input.
constexpr uint64_t kMaxDecodedTrees = 1u << 20;
constexpr uint64_t kMaxDecodedNodes = 1u << 22;
}  // namespace

void Gbdt::EncodeTo(ByteWriter* w) const {
  w->PutZigzag(params_.num_trees);
  w->PutZigzag(params_.max_depth);
  w->PutF64(params_.learning_rate);
  w->PutF64(params_.lambda);
  w->PutZigzag(params_.max_bins);
  w->PutZigzag(params_.min_rows_per_leaf);
  w->PutF64(params_.min_gain);
  w->PutF64(base_score_);
  w->PutVarint(trees_.size());
  for (const Tree& tree : trees_) {
    w->PutVarint(tree.nodes.size());
    for (const TreeNode& node : tree.nodes) {
      w->PutZigzag(node.feature);
      w->PutF32(node.threshold);
      w->PutZigzag(node.left);
      w->PutZigzag(node.right);
      w->PutF64(node.value);
    }
  }
}

bool Gbdt::DecodeFrom(ByteReader* r, int num_features) {
  GbdtParams params;
  params.num_trees = static_cast<int>(r->GetZigzag());
  params.max_depth = static_cast<int>(r->GetZigzag());
  params.learning_rate = r->GetF64();
  params.lambda = r->GetF64();
  params.max_bins = static_cast<int>(r->GetZigzag());
  params.min_rows_per_leaf = static_cast<int>(r->GetZigzag());
  params.min_gain = r->GetF64();
  double base_score = r->GetF64();
  uint64_t num_trees = r->GetVarint();
  if (!r->ok() || num_trees > kMaxDecodedTrees || !std::isfinite(base_score) ||
      params.max_bins < 2 || params.max_bins > 256) {
    r->Fail();
    return false;
  }
  std::vector<Tree> trees(num_trees);
  for (Tree& tree : trees) {
    uint64_t num_nodes = r->GetVarint();
    if (!r->ok() || num_nodes > kMaxDecodedNodes) {
      r->Fail();
      return false;
    }
    tree.nodes.resize(num_nodes);
    int n = static_cast<int>(num_nodes);
    for (int i = 0; i < n; ++i) {
      TreeNode& node = tree.nodes[static_cast<size_t>(i)];
      node.feature = static_cast<int>(r->GetZigzag());
      node.threshold = r->GetF32();
      node.left = static_cast<int>(r->GetZigzag());
      node.right = static_cast<int>(r->GetZigzag());
      node.value = r->GetF64();
      if (!r->ok() || node.feature < -1 || node.feature >= num_features ||
          !std::isfinite(node.value)) {
        r->Fail();
        return false;
      }
      // Internal nodes must reference children after themselves (leaves
      // carry -1/-1): an out-of-range child would send inference walking
      // wild memory, and a backward one would loop it forever.
      bool is_leaf = node.feature == -1;
      if (!is_leaf && (node.left <= i || node.left >= n || node.right <= i || node.right >= n)) {
        r->Fail();
        return false;
      }
    }
  }
  params_ = params;
  base_score_ = base_score;
  trees_ = std::move(trees);
  return true;
}

}  // namespace ansor
