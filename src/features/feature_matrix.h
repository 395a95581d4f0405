// Contiguous per-statement feature storage for the scoring hot path.
//
// A FeatureMatrix is a flat row-major float buffer with a fixed stride of
// dim() (= FeatureDim() for extractor output) plus per-row stage names. The
// extractor produces one per lowered program, the ProgramArtifact stores it,
// and the cost model consumes it zero-copy: batch prediction walks raw row
// pointers, training datasets append whole matrices with one block copy, and
// crossover parent scoring reads rows in place. Replaces the former
// std::vector<std::vector<float>> representation whose per-row allocations
// dominated the scoring profile once compilation itself was cached.
#ifndef ANSOR_SRC_FEATURES_FEATURE_MATRIX_H_
#define ANSOR_SRC_FEATURES_FEATURE_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ansor {

class FeatureMatrix {
 public:
  // An empty matrix (dim 0, no rows): the representation of a program that
  // failed to lower. AppendRow fixes the dimension on first use.
  FeatureMatrix() = default;
  explicit FeatureMatrix(size_t dim) : dim_(dim) {}

  size_t dim() const { return dim_; }
  size_t rows() const { return dim_ == 0 ? 0 : data_.size() / dim_; }
  bool empty() const { return data_.empty(); }

  const float* row(size_t r) const { return data_.data() + r * dim_; }
  float at(size_t r, size_t f) const { return data_[r * dim_ + f]; }
  const std::vector<float>& data() const { return data_; }

  // Owning stage name of each row (node-based crossover scoring); "" for
  // rows appended without one (e.g. training datasets). Always rows() long.
  const std::vector<std::string>& row_stages() const { return row_stages_; }
  const std::string& row_stage(size_t r) const { return row_stages_[r]; }

  void Reserve(size_t n_rows);
  // Appends a zero-filled row owned by `stage` and returns its mutable
  // storage (valid until the next append). Requires a fixed dimension.
  float* AddRow(std::string stage = std::string());
  // Appends a copy of `values`; fixes dim() on the first row of a
  // default-constructed matrix, and requires matching size afterwards.
  void AppendRow(const std::vector<float>& values, std::string stage = std::string());
  void AppendRow(const float* values, size_t n, std::string stage = std::string());
  // Appends every row of `other` (dims must agree; block copy).
  void AppendMatrix(const FeatureMatrix& other);
  // Drops all rows; keeps dim() and capacity.
  void Clear();

  // Conversions for tests and tools; the hot path never materializes rows.
  std::vector<std::vector<float>> ToRows() const;
  static FeatureMatrix FromRows(const std::vector<std::vector<float>>& rows);

  friend bool operator==(const FeatureMatrix& a, const FeatureMatrix& b) {
    return a.dim_ == b.dim_ && a.data_ == b.data_ && a.row_stages_ == b.row_stages_;
  }
  friend bool operator!=(const FeatureMatrix& a, const FeatureMatrix& b) {
    return !(a == b);
  }

 private:
  size_t dim_ = 0;
  std::vector<float> data_;
  std::vector<std::string> row_stages_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_FEATURES_FEATURE_MATRIX_H_
