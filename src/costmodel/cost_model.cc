#include "src/costmodel/cost_model.h"

#include <algorithm>
#include <cstring>

#include "src/support/logging.h"
#include "src/support/util.h"

namespace ansor {

std::vector<double> CostModel::Predict(const std::vector<FeatureMatrix>& program_features) {
  std::vector<const FeatureMatrix*> programs;
  programs.reserve(program_features.size());
  for (const FeatureMatrix& m : program_features) {
    programs.push_back(&m);
  }
  return PredictBatch(programs);
}

std::vector<std::vector<double>> CostModel::PredictStatementsBatch(
    const std::vector<const FeatureMatrix*>& programs) {
  std::vector<std::vector<double>> scores;
  scores.reserve(programs.size());
  for (const FeatureMatrix* m : programs) {
    scores.push_back(PredictStatements(*m));
  }
  return scores;
}

GbdtCostModel::GbdtCostModel(GbdtParams params) : params_(params), model_(params) {}

void GbdtCostModel::Update(uint64_t task_id,
                           const std::vector<FeatureMatrix>& program_features,
                           const std::vector<double>& throughputs) {
  CHECK_EQ(program_features.size(), throughputs.size());
  for (size_t i = 0; i < program_features.size(); ++i) {
    if (program_features[i].empty()) {
      continue;  // failed lowering: nothing to learn from
    }
    data_.AddProgram(program_features[i]);
    labels_raw_.push_back(std::max(0.0, throughputs[i]));
    task_ids_.push_back(task_id);
    double& best = task_best_[task_id];
    best = std::max(best, throughputs[i]);
  }
  for (int p = 0; p < data_.num_programs(); ++p) {
    double best = task_best_[task_ids_[static_cast<size_t>(p)]];
    double label = best > 0.0 ? labels_raw_[static_cast<size_t>(p)] / best : 0.0;
    // Weighted squared error with the (normalized) throughput as the weight;
    // failed programs keep a small weight so the model learns to avoid them.
    data_.SetTarget(p, label, std::max(label, 0.1));
  }
  model_ = Gbdt(params_);
  model_.Train(data_, &bins_);
  CountTrain();
  BumpVersion();
}

std::vector<double> GbdtCostModel::PredictBatch(
    const std::vector<const FeatureMatrix*>& programs) {
  CountPredict(static_cast<int64_t>(programs.size()));
  std::vector<double> scores;
  scores.reserve(programs.size());
  for (const FeatureMatrix* m : programs) {
    if (m->empty()) {
      scores.push_back(kInvalidScore);  // empty features: failed lowering
      continue;
    }
    // base + s0 + s1 + ... in row order, the association PredictProgram uses.
    // An untrained model has no trees and a zero base score: it scores 0.
    double score = model_.base_score();
    for (size_t r = 0; r < m->rows(); ++r) {
      score += model_.PredictRow(m->row(r));
    }
    scores.push_back(score);
  }
  return scores;
}

std::vector<double> GbdtCostModel::PredictStatements(const FeatureMatrix& rows) {
  CountPredict(1);
  std::vector<double> scores;
  scores.reserve(rows.rows());
  for (size_t r = 0; r < rows.rows(); ++r) {
    scores.push_back(model_.PredictRow(rows.row(r)));
  }
  return scores;
}

std::vector<double> RandomCostModel::PredictBatch(
    const std::vector<const FeatureMatrix*>& programs) {
  CountPredict(static_cast<int64_t>(programs.size()));
  std::vector<double> scores;
  scores.reserve(programs.size());
  for (const FeatureMatrix* m : programs) {
    scores.push_back(m->empty() ? kInvalidScore : rng_.Uniform());
  }
  return scores;
}

std::vector<double> RandomCostModel::PredictStatements(const FeatureMatrix& rows) {
  // Stateless by design (see the class comment): each row's score derives
  // from its contents and the seed, never from how many rows were scored
  // before, so per-call memoized statement scores replay bit-identically.
  std::vector<double> scores;
  scores.reserve(rows.rows());
  for (size_t r = 0; r < rows.rows(); ++r) {
    const float* row = rows.row(r);
    uint64_t h = seed_ ^ 0x517cc1b727220a95ULL;
    for (size_t f = 0; f < rows.dim(); ++f) {
      uint32_t bits = 0;
      std::memcpy(&bits, &row[f], sizeof(bits));
      HashCombine(&h, bits);
    }
    scores.push_back(Rng(h).Uniform());
  }
  return scores;
}

}  // namespace ansor
