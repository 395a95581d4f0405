#include "src/costmodel/cost_model.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/ir/state.h"
#include "src/store/artifact_store.h"
#include "src/store/record_store.h"
#include "src/store/serde.h"
#include "src/support/logging.h"
#include "src/support/util.h"

namespace ansor {

CostModel::CostModel() {
  static std::atomic<uint64_t> next_id{1};
  model_id_ = next_id.fetch_add(1);
}

void CostModel::ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const {
  registry->SetGauge(prefix + ".version", static_cast<double>(version()));
  registry->SetGauge(prefix + ".train_calls", static_cast<double>(train_calls()));
  registry->SetGauge(prefix + ".programs_predicted",
                     static_cast<double>(programs_predicted()));
}

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
    AddSample(task_id, program_features[i], throughputs[i]);
  }
  Retrain();
  CountTrain();
  BumpVersion();  // invalidates stage-score memos on cached artifacts
}

void GbdtCostModel::AddSample(uint64_t task_id, const FeatureMatrix& features,
                              double throughput) {
  data_.AddProgram(features);
  labels_raw_.push_back(std::max(0.0, throughput));
  task_ids_.push_back(task_id);
  double& best = task_best_[task_id];
  best = std::max(best, throughput);
}

void GbdtCostModel::Retrain() {
  for (int p = 0; p < data_.num_programs(); ++p) {
    double best = task_best_[task_ids_[static_cast<size_t>(p)]];
    double label = best > 0.0 ? labels_raw_[static_cast<size_t>(p)] / best : 0.0;
    // Weighted squared error with the (normalized) throughput as the weight;
    // failed programs keep a small weight so the model learns to avoid them.
    data_.SetTarget(p, label, std::max(label, 0.1));
  }
  model_ = Gbdt(params_);
  model_.Train(data_);
}

TrainFromStoreStats GbdtCostModel::TrainFromStore(const RecordStore& records,
                                                  const ArtifactStore& artifacts) {
  TrainFromStoreStats stats;
  for (const TuningRecord& record : records.Snapshot()) {
    const ArtifactSnapshot* artifact =
        artifacts.Find(record.task_id, StepSignature(record.steps));
    if (artifact == nullptr || artifact->features.empty()) {
      ++stats.missing_features;
      continue;
    }
    // Live measurements persist their FLOPS throughput; a record without
    // one carries only seconds. 1/seconds differs from FLOPS by the task's
    // constant flop count, which the per-task normalization divides away.
    double throughput = record.throughput > 0.0
                            ? record.throughput
                            : (record.seconds > 0.0 ? 1.0 / record.seconds : 0.0);
    AddSample(record.task_id, artifact->features, throughput);
    ++stats.used;
  }
  if (stats.used > 0) {
    Retrain();
    CountTrain();
    BumpVersion();
  }
  return stats;
}

void GbdtCostModel::ExportMetrics(MetricsRegistry* registry,
                                  const std::string& prefix) const {
  CostModel::ExportMetrics(registry, prefix);
  registry->SetGauge(prefix + ".samples", static_cast<double>(num_samples()));
}

namespace {

constexpr char kModelMagic[8] = {'A', 'N', 'S', 'R', 'G', 'B', 'M', '1'};
constexpr size_t kModelMagicSize = sizeof(kModelMagic);

}  // namespace

std::string GbdtCostModel::Serialize() const {
  // Body first so the string table (stage names interned by the feature
  // codec) is complete before it is written ahead of the body.
  StringTable strings;
  ByteWriter body;
  model_.EncodeTo(&body);
  body.PutVarint(labels_raw_.size());
  for (int p = 0; p < data_.num_programs(); ++p) {
    EncodeFeatureRows(data_.rows(), data_.program_begin(p), data_.program_begin(p + 1),
                      &strings, &body);
    body.PutF64(labels_raw_[static_cast<size_t>(p)]);
    body.PutU64(task_ids_[static_cast<size_t>(p)]);
  }
  // task_best_ in sorted task order: identical state must serialize to
  // identical bytes regardless of hash-map iteration order.
  std::vector<std::pair<uint64_t, double>> bests(task_best_.begin(), task_best_.end());
  std::sort(bests.begin(), bests.end());
  body.PutVarint(bests.size());
  for (const auto& [task, best] : bests) {
    body.PutU64(task);
    body.PutF64(best);
  }
  ByteWriter w;
  w.PutRaw(kModelMagic, kModelMagicSize);
  strings.Encode(&w);
  w.PutRaw(body.buffer().data(), body.size());
  return w.Take();
}

bool GbdtCostModel::Deserialize(const std::string& bytes) {
  if (bytes.size() < kModelMagicSize ||
      bytes.compare(0, kModelMagicSize, kModelMagic, kModelMagicSize) != 0) {
    return false;
  }
  ByteReader r(bytes);
  r.Skip(kModelMagicSize);
  StringTable strings;
  if (!strings.Decode(&r)) {
    return false;
  }
  Gbdt model;
  if (!model.DecodeFrom(&r, static_cast<int>(FeatureDim()))) {
    return false;
  }
  uint64_t num_samples = r.GetCount();
  if (!r.ok()) {
    return false;
  }
  GbdtDataset data;
  std::vector<double> labels;
  std::vector<uint64_t> task_ids;
  labels.reserve(num_samples);
  task_ids.reserve(num_samples);
  for (uint64_t i = 0; i < num_samples; ++i) {
    FeatureMatrix m;
    if (!DecodeFeatureMatrix(&r, strings.strings(), &m)) {
      return false;
    }
    double label = r.GetF64();
    uint64_t task = r.GetU64();
    // Every sample is a measured program: non-empty, with the first's width.
    if (!r.ok() || !std::isfinite(label) || label < 0.0 || m.empty() ||
        (i > 0 && m.dim() != data.rows().dim())) {
      return false;
    }
    data.AddProgram(m);
    labels.push_back(label);
    task_ids.push_back(task);
  }
  uint64_t num_bests = r.GetCount();
  if (!r.ok()) {
    return false;
  }
  std::unordered_map<uint64_t, double> bests;
  for (uint64_t i = 0; i < num_bests; ++i) {
    uint64_t task = r.GetU64();
    double best = r.GetF64();
    if (!r.ok() || !std::isfinite(best)) {
      return false;
    }
    bests[task] = best;
  }
  if (!r.AtEnd()) {
    return false;  // trailing garbage: refuse, the container is inconsistent
  }
  params_ = model.params();
  model_ = std::move(model);
  data_ = std::move(data);
  labels_raw_ = std::move(labels);
  task_ids_ = std::move(task_ids);
  task_best_ = std::move(bests);
  BumpVersion();  // any memoized stage scores elsewhere are now stale
  return true;
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
  // before, so memoized statement scores replay bit-identically.
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
