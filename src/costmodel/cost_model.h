// Learned cost model interface (paper §5.2).
//
// "A single model is trained for all tensor programs coming from all DAGs, and
// we normalize the throughput of all programs come from the same DAG to be in
// the range of [0, 1]." The model accumulates measurement records across
// tasks and retrains on every update.
//
// GbdtCostModel keeps one persistent GbdtDataset, its only copy of the
// training data, and the GbdtBinCache of that dataset's binned columns.
// Update is their one writer: it appends the measured programs, recomputes
// just the per-program labels and weights (task bests move) and trains from
// scratch on the dataset as it stands, binning only what changed since the
// last Update. A model therefore equals one trained once over the same
// programs in the same order.
//
// All entry points speak FeatureMatrix — the flat row-major features cached
// on ProgramArtifacts. A model implements program scoring once, in
// PredictBatch over borrowed matrices, and statement scoring once, in
// PredictStatements; Predict and PredictStatementsBatch are base-class
// defaults built on those two, so no feature is copied to be scored.
//
// Concurrency: Predict* calls on one model may overlap each other (the one
// exception is RandomCostModel::PredictBatch, which advances a seeded
// stream), but never an Update: GbdtCostModel::Update rebuilds the model and
// appends to its training data with no lock. A model may therefore be shared
// only by drivers that never run at the same time (see JobSpec in
// src/service/tuning_service.h).
#ifndef ANSOR_SRC_COSTMODEL_COST_MODEL_H_
#define ANSOR_SRC_COSTMODEL_COST_MODEL_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/costmodel/gbdt.h"
#include "src/features/feature_extraction.h"
#include "src/support/rng.h"

namespace ansor {

class CostModel {
 public:
  // The invalid-program contract, in one place:
  //  * Prediction side: Predict/PredictBatch score a program with an empty
  //    feature matrix (failed lowering) as kInvalidScore — far below any
  //    real prediction, so fitness-proportional selection can never pick it.
  //  * Training side: Update receives invalid measurements as throughput 0;
  //    callers clear the feature matrix of possibly-transient failures so
  //    the model only learns zero-throughput from confirmed-bad programs.
  static constexpr double kInvalidScore = -1e9;

  CostModel() = default;
  virtual ~CostModel() = default;

  // Non-copyable: drivers share a model by pointer, and its training data
  // and call counters belong to one instance.
  CostModel(const CostModel&) = delete;
  CostModel& operator=(const CostModel&) = delete;

  // Adds measured programs for the given task and retrains. `task_id`
  // identifies the DAG for per-task throughput normalization; `throughputs`
  // are raw FLOPS, reported as 0 for invalid measurements (see the
  // kInvalidScore contract above).
  virtual void Update(uint64_t task_id, const std::vector<FeatureMatrix>& program_features,
                      const std::vector<double>& throughputs) = 0;

  // Predicted fitness per program (higher is better), over borrowed feature
  // matrices: the evolution hot path scores a population without copying
  // features out of cached ProgramArtifacts. Entries are non-null. Scores are
  // comparable within one task; programs with empty features score
  // kInvalidScore.
  virtual std::vector<double> PredictBatch(const std::vector<const FeatureMatrix*>& programs) = 0;

  // PredictBatch over owned matrices. The default gathers pointers and calls
  // PredictBatch.
  virtual std::vector<double> Predict(const std::vector<FeatureMatrix>& program_features);

  // Per-statement scores for one program (used by node-based crossover to
  // score the rewriting steps of individual DAG nodes). Implementations must
  // be pure functions of (rows, model state): EvolutionarySearch::Evolve
  // memoizes the result per ProgramArtifact for the length of one call and
  // its pool workers call it concurrently, in an order set by thread timing,
  // so a hidden per-call state (e.g. a shared RNG stream) would make search
  // results depend on the thread count and on how many lookups the
  // ProgramCache serves from one artifact, i.e. on its capacity.
  virtual std::vector<double> PredictStatements(const FeatureMatrix& rows) = 0;

  // Batched form of PredictStatements: scores several programs in one call.
  // Evolve does not batch (each crossover parent is scored by the pool
  // worker that first needs it), so no search path calls this. Entries are
  // non-null; a program with no rows (failed lowering) yields an
  // empty score vector. The default implementation loops PredictStatements.
  virtual std::vector<std::vector<double>> PredictStatementsBatch(
      const std::vector<const FeatureMatrix*>& programs);

  // Model generation: bumps on every Update that may change predictions.
  // A decorator that forwards to another model bumps its own version when
  // the inner one moves.
  uint64_t version() const { return version_; }

  // Call-volume counters, incremented by implementations via CountTrain /
  // CountPredict: how many Update calls retrained, and how many programs
  // were scored across all Predict* entry points (thread-safe).
  int64_t train_calls() const { return train_calls_.load(std::memory_order_relaxed); }
  int64_t programs_predicted() const {
    return programs_predicted_.load(std::memory_order_relaxed);
  }

 protected:
  void BumpVersion() { ++version_; }
  void CountTrain() { train_calls_.fetch_add(1, std::memory_order_relaxed); }
  void CountPredict(int64_t programs) {
    programs_predicted_.fetch_add(programs, std::memory_order_relaxed);
  }

 private:
  uint64_t version_ = 1;
  std::atomic<int64_t> train_calls_{0};
  std::atomic<int64_t> programs_predicted_{0};
};

// The learned GBDT model of §5.2.
class GbdtCostModel : public CostModel {
 public:
  explicit GbdtCostModel(GbdtParams params = GbdtParams());

  void Update(uint64_t task_id, const std::vector<FeatureMatrix>& program_features,
              const std::vector<double>& throughputs) override;
  std::vector<double> PredictBatch(
      const std::vector<const FeatureMatrix*>& programs) override;
  std::vector<double> PredictStatements(const FeatureMatrix& rows) override;

  size_t num_samples() const { return labels_raw_.size(); }
  // The trained model (bench / introspection).
  const Gbdt& gbdt() const { return model_; }

 private:
  GbdtParams params_;
  Gbdt model_;
  // Accumulated training data: program p of data_ was measured at
  // labels_raw_[p] FLOPS on task task_ids_[p].
  GbdtDataset data_;
  // data_'s binned columns, refreshed by each Update's Train.
  GbdtBinCache bins_;
  std::vector<double> labels_raw_;
  std::vector<uint64_t> task_ids_;
  std::unordered_map<uint64_t, double> task_best_;
};

// A model returning uniform random scores: the exploration floor used by
// tests and the "random" ablations. PredictBatch draws from a seeded stream;
// PredictStatements is stateless (scores derive from hashing the row
// contents with the seed) so that Evolve's per-call statement-score memo
// cannot perturb later predictions through the stream.
class RandomCostModel : public CostModel {
 public:
  explicit RandomCostModel(uint64_t seed = 0) : seed_(seed), rng_(seed) {}

  void Update(uint64_t, const std::vector<FeatureMatrix>&,
              const std::vector<double>&) override {}
  std::vector<double> PredictBatch(
      const std::vector<const FeatureMatrix*>& programs) override;
  std::vector<double> PredictStatements(const FeatureMatrix& rows) override;

 private:
  uint64_t seed_;
  Rng rng_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_COSTMODEL_COST_MODEL_H_
