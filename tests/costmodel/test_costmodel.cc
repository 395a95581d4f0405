#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "src/costmodel/cost_model.h"
#include "src/costmodel/gbdt.h"
#include "src/costmodel/metrics.h"
#include "src/store/bytes.h"
#include "src/support/rng.h"
#include "tests/testing.h"

namespace ansor {
namespace {

// Synthetic dataset: program score is a linear function of two features.
GbdtDataset MakeSyntheticDataset(int n_programs, int rows_per_program, Rng* rng) {
  GbdtDataset data;
  for (int p = 0; p < n_programs; ++p) {
    double label = 0.0;
    FeatureMatrix program;
    for (int r = 0; r < rows_per_program; ++r) {
      std::vector<float> row(8, 0.0f);
      for (auto& v : row) {
        v = static_cast<float>(rng->Uniform());
      }
      label += 0.6 * row[0] + 0.4 * row[3];
      program.AppendRow(row);
    }
    label /= rows_per_program;
    data.AddProgram(program);
    data.SetTarget(p, label, std::max(label, 0.1));
  }
  return data;
}

// One single-row program as a FeatureMatrix.
FeatureMatrix OneRowProgram(const std::vector<float>& row) {
  return FeatureMatrix::FromRows({row});
}

TEST(Gbdt, LearnsSyntheticFunction) {
  Rng rng(3);
  GbdtDataset train = MakeSyntheticDataset(200, 2, &rng);
  Gbdt model;
  model.Train(train);
  ASSERT_TRUE(model.trained());

  GbdtDataset test = MakeSyntheticDataset(100, 2, &rng);
  std::vector<double> preds;
  std::vector<double> truth;
  for (int p = 0; p < test.num_programs(); ++p) {
    std::vector<std::vector<float>> rows;
    for (size_t row = test.program_begin(p); row < test.program_begin(p + 1); ++row) {
      rows.emplace_back(test.rows().row(row), test.rows().row(row) + test.rows().dim());
    }
    preds.push_back(model.PredictProgram(rows));
    truth.push_back(test.label(p));
  }
  double acc = PairwiseComparisonAccuracy(preds, truth);
  EXPECT_GT(acc, 0.85) << "GBDT failed to learn a simple linear ranking";
}

TEST(Gbdt, EmptyDatasetIsSafe) {
  Gbdt model;
  model.Train(GbdtDataset{});
  EXPECT_FALSE(model.trained());
  EXPECT_DOUBLE_EQ(model.PredictRow(std::vector<float>(8, 0.0f)), 0.0);
}

TEST(Gbdt, WeightedLossPrioritizesFastPrograms) {
  // Two clusters: fast programs distinguished by feature 0, slow ones by
  // feature 1 with conflicting signal. With throughput weighting the model
  // must rank the fast cluster correctly.
  Rng rng(11);
  GbdtDataset data;
  int p = 0;
  for (int i = 0; i < 150; ++i) {
    std::vector<float> row(4, 0.0f);
    row[0] = static_cast<float>(rng.Uniform());
    double label = 0.7 + 0.3 * row[0];  // fast cluster
    data.AddProgram(FeatureMatrix::FromRows({row}));
    data.SetTarget(p, label, label);
    ++p;
  }
  Gbdt model;
  model.Train(data);
  std::vector<float> hi(4, 0.0f);
  hi[0] = 0.95f;
  std::vector<float> lo(4, 0.0f);
  lo[0] = 0.05f;
  EXPECT_GT(model.PredictProgram({hi}), model.PredictProgram({lo}));
}

TEST(Gbdt, MaxBinsOutOfRangeDies) {
  // Bin indices are uint8_t; max_bins outside [2, 256] would silently wrap.
  Rng rng(1);
  GbdtDataset data = MakeSyntheticDataset(10, 1, &rng);
  GbdtParams params;
  params.max_bins = 300;
  EXPECT_DEATH(Gbdt(params).Train(data), "max_bins");
  params.max_bins = 1;
  EXPECT_DEATH(Gbdt(params).Train(data), "max_bins");
}

TEST(Gbdt, NegativeMinGainDies) {
  // Dropping duplicate feature columns is exact only while the best gain
  // never decreases, which needs min_gain >= 0.
  Rng rng(1);
  GbdtDataset data = MakeSyntheticDataset(10, 1, &rng);
  GbdtParams params;
  params.min_gain = -1e-3;
  EXPECT_DEATH(Gbdt(params).Train(data), "min_gain");
}

// Fixed training set for the golden test: programs of 1-3 rows with varied
// weights, two constant columns, an exact copy (3 of 1) and an exact x2 copy
// (5 of 0) of earlier columns, a two-valued column (8), and columns with more
// distinct values than max_bins (0, 5, 7), whose quantile edges are data
// values.
GbdtDataset MakeGoldenDataset() {
  Rng rng(2020);
  GbdtDataset data;
  for (int p = 0; p < 90; ++p) {
    int n_rows = 1 + p % 3;
    double label = 0.0;
    FeatureMatrix program;
    for (int r = 0; r < n_rows; ++r) {
      std::vector<float> row(9);
      row[0] = static_cast<float>(rng.Uniform());
      row[1] = std::floor(static_cast<float>(rng.Uniform()) * 6.0f);
      row[2] = 1.0f;
      row[3] = row[1];
      row[4] = std::floor(static_cast<float>(rng.Uniform()) * 20.0f) / 20.0f;
      row[5] = 2.0f * row[0];
      row[6] = 0.0f;
      row[7] = static_cast<float>(rng.Uniform());
      row[8] = rng.Uniform() < 0.3 ? 1.0f : 0.0f;
      label += 0.5 * row[0] + 0.1 * row[1] - 0.3 * row[4] * row[7] + 0.2 * row[8];
      program.AppendRow(row);
    }
    data.AddProgram(program);
    data.SetTarget(p, label / n_rows, 0.1 + rng.Uniform());
  }
  return data;
}

// One feature matrix per program of `data`.
std::vector<FeatureMatrix> ProgramsOf(const GbdtDataset& data) {
  std::vector<FeatureMatrix> programs(static_cast<size_t>(data.num_programs()));
  for (int p = 0; p < data.num_programs(); ++p) {
    for (size_t i = data.program_begin(p); i < data.program_begin(p + 1); ++i) {
      programs[static_cast<size_t>(p)].AppendRow(data.rows().row(i), data.rows().dim());
    }
  }
  return programs;
}

// A trained model's bytes: the params it was built with, its base score,
// and every node's feature, threshold, children and value bits.
std::string EncodedBytes(const Gbdt& model, const GbdtParams& params = GbdtParams()) {
  ByteWriter w;
  w.PutZigzag(params.num_trees);
  w.PutZigzag(params.max_depth);
  w.PutF64(params.learning_rate);
  w.PutF64(params.lambda);
  w.PutZigzag(params.max_bins);
  w.PutZigzag(params.min_rows_per_leaf);
  w.PutF64(params.min_gain);
  w.PutF64(model.base_score());
  w.PutVarint(model.trees().size());
  for (const Tree& tree : model.trees()) {
    w.PutVarint(tree.nodes.size());
    for (const TreeNode& node : tree.nodes) {
      w.PutZigzag(node.feature);
      w.PutF32(node.threshold);
      w.PutZigzag(node.left);
      w.PutZigzag(node.right);
      w.PutF64(node.value);
    }
  }
  return w.Take();
}

uint64_t HashOf(const std::string& bytes) { return Fnv1a64(bytes.data(), bytes.size()); }

uint64_t HashOf(const std::vector<double>& scores) {
  return Fnv1a64(reinterpret_cast<const char*>(scores.data()), scores.size() * sizeof(double));
}

TEST(Gbdt, TrainingIsBitExactGolden) {
  // Pins the trainer's output bit for bit. Any rewrite of binning or the
  // split search must reproduce these trees exactly: the search trajectory
  // of every fixed-seed tuning run depends on them. The trees train a row
  // equal to a quantile edge into the left child, as inference routes it.
  Gbdt model;
  model.Train(MakeGoldenDataset());
  EXPECT_EQ(HashOf(EncodedBytes(model)), 0x573d25e31106b6f1ULL);
  ASSERT_EQ(model.trees().size(), 50u);
  EXPECT_EQ(model.base_score(), 0x1.075c28b3faa3ep-1);
  const std::vector<TreeNode>& first = model.trees()[0].nodes;
  ASSERT_EQ(first.size(), 31u);
  EXPECT_EQ(first[0].feature, 0);
  EXPECT_EQ(first[0].threshold, 0x1.962a8p-2f);  // quantile edge: a data value
  EXPECT_EQ(first[1].feature, 1);
  EXPECT_EQ(first[1].threshold, 0x1.cp+1f);  // midpoint edge
  EXPECT_EQ(first[9].feature, 8);
  EXPECT_EQ(first[9].threshold, 0x1p-1f);  // the two-valued column
  EXPECT_EQ(first[3].value, -0x1.dbc0d7a054b25p-6);
  EXPECT_EQ(first[7].value, -0x1.0e3dd8d7de131p-2);
  EXPECT_EQ(model.trees().back().nodes[0].value, 0x1.f14d0a79ee03dp-13);

  // With min_gain = 0 an empty bin ties with the bin before it; the strict
  // `gain > best` keeps the first of tied splits.
  GbdtParams ties;
  ties.min_gain = 0.0;
  Gbdt tied(ties);
  tied.Train(MakeGoldenDataset());
  EXPECT_EQ(HashOf(EncodedBytes(tied, ties)), 0xa2a48fef7c49bc7bULL);

  // The cost model's forest after three updates over two tasks.
  std::vector<FeatureMatrix> programs = ProgramsOf(MakeGoldenDataset());
  GbdtCostModel cost_model;
  for (int u = 0; u < 3; ++u) {
    std::vector<FeatureMatrix> batch(programs.begin() + 30 * u, programs.begin() + 30 * (u + 1));
    std::vector<double> throughputs;
    for (size_t p = 0; p < batch.size(); ++p) {
      throughputs.push_back(1e9 * (1.0 + batch[p].at(0, 0) + 0.25 * batch[p].at(0, 4)));
    }
    cost_model.Update(/*task_id=*/u == 1 ? 2 : 1, batch, throughputs);
  }
  EXPECT_EQ(cost_model.num_samples(), 90u);
  EXPECT_EQ(HashOf(EncodedBytes(cost_model.gbdt())), 0x937c9adb1e99064eULL);

  // Every prediction entry point's raw score bytes on that model, plus the
  // random model's draw order and both models' prediction counters. The
  // failed lowering sits mid-batch: a random draw spent on it would shift
  // every later random score.
  programs.insert(programs.begin() + 45, FeatureMatrix());
  std::vector<const FeatureMatrix*> ptrs;
  for (const FeatureMatrix& m : programs) {
    ptrs.push_back(&m);
  }

  std::vector<double> scores = cost_model.PredictBatch(ptrs);
  ASSERT_EQ(scores.size(), 91u);
  EXPECT_EQ(scores[45], CostModel::kInvalidScore);
  EXPECT_EQ(HashOf(scores), 0x723adddfb3d212d5ULL);

  std::vector<double> statement_scores;
  std::vector<std::vector<double>> per_program = cost_model.PredictStatementsBatch(ptrs);
  ASSERT_EQ(per_program.size(), 91u);
  for (size_t p = 0; p < per_program.size(); ++p) {
    ASSERT_EQ(per_program[p].size(), programs[p].rows()) << "program " << p;
    statement_scores.insert(statement_scores.end(), per_program[p].begin(), per_program[p].end());
  }
  EXPECT_EQ(HashOf(statement_scores), 0x1dcc6173bf8fceacULL);
  EXPECT_EQ(cost_model.programs_predicted(), 182);

  RandomCostModel random(7);
  std::vector<double> random_scores = random.Predict(programs);
  EXPECT_EQ(random_scores[45], CostModel::kInvalidScore);
  EXPECT_EQ(HashOf(random_scores), 0x96b5a027ecc4c552ULL);
  EXPECT_EQ(random.programs_predicted(), 91);
}

// Fixed training set where most rows repeat: every row is one of 48
// templates, drawn with replacement, so rows repeat within a program and
// across programs, and every tenth program copies an earlier one's rows
// under another label. Column 0 has 48 distinct values (quantile edges),
// columns 1-3 a few each (midpoint edges), column 4 is constant.
GbdtDataset MakeDuplicateRowsDataset() {
  Rng rng(77);
  std::vector<std::vector<float>> templates;
  for (int t = 0; t < 48; ++t) {
    float coarse = std::floor(static_cast<float>(rng.Uniform()) * 4.0f);
    templates.push_back({static_cast<float>(t) * 0.25f, static_cast<float>(t % 5),
                         t % 3 == 0 ? 1.0f : 0.0f, coarse, 2.0f});
  }
  GbdtDataset data;
  std::vector<FeatureMatrix> programs;
  for (int p = 0; p < 160; ++p) {
    FeatureMatrix program;
    if (p % 10 == 9) {
      program = programs[rng.Index(programs.size())];
    } else {
      int n_rows = 1 + static_cast<int>(rng.Index(5));
      for (int r = 0; r < n_rows; ++r) {
        program.AppendRow(templates[rng.Index(templates.size())]);
      }
    }
    double label = 0.0;
    for (size_t r = 0; r < program.rows(); ++r) {
      label += 0.02 * program.at(r, 0) + 0.1 * program.at(r, 2) - 0.05 * program.at(r, 3);
    }
    data.AddProgram(program);
    data.SetTarget(p, label / static_cast<double>(program.rows()) + 0.2 * rng.Uniform(),
                   0.1 + rng.Uniform());
    programs.push_back(std::move(program));
  }
  return data;
}

TEST(Gbdt, DuplicateRowsTrainBitExactGolden) {
  // Pins the trees of a dataset made mostly of repeated rows, computed
  // before training grouped equal rows: growing trees over distinct rows
  // must not change a bit of them.
  GbdtDataset data = MakeDuplicateRowsDataset();
  Gbdt model;
  model.Train(data);
  EXPECT_EQ(HashOf(EncodedBytes(model)), 0x2a9e588febf98e61ULL);
  EXPECT_GT(model.trees().size(), 1u);
}

TEST(Gbdt, DuplicateColumnsNeverChangeTrees) {
  // A later column whose binned values equal an earlier column's (an exact
  // copy, or an exact x2 copy) can never win a split: training with it
  // appended must give the same trees, bit for bit.
  GbdtDataset base = MakeGoldenDataset();
  Gbdt reference;
  reference.Train(base);
  ASSERT_TRUE(reference.trained());
  // Column 7 has quantile edges; column 4 has one bin per distinct value.
  for (size_t source : {size_t{7}, size_t{4}}) {
    for (float scale : {1.0f, 2.0f}) {
      GbdtDataset data;
      for (int p = 0; p < base.num_programs(); ++p) {
        FeatureMatrix program;
        for (size_t i = base.program_begin(p); i < base.program_begin(p + 1); ++i) {
          std::vector<float> row(base.rows().row(i), base.rows().row(i) + base.rows().dim());
          row.push_back(scale * row[source]);
          program.AppendRow(row);
        }
        data.AddProgram(program);
        data.SetTarget(p, base.label(p), base.weight(p));
      }
      Gbdt model;
      model.Train(data);
      EXPECT_EQ(EncodedBytes(model), EncodedBytes(reference))
          << "source " << source << " scale " << scale;
    }
  }
}

TEST(Gbdt, RowOnQuantileEdgeTrainsTheBranchItPredicts) {
  // 100 distinct values exceed max_bins, so every split threshold is a
  // quantile edge: a data value. The programs with x <= 50 are the fast
  // ones, and 50 is an edge. A stump's left leaf must be the Newton step
  // over exactly the rows inference sends left, the row x == 50 included.
  GbdtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  GbdtDataset data;
  for (int p = 0; p < 100; ++p) {
    data.AddProgram(FeatureMatrix::FromRows({{static_cast<float>(p)}}));
    data.SetTarget(p, p <= 50 ? 1.0 : 0.0, 1.0);
  }
  Gbdt model(params);
  model.Train(data);
  ASSERT_EQ(model.trees().size(), 1u);
  const std::vector<TreeNode>& stump = model.trees()[0].nodes;
  ASSERT_EQ(stump.size(), 3u);
  float threshold = stump[0].threshold;
  EXPECT_EQ(threshold, 50.0f);
  double g = 0.0;
  double h = 0.0;
  for (int p = 0; p < 100; ++p) {
    if (static_cast<float>(p) <= threshold) {
      g += 2.0 * 1.0 * (model.base_score() - data.label(p));
      h += 2.0 * 1.0;
    }
  }
  double left = stump[static_cast<size_t>(stump[0].left)].value;
  EXPECT_EQ(left, -g / (h + params.lambda));
  EXPECT_EQ(model.PredictRow({threshold}), params.learning_rate * left);
}

// Whether every threshold and value of every tree is finite.
bool AllFinite(const Gbdt& model) {
  for (const Tree& tree : model.trees()) {
    for (const TreeNode& node : tree.nodes) {
      if (!std::isfinite(node.threshold) || !std::isfinite(node.value)) {
        return false;
      }
    }
  }
  return std::isfinite(model.base_score());
}

TEST(Gbdt, FixedPointSumsAtExtremeScales) {
  Rng rng(5);
  // Zero residuals: every label is the base score, so every gradient
  // quantizes to 0 and the first tree, a zero stump, ends training.
  GbdtDataset flat = MakeSyntheticDataset(40, 2, &rng);
  for (int p = 0; p < flat.num_programs(); ++p) {
    flat.SetTarget(p, 0.25, 1.0);
  }
  Gbdt zero;
  zero.Train(flat);
  EXPECT_TRUE(AllFinite(zero));
  ASSERT_EQ(zero.trees().size(), 1u);
  EXPECT_EQ(zero.trees()[0].nodes.size(), 1u);
  EXPECT_EQ(zero.PredictRow(flat.rows().row(0)), 0.0);

  // Labels and weights spanning 1e-6 to 1e6: hessians twelve decades apart
  // still quantize to positive integers, and no sum overflows.
  GbdtDataset wide = MakeSyntheticDataset(200, 2, &rng);
  for (int p = 0; p < wide.num_programs(); ++p) {
    wide.SetTarget(p, std::pow(10.0, -6.0 + 12.0 * rng.Uniform()),
                   std::pow(10.0, -6.0 + 12.0 * rng.Uniform()));
  }
  wide.SetTarget(0, 1e-6, 1e6);
  wide.SetTarget(1, 1e6, 1e-6);
  Gbdt spread;
  spread.Train(wide);
  EXPECT_GT(spread.trees().size(), 1u);
  EXPECT_TRUE(AllFinite(spread));

  // A single row: the root is a leaf whose value fits the label exactly.
  GbdtDataset one;
  one.AddProgram(FeatureMatrix::FromRows({{1.0f, -2.0f}}));
  one.SetTarget(0, 3.0, 0.5);
  Gbdt single;
  single.Train(one);
  EXPECT_TRUE(AllFinite(single));
  EXPECT_EQ(single.PredictProgram({{1.0f, -2.0f}}), 3.0);

  // A column mixing -0.0 and +0.0 trains the trees of the same column with
  // only +0.0. With 64 distinct values, 0 is a quantile edge and the root's
  // threshold: it must be +0.0.
  GbdtDataset mixed;
  GbdtDataset positive;
  for (int p = 0; p < 128; ++p) {
    float x = static_cast<float>(p % 64 - 32);
    float noise = static_cast<float>(rng.Uniform());
    double label = (x <= 0.0f ? 1.0 : 0.2) + 0.1 * noise;
    mixed.AddProgram(FeatureMatrix::FromRows({{p == 32 ? -0.0f : x, noise}}));
    positive.AddProgram(FeatureMatrix::FromRows({{x, noise}}));
    mixed.SetTarget(p, label, 1.0);
    positive.SetTarget(p, label, 1.0);
  }
  EXPECT_TRUE(std::signbit(mixed.rows().at(32, 0)));
  Gbdt mixed_model;
  mixed_model.Train(mixed);
  Gbdt positive_model;
  positive_model.Train(positive);
  EXPECT_TRUE(AllFinite(mixed_model));
  EXPECT_EQ(EncodedBytes(mixed_model), EncodedBytes(positive_model));
  const TreeNode& root = mixed_model.trees()[0].nodes[0];
  EXPECT_EQ(root.feature, 0);
  EXPECT_EQ(root.threshold, 0.0f);
  EXPECT_FALSE(std::signbit(root.threshold));
}

TEST(CostModelTest, GbdtModelRanksAfterUpdate) {
  Rng rng(5);
  GbdtCostModel model;
  std::vector<FeatureMatrix> programs;
  std::vector<double> throughputs;
  for (int i = 0; i < 120; ++i) {
    std::vector<float> row(static_cast<size_t>(6), 0.0f);
    for (auto& v : row) {
      v = static_cast<float>(rng.Uniform());
    }
    throughputs.push_back(1e9 * (0.2 + row[2]));
    programs.push_back(OneRowProgram(row));
  }
  model.Update(/*task_id=*/1, programs, throughputs);
  EXPECT_EQ(model.num_samples(), 120u);
  auto preds = model.Predict(programs);
  EXPECT_GT(PairwiseComparisonAccuracy(preds, throughputs), 0.8);
}

TEST(CostModelTest, InvalidProgramsScoreLowest) {
  GbdtCostModel model;
  std::vector<FeatureMatrix> programs;
  programs.emplace_back();  // failed lowering: empty matrix
  programs.push_back(OneRowProgram(std::vector<float>(4, 1.0f)));
  auto preds = model.Predict(programs);
  EXPECT_LT(preds[0], preds[1]);
}

TEST(CostModelTest, NormalizationAcrossTasks) {
  // Two tasks with very different raw throughputs; after per-task
  // normalization the model should treat both tasks' best programs alike.
  Rng rng(9);
  GbdtCostModel model;
  for (uint64_t task = 0; task < 2; ++task) {
    std::vector<FeatureMatrix> programs;
    std::vector<double> throughputs;
    double scale = task == 0 ? 1e12 : 1e6;
    for (int i = 0; i < 60; ++i) {
      std::vector<float> row(static_cast<size_t>(6), 0.0f);
      row[1] = static_cast<float>(rng.Uniform());
      throughputs.push_back(scale * (0.1 + row[1]));
      programs.push_back(OneRowProgram(row));
    }
    model.Update(task, programs, throughputs);
  }
  // Prediction should rank by feature 1 regardless of the raw scale.
  std::vector<float> hi(6, 0.0f);
  hi[1] = 0.9f;
  std::vector<float> lo(6, 0.0f);
  lo[1] = 0.1f;
  std::vector<FeatureMatrix> probe;
  probe.push_back(OneRowProgram(hi));
  probe.push_back(OneRowProgram(lo));
  auto preds = model.Predict(probe);
  EXPECT_GT(preds[0], preds[1]);
}

TEST(CostModelTest, BatchedPredictionsMatchUnbatched) {
  // A program's score must not depend on the batch it is scored in: the
  // batched sums equal the one-at-a-time path bit for bit (the determinism
  // matrix depends on batched == unbatched).
  Rng rng(21);
  GbdtCostModel model;
  std::vector<FeatureMatrix> programs;
  std::vector<double> throughputs;
  for (int i = 0; i < 80; ++i) {
    std::vector<std::vector<float>> rows;
    for (int r = 0; r < 1 + i % 3; ++r) {
      std::vector<float> row(6, 0.0f);
      for (auto& v : row) {
        v = static_cast<float>(rng.Uniform());
      }
      rows.push_back(std::move(row));
    }
    programs.push_back(FeatureMatrix::FromRows(rows));
    throughputs.push_back(1e9 * rng.Uniform());
  }
  model.Update(/*task_id=*/2, programs, throughputs);

  std::vector<const FeatureMatrix*> ptrs;
  for (const FeatureMatrix& m : programs) {
    ptrs.push_back(&m);
  }
  std::vector<double> batched = model.PredictBatch(ptrs);
  for (size_t p = 0; p < programs.size(); ++p) {
    std::vector<double> single = model.PredictBatch({ptrs[p]});
    EXPECT_EQ(batched[p], single[0]) << "program " << p;
  }
  // Statement-level batch agrees with the per-program form.
  std::vector<std::vector<double>> stmt_batch = model.PredictStatementsBatch(ptrs);
  for (size_t p = 0; p < programs.size(); ++p) {
    EXPECT_EQ(stmt_batch[p], model.PredictStatements(programs[p])) << "program " << p;
  }
}

TEST(CostModelTest, ConcurrentPredictBatchIsSafe) {
  // Prediction is read-only on the trained model: concurrent PredictBatch /
  // PredictStatementsBatch calls from several threads must race-free agree
  // with the serial result (run under tsan in CI).
  Rng rng(17);
  GbdtCostModel model;
  std::vector<FeatureMatrix> programs;
  std::vector<double> throughputs;
  for (int i = 0; i < 60; ++i) {
    std::vector<float> row(6, 0.0f);
    for (auto& v : row) {
      v = static_cast<float>(rng.Uniform());
    }
    programs.push_back(OneRowProgram(row));
    throughputs.push_back(1e9 * (0.1 + rng.Uniform()));
  }
  model.Update(/*task_id=*/3, programs, throughputs);

  std::vector<const FeatureMatrix*> ptrs;
  for (const FeatureMatrix& m : programs) {
    ptrs.push_back(&m);
  }
  std::vector<double> expected = model.PredictBatch(ptrs);
  std::vector<std::vector<double>> expected_stmt = model.PredictStatementsBatch(ptrs);

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<char> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      bool agree = true;
      for (int iter = 0; iter < 8; ++iter) {
        agree = agree && model.PredictBatch(ptrs) == expected;
        agree = agree && model.PredictStatementsBatch(ptrs) == expected_stmt;
      }
      ok[static_cast<size_t>(t)] = agree ? 1 : 0;
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok[static_cast<size_t>(t)], 1) << "thread " << t;
  }
}

TEST(CostModelTest, RandomModelIsUniform) {
  RandomCostModel model(1);
  std::vector<FeatureMatrix> programs;
  programs.push_back(OneRowProgram(std::vector<float>(4, 0.0f)));
  programs.push_back(OneRowProgram(std::vector<float>(4, 0.0f)));
  programs.emplace_back();
  auto preds = model.Predict(programs);
  EXPECT_NE(preds[0], preds[1]);
  EXPECT_LT(preds[2], 0.0);  // invalid program
}

TEST(GbdtCostModel, IncrementalUpdatesMatchOneShotTraining) {
  // Three batches over two tasks. Each task's best throughput is 4e9, so
  // every label is the same whether the programs arrive in three Updates or
  // in one Update over their union: both ways must train the same trees, bit
  // for bit.
  Rng rng(33);
  std::vector<std::vector<FeatureMatrix>> batches(3);
  std::vector<std::vector<double>> throughputs(3);
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < 12; ++i) {
      FeatureMatrix m;
      int n_rows = 1 + i % 3;
      for (int r = 0; r < n_rows; ++r) {
        std::vector<float> row(8);
        for (auto& v : row) {
          v = std::floor(static_cast<float>(rng.Uniform()) * 50.0f) / 50.0f;
        }
        m.AppendRow(row);
      }
      batches[static_cast<size_t>(b)].push_back(std::move(m));
      throughputs[static_cast<size_t>(b)].push_back(i == 0 ? 4e9 : 1e9 + 3e9 * rng.Uniform());
    }
  }
  const uint64_t tasks[3] = {1, 2, 1};

  GbdtCostModel incremental;
  for (size_t b = 0; b < 3; ++b) {
    incremental.Update(tasks[b], batches[b], throughputs[b]);
  }
  std::string expected = EncodedBytes(incremental.gbdt());
  ASSERT_GT(incremental.gbdt().trees().size(), 1u);

  GbdtCostModel one_shot;
  std::vector<FeatureMatrix> all;
  std::vector<double> all_throughputs;
  for (size_t b = 0; b < 3; ++b) {
    all.insert(all.end(), batches[b].begin(), batches[b].end());
    all_throughputs.insert(all_throughputs.end(), throughputs[b].begin(), throughputs[b].end());
  }
  one_shot.Update(/*task_id=*/1, all, all_throughputs);
  EXPECT_EQ(EncodedBytes(one_shot.gbdt()), expected);
}

// `n_updates` small batches over two tasks whose rows repeat within and
// across programs. Every batch's first program runs at 4e9, the best of any
// task, so a program's label is the same in every Update that holds it;
// that program holds every one of the batch's four row templates. Column 0
// gains three distinct values per batch, so its edges move every time and
// turn from midpoints into quantile edges once it has more than max_bins
// values; column 1 holds {0, 1, 2} from the first batch on, so its edges
// never move; column 2 mixes -0.0, +0.0 and 0.5; column 3 is constant.
struct UpdateBatches {
  std::vector<std::vector<FeatureMatrix>> programs;
  std::vector<std::vector<double>> throughputs;
  std::vector<uint64_t> tasks;
};

UpdateBatches MakeUpdateBatches(int n_updates, uint64_t seed) {
  Rng rng(seed);
  UpdateBatches batches;
  for (int u = 0; u < n_updates; ++u) {
    std::vector<std::vector<float>> templates;
    for (int t = 0; t < 4; ++t) {
      float zero = rng.Uniform() < 0.5 ? -0.0f : 0.0f;
      templates.push_back({static_cast<float>(3 * u + t % 3), static_cast<float>(t % 3),
                           rng.Uniform() < 0.5 ? zero : 0.5f, 7.0f,
                           std::floor(static_cast<float>(rng.Uniform()) * 8.0f)});
    }
    std::vector<FeatureMatrix> programs;
    std::vector<double> throughputs;
    for (int i = 0; i < 5; ++i) {
      FeatureMatrix m;
      if (i == 0) {
        m = FeatureMatrix::FromRows(templates);
      }
      for (int r = 0; r < 1 + i % 3; ++r) {
        m.AppendRow(templates[rng.Index(templates.size())]);
      }
      double speed = 1e9 * (1.0 + m.at(0, 1) - m.at(0, 2)) + 1e8 * m.at(0, 4);
      throughputs.push_back(i == 0 ? 4e9 : speed);
      programs.push_back(std::move(m));
    }
    // A program measured again, in this batch and in a later one.
    programs.push_back(programs[1]);
    throughputs.push_back(throughputs[1] * 0.9);
    batches.programs.push_back(std::move(programs));
    batches.throughputs.push_back(std::move(throughputs));
    batches.tasks.push_back(u % 3 == 2 ? 2 : 1);
  }
  return batches;
}

TEST(GbdtCostModel, ManySmallUpdatesMatchOneShotTrainingAfterEach) {
  // The model keeps its binned columns between Updates and re-bins only the
  // features whose edges moved: after every one of 24 Updates its trees must
  // equal, bit for bit, those of a fresh model trained once on the union.
  UpdateBatches batches = MakeUpdateBatches(24, 8);
  GbdtCostModel incremental;
  std::vector<FeatureMatrix> all;
  std::vector<double> all_throughputs;
  for (size_t u = 0; u < batches.programs.size(); ++u) {
    incremental.Update(batches.tasks[u], batches.programs[u], batches.throughputs[u]);
    all.insert(all.end(), batches.programs[u].begin(), batches.programs[u].end());
    all_throughputs.insert(all_throughputs.end(), batches.throughputs[u].begin(),
                           batches.throughputs[u].end());
    GbdtCostModel one_shot;
    one_shot.Update(/*task_id=*/1, all, all_throughputs);
    ASSERT_EQ(EncodedBytes(incremental.gbdt()), EncodedBytes(one_shot.gbdt())) << "update " << u;
  }
  EXPECT_GT(incremental.gbdt().trees().size(), 1u);
  EXPECT_EQ(incremental.num_samples(), all.size());
}

TEST(CostModelTest, ConcurrentModelsTrainIndependently) {
  // Each model owns its training data and binning cache: two models updated
  // at the same time on two threads, or in turns on one thread, train the
  // same trees as when updated one after the other (run under tsan in CI).
  std::vector<UpdateBatches> batches = {MakeUpdateBatches(12, 1), MakeUpdateBatches(12, 2)};
  auto update = [&batches](size_t m, size_t u, GbdtCostModel* model) {
    const UpdateBatches& b = batches[m];
    model->Update(b.tasks[u], b.programs[u], b.throughputs[u]);
  };
  auto train = [&update, &batches](size_t m, GbdtCostModel* model) {
    for (size_t u = 0; u < batches[m].programs.size(); ++u) {
      update(m, u, model);
    }
  };
  std::vector<std::string> serial;
  for (size_t m = 0; m < 2; ++m) {
    GbdtCostModel model;
    train(m, &model);
    serial.push_back(EncodedBytes(model.gbdt()));
  }
  ASSERT_NE(serial[0], serial[1]);

  GbdtCostModel in_turns[2];
  for (size_t u = 0; u < 12; ++u) {
    for (size_t m = 0; m < 2; ++m) {
      update(m, u, &in_turns[m]);
    }
  }
  for (size_t m = 0; m < 2; ++m) {
    EXPECT_EQ(EncodedBytes(in_turns[m].gbdt()), serial[m]) << "model " << m << " in turns";
  }

  GbdtCostModel models[2];
  std::vector<std::thread> threads;
  for (size_t m = 0; m < 2; ++m) {
    threads.emplace_back(train, m, &models[m]);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (size_t m = 0; m < 2; ++m) {
    EXPECT_EQ(EncodedBytes(models[m].gbdt()), serial[m]) << "model " << m;
  }
}

TEST(Metrics, PairwiseAccuracy) {
  EXPECT_DOUBLE_EQ(PairwiseComparisonAccuracy({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(PairwiseComparisonAccuracy({3, 2, 1}, {1, 2, 3}), 0.0);
  // Constant predictions cannot distinguish: 0.5 (random).
  EXPECT_DOUBLE_EQ(PairwiseComparisonAccuracy({1, 1, 1}, {1, 2, 3}), 0.5);
  // Ties in truth are skipped.
  EXPECT_DOUBLE_EQ(PairwiseComparisonAccuracy({1, 2}, {5, 5}), 0.5);
}

TEST(Metrics, RecallAtK) {
  std::vector<double> truth = {10, 9, 8, 1, 2, 3};
  std::vector<double> perfect = {10, 9, 8, 1, 2, 3};
  std::vector<double> inverted = {1, 2, 3, 10, 9, 8};
  EXPECT_DOUBLE_EQ(RecallAtK(perfect, truth, 3), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK(inverted, truth, 3), 0.0);
  std::vector<double> half = {10, 9, 1, 8, 2, 3};
  EXPECT_NEAR(RecallAtK(half, truth, 2), 1.0, 1e-9);
}

}  // namespace
}  // namespace ansor
