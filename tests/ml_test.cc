// Unit tests for the ml module: datasets, logistic regression, metrics
// and the Table-I-style scorecard.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/serial.h"
#include "credit/credit_loop.h"
#include "linalg/vector.h"
#include "ml/binned_dataset.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/scorecard.h"
#include "rng/random.h"
#include "runtime/thread_pool.h"

namespace eqimpact {
namespace {

using linalg::Vector;

TEST(SigmoidTest, KnownValues) {
  EXPECT_DOUBLE_EQ(ml::Sigmoid(0.0), 0.5);
  EXPECT_NEAR(ml::Sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-15);
  EXPECT_NEAR(ml::Sigmoid(-2.0), 1.0 - ml::Sigmoid(2.0), 1e-15);
}

TEST(SigmoidTest, SaturatesWithoutOverflow) {
  EXPECT_NEAR(ml::Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(ml::Sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(DatasetTest, AddAndAccess) {
  ml::Dataset data(2);
  data.Add(Vector{1.0, 0.0}, 1.0);
  data.Add(Vector{0.0, 1.0}, 0.0);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.num_positive(), 1u);
  EXPECT_TRUE(data.HasBothClasses());
  EXPECT_DOUBLE_EQ(data.label(0), 1.0);
  EXPECT_DOUBLE_EQ(data.features(1)[1], 1.0);
}

TEST(DatasetTest, SingleClassDetection) {
  ml::Dataset data(1);
  data.Add(Vector{1.0}, 1.0);
  data.Add(Vector{2.0}, 1.0);
  EXPECT_FALSE(data.HasBothClasses());
}

TEST(DatasetTest, RawRowAccessMatchesFeatures) {
  ml::Dataset data(3);
  data.Add(Vector{1.0, 2.0, 3.0}, 0.0);
  data.Add(Vector{4.0, 5.0, 6.0}, 1.0);
  const double* row = data.row(1);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
  EXPECT_DOUBLE_EQ(data.features(1)[2], 6.0);
}

TEST(DatasetTest, AddRowAndAddBatch) {
  ml::Dataset data(2);
  data.Reserve(3);
  const double row[2] = {0.5, 1.0};
  data.AddRow(row, 1.0);
  const double batch[4] = {0.1, 0.0, 0.2, 1.0};
  const double labels[2] = {0.0, 1.0};
  data.AddBatch(batch, labels, 2);
  EXPECT_EQ(data.size(), 3u);
  EXPECT_EQ(data.num_positive(), 2u);
  EXPECT_DOUBLE_EQ(data.row(1)[0], 0.1);
  EXPECT_DOUBLE_EQ(data.row(2)[1], 1.0);
  EXPECT_DOUBLE_EQ(data.label(2), 1.0);
}

TEST(DatasetTest, AppendMovesExamplesAndEmptiesSource) {
  ml::Dataset history(2);
  history.Add(Vector{1.0, 0.0}, 0.0);
  ml::Dataset year(2);
  year.Add(Vector{2.0, 1.0}, 1.0);
  year.Add(Vector{3.0, 0.0}, 1.0);
  history.Append(std::move(year));
  EXPECT_EQ(history.size(), 3u);
  EXPECT_EQ(history.num_positive(), 2u);
  EXPECT_DOUBLE_EQ(history.row(1)[0], 2.0);
  EXPECT_DOUBLE_EQ(history.label(2), 1.0);
  EXPECT_TRUE(year.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(year.num_positive(), 0u);
}

TEST(DatasetTest, AppendIntoEmptyStealsStorage) {
  ml::Dataset history(2);
  ml::Dataset year(2);
  year.Add(Vector{2.0, 1.0}, 1.0);
  history.Append(std::move(year));
  EXPECT_EQ(history.size(), 1u);
  EXPECT_TRUE(history.HasBothClasses() == false);
  EXPECT_DOUBLE_EQ(history.row(0)[1], 1.0);
}

TEST(DatasetTest, MatrixAndLabelSnapshots) {
  ml::Dataset data(2);
  data.Add(Vector{1.0, 2.0}, 0.0);
  data.Add(Vector{3.0, 4.0}, 1.0);
  linalg::Matrix x = data.FeatureMatrix();
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_DOUBLE_EQ(x(1, 0), 3.0);
  Vector y = data.LabelVector();
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

// --- BinnedDataset ----------------------------------------------------------

TEST(BinnedDatasetTest, GroupsRepeatedRowsExactly) {
  ml::BinnedDataset data(2);
  const double a[2] = {0.25, 1.0};
  const double b[2] = {0.5, 0.0};
  data.AddRow(a, 1.0);
  data.AddRow(b, 0.0);
  data.AddRow(a, 0.0);
  data.AddRow(a, 1.0);
  EXPECT_EQ(data.num_groups(), 2u);
  EXPECT_EQ(data.num_rows_absorbed(), 4u);
  EXPECT_DOUBLE_EQ(data.weight(0), 3.0);
  EXPECT_DOUBLE_EQ(data.positive_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(data.weight(1), 1.0);
  EXPECT_DOUBLE_EQ(data.positive_weight(1), 0.0);
  EXPECT_DOUBLE_EQ(data.row(0)[0], 0.25);  // Exact representative.
  EXPECT_DOUBLE_EQ(data.row(0)[1], 1.0);
  EXPECT_DOUBLE_EQ(data.total_weight(), 4.0);
  EXPECT_DOUBLE_EQ(data.total_positive(), 2.0);
  EXPECT_TRUE(data.HasBothClasses());
}

TEST(BinnedDatasetTest, GroupOrderIsFirstOccurrenceOrder) {
  // The fit's chunked accumulation runs in group order, so the order
  // must be the deterministic insertion order, never hash order.
  ml::BinnedDataset data(1);
  for (int i = 20; i > 0; --i) {
    const double x = static_cast<double>(i);
    data.AddRow(&x, 0.0);
  }
  for (size_t g = 0; g < data.num_groups(); ++g) {
    EXPECT_DOUBLE_EQ(data.row(g)[0], static_cast<double>(20 - g));
  }
}

TEST(BinnedDatasetTest, NegativeZeroSharesAGroupWithZero) {
  ml::BinnedDataset data(1);
  const double pos = 0.0;
  const double neg = -0.0;
  data.AddRow(&pos, 0.0);
  data.AddRow(&neg, 1.0);
  EXPECT_EQ(data.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(data.row(0)[0], 0.0);
}

TEST(BinnedDatasetTest, SingleClassDetection) {
  ml::BinnedDataset data(1);
  const double x = 1.0;
  data.AddRow(&x, 1.0);
  data.AddRow(&x, 1.0);
  EXPECT_FALSE(data.HasBothClasses());
}

TEST(BinnedDatasetTest, WeightedRowsFold) {
  ml::BinnedDataset data(1);
  const double x = 2.0;
  data.AddRow(&x, 1.0, 2.5);
  data.AddRow(&x, 0.0, 0.5);
  EXPECT_EQ(data.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(data.weight(0), 3.0);
  EXPECT_DOUBLE_EQ(data.positive_weight(0), 2.5);
}

TEST(BinnedDatasetTest, FixedBinGroupingUsesBinCentres) {
  // Width-0.1 bins: 0.31, 0.33, 0.39 share bin [0.3, 0.4) with centre
  // 0.35; every surrogate is within width / 2 of the raw value.
  ml::BinnedDatasetOptions options;
  options.bin_widths = {0.1};
  ml::BinnedDataset data(1, options);
  for (double x : {0.31, 0.33, 0.39}) data.AddRow(&x, 1.0);
  const double other = 0.41;
  data.AddRow(&other, 0.0);
  EXPECT_EQ(data.num_groups(), 2u);
  EXPECT_NEAR(data.row(0)[0], 0.35, 1e-12);
  EXPECT_NEAR(data.row(1)[0], 0.45, 1e-12);
  EXPECT_DOUBLE_EQ(data.weight(0), 3.0);
  for (double x : {0.31, 0.33, 0.39}) {
    EXPECT_LE(std::fabs(x - data.row(0)[0]), 0.05);
  }
}

TEST(BinnedDatasetTest, PerFeatureWidthsMixExactAndBinned) {
  // ADR binned at 0.5, code exact: codes 0 and 1 never share a group.
  ml::BinnedDatasetOptions options;
  options.bin_widths = {0.5, 0.0};
  ml::BinnedDataset data(2, options);
  const double rows[4][2] = {
      {0.1, 0.0}, {0.4, 0.0}, {0.1, 1.0}, {0.4, 1.0}};
  for (const double* row : {rows[0], rows[1], rows[2], rows[3]}) {
    data.AddRow(row, 1.0);
  }
  EXPECT_EQ(data.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(data.row(0)[1], 0.0);  // Code stays exact.
  EXPECT_DOUBLE_EQ(data.row(1)[1], 1.0);
}

TEST(BinnedDatasetTest, ClearKeepsConfigurationDropsGroups) {
  ml::BinnedDataset data(1);
  const double x = 3.0;
  data.AddRow(&x, 1.0);
  data.Clear();
  EXPECT_EQ(data.num_groups(), 0u);
  EXPECT_DOUBLE_EQ(data.total_weight(), 0.0);
  EXPECT_FALSE(data.HasBothClasses());
  data.AddRow(&x, 0.0);  // Reusable after Clear.
  EXPECT_EQ(data.num_groups(), 1u);
}

TEST(BinnedDatasetTest, FromDatasetGroupsEveryRow) {
  ml::Dataset raw(2);
  raw.Add(Vector{0.5, 1.0}, 1.0);
  raw.Add(Vector{0.5, 1.0}, 0.0);
  raw.Add(Vector{0.25, 0.0}, 0.0);
  ml::BinnedDataset binned = ml::BinnedDataset::FromDataset(raw);
  EXPECT_EQ(binned.num_groups(), 2u);
  EXPECT_EQ(binned.num_rows_absorbed(), 3u);
  EXPECT_DOUBLE_EQ(binned.total_weight(), 3.0);
  EXPECT_DOUBLE_EQ(binned.total_positive(), 1.0);
}

TEST(BinnedDatasetTest, ManyGroupsSurviveRehashing) {
  // More groups than the initial hash table's buckets: the index grows
  // and every group keeps its identity and order.
  ml::BinnedDataset data(1);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 1000; ++i) {
      const double x = static_cast<double>(i);
      data.AddRow(&x, pass == 0 ? 1.0 : 0.0);
    }
  }
  ASSERT_EQ(data.num_groups(), 1000u);
  for (size_t g = 0; g < 1000; ++g) {
    EXPECT_DOUBLE_EQ(data.row(g)[0], static_cast<double>(g));
    EXPECT_DOUBLE_EQ(data.weight(g), 2.0);
    EXPECT_DOUBLE_EQ(data.positive_weight(g), 1.0);
  }
}

std::vector<uint8_t> DatasetBytes(const ml::BinnedDataset& data) {
  base::BinaryWriter writer;
  data.Serialize(&writer);
  return writer.TakeBuffer();
}

TEST(BinnedDatasetTest, SlotCountFoldMatchesRowFoldBytes) {
  // Slots stand for (d/o, code) rows as in the credit loop's dense fold.
  // Slots 1 (1/2) and 3 (2/4) alias in value and are first seen in
  // different chunks; slot 4 (1/3) is first seen in the last chunk.
  const std::vector<double> slot_rows = {
      0.0,        0.0,  // 0
      1.0 / 2.0,  1.0,  // 1
      1.0 / 4.0,  0.0,  // 2
      2.0 / 4.0,  1.0,  // 3
      1.0 / 3.0,  1.0,  // 4
  };
  const std::vector<std::vector<std::pair<size_t, bool>>> chunks = {
      {{2, false}, {1, true}, {2, true}, {0, false}, {2, true}},
      {{3, false}, {0, true}, {3, true}, {1, false}},
      {{4, true}, {3, true}, {2, false}, {4, false}, {0, true}},
  };
  // Both folds start from a populated dataset, as every year after the
  // first does.
  ml::BinnedDataset row_fold(2);
  const double seed_row[2] = {0.75, 0.0};
  row_fold.AddRow(seed_row, 1.0);
  ml::BinnedDataset count_fold = row_fold;
  std::vector<uint32_t> slot_groups(5, ml::BinnedDataset::kNoSlotGroup);
  ml::SlotCounts counts(5);  // One tally, cleared between chunks.
  for (const auto& chunk : chunks) {
    counts.Clear();
    for (const auto& [slot, positive] : chunk) {
      row_fold.AddRow(&slot_rows[2 * slot], positive ? 1.0 : 0.0);
      counts.Add(slot, positive);
    }
    count_fold.AddCounts(counts, slot_rows.data(), &slot_groups);
  }
  EXPECT_EQ(DatasetBytes(count_fold), DatasetBytes(row_fold));
  EXPECT_EQ(count_fold.num_rows_absorbed(), 15u);
  EXPECT_EQ(count_fold.num_groups(), 5u);
  EXPECT_EQ(slot_groups[1], slot_groups[3]);
}

TEST(BinnedDatasetTest, SlotCountFoldMatchesRowFoldOnRandomSequences) {
  rng::Random random(31);
  for (int round = 0; round < 20; ++round) {
    // 2 * 6 slots over rationals d/o with o < 6; many alias (0/1 = 0/2,
    // 1/2 = 2/4, ...).
    std::vector<double> slot_rows;
    for (int o = 1; o <= 6; ++o) {
      for (int code = 0; code < 2; ++code) {
        const int d = static_cast<int>(random.UniformInt(o + 1));
        slot_rows.push_back(static_cast<double>(d) / o);
        slot_rows.push_back(code);
      }
    }
    const size_t num_slots = slot_rows.size() / 2;
    ml::BinnedDataset row_fold(2);
    ml::BinnedDataset count_fold(2);
    std::vector<uint32_t> slot_groups(num_slots,
                                      ml::BinnedDataset::kNoSlotGroup);
    ml::SlotCounts counts(num_slots);
    for (int chunk = 0; chunk < 8; ++chunk) {
      counts.Clear();
      const int rows = static_cast<int>(random.UniformInt(40));
      for (int r = 0; r < rows; ++r) {
        const size_t slot = random.UniformInt(num_slots);
        const bool positive = random.Bernoulli(0.7);
        row_fold.AddRow(&slot_rows[2 * slot], positive ? 1.0 : 0.0);
        counts.Add(slot, positive);
      }
      count_fold.AddCounts(counts, slot_rows.data(), &slot_groups);
      ASSERT_EQ(DatasetBytes(count_fold), DatasetBytes(row_fold))
          << "round " << round << " chunk " << chunk;
    }
  }
}

TEST(BinnedDatasetTest, SerializeRoundTripRestoresInsertionBehaviour) {
  // The checkpoint path serializes the mid-trial refit fold; the
  // restored dataset must not only report the same groups but keep
  // *folding* identically — the rebuilt hash index has to route repeat
  // rows to their existing groups and fresh rows to fresh ones.
  ml::BinnedDatasetOptions options;
  options.bin_widths = {0.25, 0.0};
  ml::BinnedDataset original(2, options);
  rng::Random random(123);
  for (int i = 0; i < 500; ++i) {
    const double row[2] = {random.UniformDouble(-3.0, 3.0),
                           static_cast<double>(random.UniformInt(2))};
    original.AddRow(row, random.Bernoulli(0.4) ? 1.0 : 0.0,
                    1.0 + random.UniformDouble());
  }

  base::BinaryWriter writer;
  original.Serialize(&writer);
  const std::vector<uint8_t> bytes = writer.TakeBuffer();
  ml::BinnedDataset restored(2, options);
  base::BinaryReader reader(bytes.data(), bytes.size());
  ASSERT_TRUE(restored.Deserialize(&reader));
  EXPECT_TRUE(reader.AtEnd());

  ASSERT_EQ(restored.num_groups(), original.num_groups());
  EXPECT_EQ(restored.num_rows_absorbed(), original.num_rows_absorbed());
  EXPECT_EQ(restored.total_weight(), original.total_weight());
  EXPECT_EQ(restored.total_positive(), original.total_positive());
  for (size_t g = 0; g < original.num_groups(); ++g) {
    EXPECT_EQ(restored.row(g)[0], original.row(g)[0]);
    EXPECT_EQ(restored.row(g)[1], original.row(g)[1]);
    EXPECT_EQ(restored.weight(g), original.weight(g));
    EXPECT_EQ(restored.positive_weight(g), original.positive_weight(g));
  }

  // Feed both the same post-restore tail: repeats of existing rows
  // (exercising the rebuilt probe table) interleaved with new rows.
  rng::Random tail(321);
  for (int i = 0; i < 200; ++i) {
    double row[2];
    if (tail.Bernoulli(0.7) && original.num_groups() > 0) {
      const size_t g =
          static_cast<size_t>(tail.UniformInt(original.num_groups()));
      row[0] = original.row(g)[0];
      row[1] = original.row(g)[1];
    } else {
      row[0] = tail.UniformDouble(5.0, 9.0);  // Outside the seeded range.
      row[1] = static_cast<double>(tail.UniformInt(2));
    }
    const double label = tail.Bernoulli(0.5) ? 1.0 : 0.0;
    const size_t g_orig = original.AddRow(row, label);
    const size_t g_rest = restored.AddRow(row, label);
    EXPECT_EQ(g_rest, g_orig) << "row " << i;
  }
  ASSERT_EQ(restored.num_groups(), original.num_groups());
  for (size_t g = 0; g < original.num_groups(); ++g) {
    EXPECT_EQ(restored.weight(g), original.weight(g));
    EXPECT_EQ(restored.positive_weight(g), original.positive_weight(g));
  }
}

TEST(BinnedDatasetTest, DeserializeRejectsTruncatedBytes) {
  ml::BinnedDataset data(1);
  const double x = 1.5;
  data.AddRow(&x, 1.0);
  base::BinaryWriter writer;
  data.Serialize(&writer);
  const std::vector<uint8_t> bytes = writer.TakeBuffer();
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2}) {
    ml::BinnedDataset target(1);
    base::BinaryReader reader(bytes.data(), cut);
    EXPECT_FALSE(target.Deserialize(&reader)) << "cut at " << cut;
  }
}

// Generates data from a ground-truth logistic model.
ml::Dataset SyntheticLogisticData(const Vector& true_weights,
                                  double intercept, size_t n,
                                  rng::Random* random) {
  ml::Dataset data(true_weights.size());
  for (size_t i = 0; i < n; ++i) {
    Vector x(true_weights.size());
    for (size_t j = 0; j < x.size(); ++j) {
      x[j] = random->UniformDouble(-2.0, 2.0);
    }
    double p = ml::Sigmoid(Dot(x, true_weights) + intercept);
    data.Add(x, random->Bernoulli(p) ? 1.0 : 0.0);
  }
  return data;
}

TEST(LogisticRegressionTest, RefusesSingleClassData) {
  ml::Dataset data(1);
  data.Add(Vector{1.0}, 1.0);
  ml::LogisticRegression model;
  ml::FitResult result = model.Fit(data);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(model.fitted());
}

TEST(LogisticRegressionTest, RecoversKnownWeights) {
  rng::Random random(101);
  Vector true_weights{1.5, -2.0};
  ml::LogisticRegressionOptions options;
  options.fit_intercept = true;
  options.l2_penalty = 1e-6;
  ml::Dataset data =
      SyntheticLogisticData(true_weights, 0.5, 20000, &random);
  ml::LogisticRegression model(options);
  ml::FitResult result = model.Fit(data);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(model.weights()[0], 1.5, 0.1);
  EXPECT_NEAR(model.weights()[1], -2.0, 0.1);
  EXPECT_NEAR(model.intercept(), 0.5, 0.1);
}

TEST(LogisticRegressionTest, NoInterceptByDefault) {
  rng::Random random(102);
  ml::Dataset data = SyntheticLogisticData(Vector{1.0}, 0.0, 5000, &random);
  ml::LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).success);
  EXPECT_DOUBLE_EQ(model.intercept(), 0.0);
}

TEST(LogisticRegressionTest, SurvivesPerfectSeparation) {
  // Perfectly separable data: unpenalised ML diverges; the ridge keeps
  // the weights finite and the fit must succeed.
  ml::Dataset data(1);
  for (int i = 1; i <= 50; ++i) {
    data.Add(Vector{static_cast<double>(i)}, 1.0);
    data.Add(Vector{static_cast<double>(-i)}, 0.0);
  }
  ml::LogisticRegressionOptions options;
  options.l2_penalty = 1e-3;
  ml::LogisticRegression model(options);
  ml::FitResult result = model.Fit(data);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(std::isfinite(model.weights()[0]));
  EXPECT_GT(model.weights()[0], 0.0);
}

TEST(LogisticRegressionTest, SingularNewtonSystemFallsBackToGradientDescent) {
  // An all-zero second feature and no ridge leave a zero row and column
  // in the Hessian, so the first Newton system is singular and the fit
  // must take the gradient-descent fallback. The fallback is on by
  // default and part of the credit loop's checkpoint fingerprint.
  rng::Random random(400);
  ml::Dataset data(2);
  for (int i = 0; i < 400; ++i) {
    const double x = random.UniformDouble(-2.0, 2.0);
    data.Add(Vector{x, 0.0},
             random.Bernoulli(ml::Sigmoid(1.5 * x)) ? 1.0 : 0.0);
  }
  ml::LogisticRegressionOptions options;
  options.l2_penalty = 0.0;
  options.rows_per_chunk = 64;  // Seven chunks, so three threads split.
  ml::LogisticRegression sequential(options);
  const ml::FitResult fit = sequential.Fit(data);
  ASSERT_TRUE(fit.success);
  EXPECT_TRUE(fit.used_gradient_fallback);
  EXPECT_TRUE(fit.converged);
  EXPECT_EQ(fit.iterations, 240);
  EXPECT_NEAR(sequential.weights()[0], 1.5, 0.5);
  EXPECT_EQ(sequential.weights()[1], 0.0);

  options.num_threads = 3;
  ml::LogisticRegression parallel(options);
  const ml::FitResult parallel_fit = parallel.Fit(data);
  ASSERT_TRUE(parallel_fit.success);
  EXPECT_EQ(parallel_fit.iterations, fit.iterations);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(parallel.weights()[j], sequential.weights()[j]) << j;
  }
  EXPECT_EQ(parallel_fit.final_log_loss, fit.final_log_loss);

  options.gradient_fallback = false;
  ml::LogisticRegression strict(options);
  EXPECT_FALSE(strict.Fit(data).success);
  EXPECT_FALSE(strict.fitted());
}

TEST(LogisticRegressionTest, PredictionsAreCalibratedProbabilities) {
  rng::Random random(103);
  Vector true_weights{2.0};
  ml::Dataset data = SyntheticLogisticData(true_weights, 0.0, 30000, &random);
  ml::LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).success);
  // Empirical positive rate among examples scored near p must be near p.
  for (double target : {0.3, 0.5, 0.7}) {
    double hits = 0.0, total = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
      double p = model.PredictProbability(data.features(i));
      if (std::fabs(p - target) < 0.05) {
        hits += data.label(i);
        total += 1.0;
      }
    }
    ASSERT_GT(total, 100.0);
    EXPECT_NEAR(hits / total, target, 0.06);
  }
}

TEST(LogisticRegressionTest, DecisionFunctionIsLinear) {
  rng::Random random(104);
  ml::Dataset data = SyntheticLogisticData(Vector{1.0, 1.0}, 0.0, 2000,
                                           &random);
  ml::LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).success);
  double a = model.DecisionFunction(Vector{1.0, 0.0});
  double b = model.DecisionFunction(Vector{0.0, 1.0});
  double ab = model.DecisionFunction(Vector{1.0, 1.0});
  EXPECT_NEAR(ab, a + b, 1e-9);
}

// --- Sufficient-statistics fit ----------------------------------------------

// Synthetic credit-loop-shaped data: ADR rationals d/o (exact repeats)
// and a 0/1 income code, labels from a ground-truth logistic model.
ml::Dataset LoopShapedData(size_t n, uint64_t seed) {
  rng::Random random(seed);
  ml::Dataset data(2);
  data.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int offers = 1 + static_cast<int>(random.UniformInt(10));
    const int defaults = static_cast<int>(
        random.UniformInt(static_cast<uint64_t>(offers) + 1));
    const double adr =
        static_cast<double>(defaults) / static_cast<double>(offers);
    const double code = random.Bernoulli(0.6) ? 1.0 : 0.0;
    const double p = ml::Sigmoid(-4.0 * adr + 3.0 * code + 0.5);
    const double row[2] = {adr, code};
    data.AddRow(row, random.Bernoulli(p) ? 1.0 : 0.0);
  }
  return data;
}

TEST(SufficientStatisticsFitTest, GroupedFitMatchesRawFitOnExactRepeats) {
  // Exact grouping preserves the likelihood exactly, so raw-row IRLS and
  // the grouped fit share the same optimum; both converge to it within
  // the solver tolerance.
  ml::Dataset raw = LoopShapedData(20000, 301);
  ml::BinnedDataset grouped = ml::BinnedDataset::FromDataset(raw);
  ASSERT_LT(grouped.num_groups(), 200u);  // ~2 * sum_{o<=10}(o+1) pairs.

  ml::LogisticRegression raw_model;
  ml::LogisticRegression grouped_model;
  ml::FitResult raw_fit = raw_model.Fit(raw);
  ml::FitResult grouped_fit = grouped_model.Fit(grouped);
  ASSERT_TRUE(raw_fit.success);
  ASSERT_TRUE(grouped_fit.success);
  EXPECT_TRUE(grouped_fit.converged);
  EXPECT_NEAR(grouped_model.weights()[0], raw_model.weights()[0], 1e-6);
  EXPECT_NEAR(grouped_model.weights()[1], raw_model.weights()[1], 1e-6);
  EXPECT_NEAR(grouped_fit.final_log_loss, raw_fit.final_log_loss, 1e-9);
}

TEST(SufficientStatisticsFitTest, GroupedFitMatchesRawFitWithIntercept) {
  ml::Dataset raw = LoopShapedData(10000, 302);
  ml::BinnedDataset grouped = ml::BinnedDataset::FromDataset(raw);
  ml::LogisticRegressionOptions options;
  options.fit_intercept = true;
  ml::LogisticRegression raw_model(options);
  ml::LogisticRegression grouped_model(options);
  ASSERT_TRUE(raw_model.Fit(raw).success);
  ASSERT_TRUE(grouped_model.Fit(grouped).success);
  EXPECT_NEAR(grouped_model.weights()[0], raw_model.weights()[0], 1e-6);
  EXPECT_NEAR(grouped_model.weights()[1], raw_model.weights()[1], 1e-6);
  EXPECT_NEAR(grouped_model.intercept(), raw_model.intercept(), 1e-6);
}

TEST(SufficientStatisticsFitTest, BinnedFitIsWithinDocumentedTolerance) {
  // Continuous features (no exact repeats): fixed-bin grouping perturbs
  // each feature by at most width / 2, so the fitted coefficients drift
  // by O(width), not more. At width 1e-3 the drift is far below the
  // sampling noise of the fit itself.
  rng::Random random(303);
  ml::Dataset raw(2);
  for (int i = 0; i < 20000; ++i) {
    const double x0 = random.UniformDouble();
    const double x1 = random.Bernoulli(0.5) ? 1.0 : 0.0;
    const double p = ml::Sigmoid(-3.0 * x0 + 2.0 * x1);
    const double row[2] = {x0, x1};
    raw.AddRow(row, random.Bernoulli(p) ? 1.0 : 0.0);
  }
  ml::BinnedDatasetOptions bin_options;
  bin_options.bin_widths = {1e-3, 0.0};
  ml::BinnedDataset binned =
      ml::BinnedDataset::FromDataset(raw, bin_options);
  EXPECT_LT(binned.num_groups(), 2100u);  // ~2 codes x 1000 ADR bins.

  ml::LogisticRegression raw_model;
  ml::LogisticRegression binned_model;
  ASSERT_TRUE(raw_model.Fit(raw).success);
  ASSERT_TRUE(binned_model.Fit(binned).success);
  EXPECT_NEAR(binned_model.weights()[0], raw_model.weights()[0], 0.02);
  EXPECT_NEAR(binned_model.weights()[1], raw_model.weights()[1], 0.02);
}

TEST(SufficientStatisticsFitTest, WeightedGroupEqualsRepeatedUnitRows) {
  // One group of weight w contributes exactly like w identical unit
  // rows: the weighted likelihood is the sufficient-statistics identity
  // the whole representation rests on.
  ml::Dataset raw(1);
  for (int i = 0; i < 4; ++i) raw.Add(Vector{1.0}, i < 3 ? 1.0 : 0.0);
  raw.Add(Vector{-1.0}, 0.0);
  ml::BinnedDataset grouped(1);
  const double pos = 1.0;
  const double neg = -1.0;
  grouped.AddRow(&pos, 1.0, 3.0);
  grouped.AddRow(&pos, 0.0, 1.0);
  grouped.AddRow(&neg, 0.0, 1.0);
  ml::LogisticRegression raw_model;
  ml::LogisticRegression grouped_model;
  ASSERT_TRUE(raw_model.Fit(raw).success);
  ASSERT_TRUE(grouped_model.Fit(grouped).success);
  EXPECT_NEAR(grouped_model.weights()[0], raw_model.weights()[0], 1e-9);
}

TEST(SufficientStatisticsFitTest, BitwiseIdenticalAcrossFitThreads) {
  // The ordered chunk reduction makes the coefficients a pure function
  // of the data and rows_per_chunk — never of the thread count. A small
  // chunk size spreads the ~100 groups over many chunks so multi-chunk
  // scheduling is genuinely exercised.
  ml::Dataset raw = LoopShapedData(30000, 304);
  ml::BinnedDataset grouped = ml::BinnedDataset::FromDataset(raw);
  ASSERT_GT(grouped.num_groups(), 50u);

  auto fit_weights = [&](size_t threads, const ml::BinnedDataset& data) {
    ml::LogisticRegressionOptions options;
    options.num_threads = threads;
    options.rows_per_chunk = 8;
    ml::LogisticRegression model(options);
    ml::FitResult fit = model.Fit(data);
    EXPECT_TRUE(fit.success);
    return std::make_pair(model.weights(), fit.final_log_loss);
  };
  const auto sequential = fit_weights(1, grouped);
  for (size_t threads : {2u, 8u}) {
    const auto parallel = fit_weights(threads, grouped);
    ASSERT_EQ(parallel.first.size(), sequential.first.size());
    for (size_t j = 0; j < sequential.first.size(); ++j) {
      EXPECT_EQ(parallel.first[j], sequential.first[j])
          << "threads=" << threads << " weight " << j;
    }
    EXPECT_EQ(parallel.second, sequential.second) << "threads=" << threads;
  }
}

TEST(SufficientStatisticsFitTest, RawRowFitAlsoThreadCountInvariant) {
  // The same ordered reduction backs the raw-row path.
  ml::Dataset raw = LoopShapedData(5000, 305);
  auto fit_weights = [&](size_t threads) {
    ml::LogisticRegressionOptions options;
    options.num_threads = threads;
    options.rows_per_chunk = 256;
    ml::LogisticRegression model(options);
    EXPECT_TRUE(model.Fit(raw).success);
    return model.weights();
  };
  const Vector sequential = fit_weights(1);
  for (size_t threads : {2u, 8u}) {
    const Vector parallel = fit_weights(threads);
    for (size_t j = 0; j < sequential.size(); ++j) {
      EXPECT_EQ(parallel[j], sequential[j]) << "threads=" << threads;
    }
  }
}

TEST(SufficientStatisticsFitTest, CallerOwnedPoolMatchesInlineFit) {
  // The credit loop hands the trainer its persistent per-trial pool; the
  // pooled dispatch must reproduce the inline fit bitwise.
  ml::Dataset raw = LoopShapedData(8000, 306);
  ml::BinnedDataset grouped = ml::BinnedDataset::FromDataset(raw);

  ml::LogisticRegressionOptions inline_options;
  inline_options.rows_per_chunk = 8;
  ml::LogisticRegression inline_model(inline_options);
  ASSERT_TRUE(inline_model.Fit(grouped).success);

  runtime::ThreadPool pool(3);
  ml::LogisticRegressionOptions pooled_options;
  pooled_options.rows_per_chunk = 8;
  pooled_options.pool = &pool;
  ml::LogisticRegression pooled_model(pooled_options);
  ASSERT_TRUE(pooled_model.Fit(grouped).success);

  for (size_t j = 0; j < inline_model.weights().size(); ++j) {
    EXPECT_EQ(pooled_model.weights()[j], inline_model.weights()[j]);
  }
}

TEST(MetricsTest, LogLossOfPerfectPredictionsIsSmall) {
  double loss = ml::LogLoss({1.0, 0.0}, {1.0 - 1e-13, 1e-13});
  EXPECT_LT(loss, 1e-9);
}

TEST(MetricsTest, LogLossOfCoinFlip) {
  EXPECT_NEAR(ml::LogLoss({1.0, 0.0}, {0.5, 0.5}), std::log(2.0), 1e-12);
}

TEST(MetricsTest, AccuracyThresholding) {
  std::vector<double> labels{1.0, 0.0, 1.0, 0.0};
  std::vector<double> probabilities{0.9, 0.2, 0.4, 0.6};
  EXPECT_DOUBLE_EQ(ml::Accuracy(labels, probabilities), 0.5);
  EXPECT_DOUBLE_EQ(ml::Accuracy(labels, probabilities, 0.35), 0.75);
}

TEST(MetricsTest, AucPerfectRanking) {
  EXPECT_DOUBLE_EQ(
      ml::AreaUnderRoc({0.0, 0.0, 1.0, 1.0}, {0.1, 0.2, 0.8, 0.9}), 1.0);
}

TEST(MetricsTest, AucReversedRanking) {
  EXPECT_DOUBLE_EQ(
      ml::AreaUnderRoc({1.0, 1.0, 0.0, 0.0}, {0.1, 0.2, 0.8, 0.9}), 0.0);
}

TEST(MetricsTest, AucWithTiesIsHalfCredit) {
  EXPECT_DOUBLE_EQ(ml::AreaUnderRoc({0.0, 1.0}, {0.5, 0.5}), 0.5);
}

TEST(MetricsTest, AucSingleClassIsHalf) {
  EXPECT_DOUBLE_EQ(ml::AreaUnderRoc({1.0, 1.0}, {0.3, 0.7}), 0.5);
}

// --- Scorecard --------------------------------------------------------------

ml::Scorecard PaperScorecard() {
  // Table I: History x (-8.17), Income > $15K (+5.77); cut-off 0.4.
  return ml::Scorecard(
      {{"History", "x Average Default Rate", -8.17},
       {"Income", "> $15K", 5.77}},
      0.4);
}

TEST(ScorecardTest, PaperWorkedExample) {
  // "A user with annual income $50K and an average default rate 0.1 would
  // be given a score of -8.17 x 0.1 + 5.77 = 4.953" -> approved (> 0.4).
  ml::Scorecard card = PaperScorecard();
  Vector user{0.1, 1.0};  // [ADR, income code].
  EXPECT_NEAR(card.Score(user), 4.953, 1e-12);
  EXPECT_TRUE(card.Approve(user));
}

TEST(ScorecardTest, LowIncomeHighAdrIsDeclined) {
  ml::Scorecard card = PaperScorecard();
  // Income code 0, any positive ADR: score <= 0 < 0.4.
  EXPECT_FALSE(card.Approve(Vector{0.2, 0.0}));
}

TEST(ScorecardTest, ApprovalBoundaryIsStrict) {
  ml::Scorecard card({{"F", "unit", 1.0}}, 1.0);
  EXPECT_FALSE(card.Approve(Vector{1.0}));   // Score == cutoff: declined.
  EXPECT_TRUE(card.Approve(Vector{1.001}));  // Above: approved.
}

TEST(ScorecardTest, HighAdrOvercomesIncomePoints) {
  ml::Scorecard card = PaperScorecard();
  // ADR above (5.77 - 0.4) / 8.17 ~ 0.657 pushes a high earner below the
  // cut-off.
  EXPECT_TRUE(card.Approve(Vector{0.65, 1.0}));
  EXPECT_FALSE(card.Approve(Vector{0.66, 1.0}));
}

TEST(ScorecardTest, FromFittedModel) {
  rng::Random random(105);
  ml::Dataset data(2);
  for (int i = 0; i < 4000; ++i) {
    double adr = random.UniformDouble();
    double code = random.Bernoulli(0.5) ? 1.0 : 0.0;
    double p = ml::Sigmoid(-3.0 * adr + 2.0 * code);
    data.Add(Vector{adr, code}, random.Bernoulli(p) ? 1.0 : 0.0);
  }
  ml::LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).success);
  ml::Scorecard card = ml::Scorecard::FromModel(
      model, {{"History", "x ADR", 0.0}, {"Income", "code", 0.0}}, 0.4);
  EXPECT_LT(card.factor(0).score, 0.0);  // History factor is negative.
  EXPECT_GT(card.factor(1).score, 0.0);  // Income factor is positive.
  EXPECT_DOUBLE_EQ(card.Score(Vector{0.0, 0.0}), model.intercept());
}

TEST(ScorecardTest, TableRenderingContainsFactors) {
  std::string table = PaperScorecard().ToTableString();
  EXPECT_NE(table.find("History"), std::string::npos);
  EXPECT_NE(table.find("Income"), std::string::npos);
  EXPECT_NE(table.find("-8.17"), std::string::npos);
  EXPECT_NE(table.find("+5.77"), std::string::npos);
}

// --- Parameterized sweeps ---------------------------------------------------

struct WeightRecoveryCase {
  double w0;
  double w1;
};

class WeightRecoverySweep
    : public ::testing::TestWithParam<WeightRecoveryCase> {};

TEST_P(WeightRecoverySweep, IrlsRecoversGroundTruth) {
  const WeightRecoveryCase test_case = GetParam();
  rng::Random random(
      static_cast<uint64_t>(7000 + test_case.w0 * 10 + test_case.w1));
  Vector truth{test_case.w0, test_case.w1};
  ml::LogisticRegressionOptions options;
  options.l2_penalty = 1e-6;
  ml::Dataset data = SyntheticLogisticData(truth, 0.0, 20000, &random);
  ml::LogisticRegression model(options);
  ASSERT_TRUE(model.Fit(data).success);
  EXPECT_NEAR(model.weights()[0], test_case.w0, 0.15);
  EXPECT_NEAR(model.weights()[1], test_case.w1, 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    Weights, WeightRecoverySweep,
    ::testing::Values(WeightRecoveryCase{0.5, 0.5},
                      WeightRecoveryCase{-1.0, 1.0},
                      WeightRecoveryCase{2.0, -0.5},
                      WeightRecoveryCase{-2.0, -2.0},
                      WeightRecoveryCase{0.0, 1.5}));

class RidgeSweep : public ::testing::TestWithParam<double> {};

TEST_P(RidgeSweep, StrongerRidgeShrinksWeights) {
  rng::Random random(7100);
  ml::Dataset data = SyntheticLogisticData(Vector{3.0}, 0.0, 5000, &random);
  ml::LogisticRegressionOptions weak_options;
  weak_options.l2_penalty = 1e-6;
  ml::LogisticRegression weak(weak_options);
  ASSERT_TRUE(weak.Fit(data).success);

  ml::LogisticRegressionOptions strong_options;
  strong_options.l2_penalty = GetParam();
  ml::LogisticRegression strong(strong_options);
  ASSERT_TRUE(strong.Fit(data).success);
  EXPECT_LT(std::fabs(strong.weights()[0]), std::fabs(weak.weights()[0]));
}

INSTANTIATE_TEST_SUITE_P(Penalties, RidgeSweep,
                         ::testing::Values(0.01, 0.1, 1.0));

// --- Open-addressed group index (PR 6). ------------------------------------

TEST(BinnedDatasetTest, OpenAddressingGrowthKeepsFirstOccurrenceOrder) {
  // Push the index through several capacity doublings (the table starts
  // small and grows past the 70% load factor) with inserts interleaved
  // with repeat lookups, so probes cross group boundaries mid-growth.
  ml::BinnedDataset data(2);
  std::vector<std::pair<double, double>> first_occurrence;
  for (int i = 0; i < 5000; ++i) {
    const double row[2] = {static_cast<double>(i % 1250) / 1250.0,
                           static_cast<double>((i / 1250) % 2)};
    const bool fresh = i < 2500;
    data.AddRow(row, i % 2 == 0 ? 1.0 : 0.0);
    if (fresh) first_occurrence.push_back({row[0], row[1]});
    // Interleave a lookup of an early group: its index must stay valid
    // across growth.
    const double early[2] = {0.0, 0.0};
    data.AddRow(early, 0.0);
  }
  ASSERT_EQ(data.num_groups(), first_occurrence.size());
  for (size_t g = 0; g < first_occurrence.size(); ++g) {
    EXPECT_DOUBLE_EQ(data.row(g)[0], first_occurrence[g].first) << g;
    EXPECT_DOUBLE_EQ(data.row(g)[1], first_occurrence[g].second) << g;
  }
  // Group 0 absorbed its own 2500 rows plus the 5000 interleaved
  // lookups of {0, 0}... minus nothing: every repeat folded into it.
  EXPECT_DOUBLE_EQ(data.weight(0), 2.0 + 5000.0);
}

TEST(BinnedDatasetTest, CollidingKeysStayDistinct) {
  // Many keys that differ only in low-order bits (adjacent probing
  // neighbourhoods in a power-of-two table) must remain distinct
  // groups with exact weights.
  ml::BinnedDataset data(1);
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 512; ++i) {
      const double x = static_cast<double>(i) * 0x1p-52;  // Low bits only.
      data.AddRow(&x, pass == 0 ? 1.0 : 0.0, 0.5);
    }
  }
  ASSERT_EQ(data.num_groups(), 512u);
  for (size_t g = 0; g < 512; ++g) {
    EXPECT_DOUBLE_EQ(data.row(g)[0], static_cast<double>(g) * 0x1p-52);
    EXPECT_DOUBLE_EQ(data.weight(g), 1.5);
    EXPECT_DOUBLE_EQ(data.positive_weight(g), 0.5);
  }
}

// --- Dense refit fold vs hashed fold (PR 6). -------------------------------

// Bitwise equality of two double series (memcmp, so -0.0 != 0.0 and
// equal NaNs match — the fold contract is bit-for-bit).
::testing::AssertionResult SeriesBitwiseEqual(
    const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CreditLoopTest, DenseHistoryFoldMatchesHashedFold) {
  for (uint64_t seed : {0ull, 7ull, 123ull}) {
    credit::CreditLoopOptions options;
    options.num_users = 300;
    options.seed = seed;
    credit::CreditLoopResult results[2];
    for (int dense = 0; dense < 2; ++dense) {
      options.dense_history_fold = dense != 0;
      results[dense] = credit::CreditScoringLoop(options).Run();
    }
    const credit::CreditLoopResult& hashed = results[0];
    const credit::CreditLoopResult& dense = results[1];
    EXPECT_TRUE(SeriesBitwiseEqual(hashed.overall_adr, dense.overall_adr))
        << "seed=" << seed;
    ASSERT_EQ(hashed.race_adr.size(), dense.race_adr.size());
    for (size_t r = 0; r < hashed.race_adr.size(); ++r) {
      EXPECT_TRUE(SeriesBitwiseEqual(hashed.race_adr[r], dense.race_adr[r]))
          << "seed=" << seed << " race=" << r;
      EXPECT_TRUE(SeriesBitwiseEqual(hashed.race_approval[r],
                                     dense.race_approval[r]))
          << "seed=" << seed << " race=" << r;
    }
    // The fitted scorecards are the fold's direct output: bitwise-equal
    // coefficients prove group order and accumulation are identical.
    ASSERT_EQ(hashed.scorecards.size(), dense.scorecards.size())
        << "seed=" << seed;
    for (size_t s = 0; s < hashed.scorecards.size(); ++s) {
      EXPECT_EQ(std::memcmp(&hashed.scorecards[s], &dense.scorecards[s],
                            sizeof(credit::ScorecardSnapshot)),
                0)
          << "seed=" << seed << " snapshot=" << s;
    }
  }
}

TEST(CreditLoopTest, DenseFoldGateFallsBackCleanly) {
  // A forgetting factor below 1 makes the counters non-integer, which
  // disables the dense gate; the option being on must then change
  // nothing relative to explicitly off.
  credit::CreditLoopResult results[2];
  for (int dense = 0; dense < 2; ++dense) {
    credit::CreditLoopOptions options;
    options.num_users = 200;
    options.seed = 5;
    options.forgetting_factor = 0.9;
    options.dense_history_fold = dense != 0;
    results[dense] = credit::CreditScoringLoop(options).Run();
  }
  EXPECT_TRUE(
      SeriesBitwiseEqual(results[0].overall_adr, results[1].overall_adr));
}

}  // namespace
}  // namespace eqimpact
