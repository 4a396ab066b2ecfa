// Golden digests: fixed workloads of every layer, each reduced to one
// FNV-1a digest and compared with the value pinned when the workload was
// first recorded. An equal digest proves the output is bitwise unchanged
// across changes of code, compiler flags and kernel lane; a change that
// means to move numbers must re-pin the affected digests and say so.
//
// Values only: thread, shard, chunk, lane and transport invariance are
// the invariance tests of each layer (runtime_test, shard_test, ml_test,
// simd_test, serve_test, ulam_test). The workloads are sized so the
// suite stays cheap in Debug and under the sanitizers; the 10^6-user
// credit trial is pinned by the repository benchmark's credit_cohort
// gate instead.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv1a.h"
#include "base/simd_scalar.h"
#include "credit/credit_loop.h"
#include "credit/race.h"
#include "linalg/sparse_eigen.h"
#include "linalg/vector.h"
#include "market/matching_market.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "markov/sparse_ulam.h"
#include "ml/binned_dataset.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "rng/pcg32.h"
#include "rng/random.h"
#include "runtime/kernels.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "sim/certify.h"
#include "sim/credit_scenario.h"
#include "sim/ensemble_control.h"
#include "sim/experiment.h"
#include "sim/market_scenario.h"
#include "sim/scenario_registry.h"
#include "stats/adr_accumulator.h"

namespace eqimpact {
namespace {

using base::Fnv1a;

/// 16 lowercase hex digits, the form the pins are written in.
std::string Hex(uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016" PRIx64, digest);
  return text;
}

TEST(GoldenTest, CreditExperimentWithRawSeries) {
  sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 200;
  scenario_options.keep_raw_series = true;
  sim::CreditScenario scenario(scenario_options);
  scenario.set_collect_trial_records(true);
  sim::ExperimentOptions options;
  options.num_trials = 32;
  options.master_seed = 42;
  const sim::ExperimentResult result = sim::RunExperiment(&scenario, options);

  Fnv1a digest;
  for (const auto& trial : scenario.TakeTrialRecords()) {
    for (const auto& series : trial.user_adr) digest.MixSeries(series);
    digest.MixSeries(trial.overall_adr);
  }
  for (const auto& envelope : result.group_envelopes) {
    digest.MixSeries(envelope.mean);
  }
  sim::MixAccumulator(&digest, result.pooled_impact);
  EXPECT_EQ(Hex(digest.hash()), "d40179be9736744f");
}

TEST(GoldenTest, StreamingCreditCohortAtOneAndThreeThreads) {
  // 20000 users are five chunks of 4096: one thread walks them in four
  // shards, three threads in five shards of one chunk each.
  credit::CreditLoopOptions options;
  options.num_users = 20000;
  options.seed = 42;
  options.keep_user_adr = false;
  const size_t num_years =
      static_cast<size_t>(options.last_year - options.first_year) + 1;
  for (size_t threads : {size_t{1}, size_t{3}}) {
    options.num_threads = threads;
    stats::AdrAccumulator adr(credit::kNumRaces, num_years, 64);
    credit::CreditScoringLoop loop(options);
    const credit::CreditLoopResult result =
        loop.Run([&adr](const credit::YearSnapshot& snapshot) {
          adr.AddCrossSection(snapshot.step, snapshot.user_adr,
                              snapshot.race_ids);
        });
    Fnv1a digest;
    digest.MixSeries(result.overall_adr);
    for (const auto& series : result.race_adr) digest.MixSeries(series);
    sim::MixAccumulator(&digest, adr);
    EXPECT_EQ(Hex(digest.hash()), "c6ad89fd0f510c47")
        << "threads=" << threads;
  }
}

TEST(GoldenTest, CreditCheckpointBlobAtYearTen) {
  // The engine snapshot (EQCK) after ten of nineteen years, per-user
  // series included: its frame, field order and every field's bits.
  credit::CreditLoopOptions options;
  options.num_users = 3000;
  options.seed = 7;
  options.keep_user_adr = true;
  std::vector<uint8_t> year_ten;
  options.checkpoint_sink = [&year_ten](size_t years_completed,
                                        const std::vector<uint8_t>& state) {
    if (years_completed == 10) year_ten = state;
  };
  credit::CreditScoringLoop(options).Run();
  Fnv1a digest;
  digest.MixBytes(year_ten.data(), year_ten.size());
  EXPECT_EQ(year_ten.size(), 316978u);
  EXPECT_EQ(Hex(digest.hash()), "b52e8e6c6fe78332");
}

TEST(GoldenTest, CreditTrialWithDenseFold) {
  credit::CreditLoopOptions options;
  options.num_users = 1000;
  options.seed = 3;
  options.dense_history_fold = true;
  const credit::CreditLoopResult result =
      credit::CreditScoringLoop(options).Run();

  Fnv1a digest;
  digest.MixSeries(result.overall_adr);
  for (const auto& series : result.race_adr) digest.MixSeries(series);
  for (const auto& snapshot : result.scorecards) {
    digest.Mix(static_cast<uint64_t>(snapshot.year));
    digest.MixDouble(snapshot.history_weight);
    digest.MixDouble(snapshot.income_weight);
    digest.MixDouble(snapshot.intercept);
  }
  EXPECT_EQ(Hex(digest.hash()), "4ee94fa1c32bb8c0");
}

/// Rows with the credit loop's feature geometry: ADR values are
/// rationals d/o with o in 1..19, the income code is 0/1, and labels
/// follow a ground-truth logistic model.
ml::Dataset SyntheticLoopHistory(size_t num_rows, uint64_t seed) {
  rng::Random random(seed);
  ml::Dataset data(2);
  data.Reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    const int offers = 1 + static_cast<int>(random.UniformInt(19));
    const double code = random.Bernoulli(0.62) ? 1.0 : 0.0;
    const double default_p = code == 1.0 ? 0.05 : 0.32;
    int defaults = 0;
    for (int o = 0; o < offers; ++o) {
      if (random.Bernoulli(default_p)) ++defaults;
    }
    const double adr =
        static_cast<double>(defaults) / static_cast<double>(offers);
    const double repay_p = ml::Sigmoid(5.2 * code - 7.9 * adr + 0.8);
    const double row[2] = {adr, code};
    data.AddRow(row, random.Bernoulli(repay_p) ? 1.0 : 0.0);
  }
  return data;
}

TEST(GoldenTest, GroupedRefitOfSyntheticHistory) {
  const ml::BinnedDataset history =
      ml::BinnedDataset::FromDataset(SyntheticLoopHistory(100000, 2024));
  ml::LogisticRegressionOptions options;
  options.rows_per_chunk = 8;
  ml::LogisticRegression model(options);
  ASSERT_TRUE(model.Fit(history).success);

  Fnv1a digest;
  for (size_t j = 0; j < model.weights().size(); ++j) {
    digest.MixDouble(model.weights()[j]);
  }
  digest.MixDouble(model.intercept());
  EXPECT_EQ(Hex(digest.hash()), "d812141440d9f46e");
}

TEST(GoldenTest, MarketExperiment) {
  sim::MatchingMarketScenarioOptions scenario_options;
  scenario_options.market.num_workers = 200;
  scenario_options.market.rounds = 200;
  sim::MatchingMarketScenario scenario(scenario_options);
  sim::ExperimentOptions options;
  options.num_trials = 32;
  options.master_seed = 42;
  const sim::ExperimentResult result = sim::RunExperiment(&scenario, options);
  EXPECT_EQ(Hex(sim::ExperimentDigest(result)), "d751670a73cd1a4f");
}

TEST(GoldenTest, MarketAndEnsembleConfigurations) {
  // Configurations that reach each engine's edges: the market's weighted
  // lottery runs only under the equalizer (equal weights with one skill
  // class, four weights with four); the exploit cut moves with the rule
  // and the capacity; the ensemble's hysteresis meets its threshold
  // exactly at hysteresis 0, where an OFF agent switches ON and back OFF
  // within one step.
  const struct {
    const char* scenario;
    std::vector<std::pair<const char*, double>> assignments;
  } kConfigurations[] = {
      {"market", {{"equalizer_strength", 1.0}}},
      {"market",
       {{"heterogeneous_skill", 1.0},
        {"skill_classes", 4.0},
        {"equalizer_period", 3.0},
        {"equalizer_strength", 1.5}}},
      {"market", {{"equalizer_strength", 8.0}, {"exploration", 0.6}}},
      {"market", {{"rule", 0.0}}},
      {"market", {{"rule", 2.0}}},
      {"market", {{"capacity_fraction", 1.0}}},
      {"market", {{"capacity_fraction", 0.01}}},
      {"ensemble", {{"controller", 0.0}, {"hysteresis", 0.0}}},
      {"ensemble", {{"controller", 1.0}, {"hysteresis", 0.0}}},
      {"ensemble", {{"controller", 0.0}, {"initial_on_fraction", 0.3}}},
      {"ensemble", {{"controller", 1.0}, {"initial_on_fraction", 0.3}}},
      {"ensemble", {{"controller", 0.0}, {"target_fraction", 0.9}}},
      {"ensemble", {{"controller", 1.0}, {"target_fraction", 0.9}}},
  };
  sim::ExperimentOptions options;
  options.num_trials = 2;
  options.master_seed = 42;
  Fnv1a digest;
  for (const auto& configuration : kConfigurations) {
    const std::unique_ptr<sim::Scenario> scenario =
        sim::CreateScenario(configuration.scenario);
    const bool market = std::string(configuration.scenario) == "market";
    ASSERT_TRUE(scenario->SetParameter(market ? "num_workers" : "num_agents",
                                       market ? 200.0 : 300.0));
    ASSERT_TRUE(scenario->SetParameter(market ? "rounds" : "steps", 200.0));
    for (const auto& assignment : configuration.assignments) {
      ASSERT_TRUE(scenario->SetParameter(assignment.first, assignment.second));
    }
    digest.Mix(sim::ExperimentDigest(
        sim::RunExperiment(scenario.get(), options)));
  }
  EXPECT_EQ(Hex(digest.hash()), "5650561dbb8c5b99");
}

TEST(GoldenTest, MarketAndEnsembleOddHorizonsAndCuts) {
  // Horizons that are not multiples of four, so a batched observer fold
  // ends on a partial batch, and market runs whose exploit cut meets
  // every case of its selection: the prior's cut in the first round, an
  // unchanged cut, a cut above or below the last one, one exploit slot
  // (a 0.005 capacity) and every worker in an exploit slot (capacity 1,
  // rule 0). 256 skill classes is the most the byte group ids hold.
  const struct {
    const char* scenario;
    std::vector<std::pair<const char*, double>> assignments;
  } kConfigurations[] = {
      {"market", {{"rounds", 1.0}, {"equalizer_strength", 2.0}}},
      {"market",
       {{"rounds", 3.0},
        {"heterogeneous_skill", 1.0},
        {"skill_classes", 4.0},
        {"equalizer_period", 1.0},
        {"equalizer_strength", 2.0}}},
      {"market",
       {{"rounds", 203.0},
        {"heterogeneous_skill", 1.0},
        {"skill_classes", 4.0},
        {"equalizer_period", 3.0},
        {"equalizer_strength", 2.0}}},
      {"market", {{"rounds", 203.0}, {"equalizer_strength", 2.0}}},
      {"market",
       {{"rounds", 203.0}, {"rule", 0.0}, {"capacity_fraction", 1.0}}},
      {"market",
       {{"rounds", 203.0}, {"rule", 0.0}, {"capacity_fraction", 0.005}}},
      {"market",
       {{"rounds", 203.0},
        {"capacity_fraction", 1.0},
        {"exploration", 0.3},
        {"heterogeneous_skill", 1.0}}},
      {"market",
       {{"rounds", 5.0},
        {"heterogeneous_skill", 1.0},
        {"skill_classes", 256.0},
        {"equalizer_period", 2.0},
        {"equalizer_strength", 1.0}}},
      {"ensemble", {{"steps", 1.0}, {"controller", 0.0}}},
      {"ensemble", {{"steps", 5.0}, {"controller", 0.0}}},
      {"ensemble", {{"steps", 5.0}, {"controller", 1.0}}},
      {"ensemble",
       {{"steps", 150.0}, {"controller", 0.0}, {"initial_on_fraction", 0.3}}},
      {"ensemble",
       {{"steps", 150.0}, {"controller", 1.0}, {"initial_on_fraction", 0.3}}},
      {"ensemble",
       {{"steps", 203.0}, {"controller", 1.0}, {"hysteresis", 0.0}}},
  };
  sim::ExperimentOptions options;
  options.num_trials = 2;
  options.master_seed = 42;
  Fnv1a digest;
  for (const auto& configuration : kConfigurations) {
    const std::unique_ptr<sim::Scenario> scenario =
        sim::CreateScenario(configuration.scenario);
    const bool market = std::string(configuration.scenario) == "market";
    ASSERT_TRUE(scenario->SetParameter(market ? "num_workers" : "num_agents",
                                       market ? 200.0 : 300.0));
    for (const auto& assignment : configuration.assignments) {
      ASSERT_TRUE(scenario->SetParameter(assignment.first, assignment.second));
    }
    digest.Mix(sim::ExperimentDigest(
        sim::RunExperiment(scenario.get(), options)));
  }
  EXPECT_EQ(Hex(digest.hash()), "738a94f726442fd8");

  // The engine's own outputs, reputations included, with no observer.
  Fnv1a engine;
  for (const auto rule :
       {market::MatchingRule::kTopScore, market::MatchingRule::kEpsilonGreedy,
        market::MatchingRule::kUniformRandom}) {
    for (const size_t rounds : {size_t{1}, size_t{3}, size_t{203}}) {
      market::MatchingMarketOptions market_options;
      market_options.num_workers = 150;
      market_options.rounds = rounds;
      market_options.heterogeneous_skill = true;
      market_options.seed = 9;
      const market::MatchingMarketResult result =
          market::RunMatchingMarket(rule, market_options);
      engine.MixSeries(result.match_rate);
      engine.MixSeries(result.reputation);
      engine.MixDouble(result.match_rate_gini);
    }
  }
  EXPECT_EQ(Hex(engine.hash()), "9697d1597fadbf4c");
}

TEST(GoldenTest, EnsembleControlWithoutObserver) {
  // The loop's own outputs, the aggregate series included, with no
  // observer attached (the path RunEnsembleStudy takes).
  Fnv1a digest;
  for (const auto kind : {sim::EnsembleControllerKind::kStableRandomized,
                          sim::EnsembleControllerKind::kIntegralHysteresis}) {
    for (const double hysteresis : {0.0, 0.05}) {
      sim::EnsembleOptions options;
      options.num_agents = 300;
      options.steps = 200;
      options.burn_in = 20;
      options.hysteresis = hysteresis;
      options.target_fraction = 0.7;
      std::vector<bool> initial_on(options.num_agents, false);
      for (size_t i = 0; i < options.num_agents; i += 3) initial_on[i] = true;
      rng::Random random(11);
      const sim::EnsembleRunResult result =
          sim::RunEnsembleControl(kind, options, initial_on, 0.5, &random);
      digest.MixSeries(result.per_agent_average);
      digest.MixSeries(result.aggregate_fraction);
      digest.MixDouble(result.aggregate_average);
      digest.MixDouble(result.final_signal);
      digest.Mix(random.bit_generator().Next64());
    }
  }
  EXPECT_EQ(Hex(digest.hash()), "8adf81f3e5708340");
}

TEST(GoldenTest, ServedJobDigests) {
  // Twelve small jobs across the three built-in scenarios, run through
  // the path every served and CLI job takes.
  const struct {
    const char* scenario;
    const char* parameter;
    double values[4];
  } kGrid[] = {
      {"credit", "num_users", {150.0, 200.0, 250.0, 300.0}},
      {"market", "exploration", {0.05, 0.1, 0.2, 0.4}},
      {"ensemble", "gain", {0.02, 0.05, 0.1, 0.2}},
  };
  serve::JobRunOptions run;
  run.num_threads = 1;
  Fnv1a digest;
  for (const auto& row : kGrid) {
    for (const double value : row.values) {
      serve::JobSpec job;
      job.scenario = row.scenario;
      job.num_trials = 2;
      job.assignments.emplace_back(row.parameter, value);
      digest.Mix(serve::RunJobSpec(job, run).digest);
    }
  }
  EXPECT_EQ(Hex(digest.hash()), "5712aecb3429c9bb");
}

TEST(GoldenTest, SparseUlamInvariantMeasures) {
  // The biased binary IFS {x/2 w.p. 0.6, x/2 + 1/2 w.p. 0.4}: its
  // invariant measure is the (0.6, 0.4) Bernoulli measure on [0, 1],
  // non-uniform, so the stationary solver iterates for real.
  const markov::AffineIfs ifs({markov::AffineMap::Scalar(0.5, 0.0),
                               markov::AffineMap::Scalar(0.5, 0.5)},
                              {0.6, 0.4});
  const struct {
    size_t cells;
    const char* measure;
  } kSizes[] = {
      {100, "7aaf163f37c96262"},
      {1000, "d51b6e6b3789518f"},
      {10000, "1e455cf80c0e2ea0"},
      {100000, "fb8a38cccf365f6d"},
  };
  Fnv1a digest;
  for (const auto& size : kSizes) {
    const markov::SparseUlamOperator op(ifs, 0.0, 1.0, size.cells);
    const linalg::SparseStationaryResult stationary = op.StationarySolve();
    ASSERT_TRUE(stationary.converged) << size.cells << " cells";
    ASSERT_TRUE(stationary.distribution.has_value()) << size.cells;
    Fnv1a measure;
    measure.MixSeries(stationary.distribution->data());
    EXPECT_EQ(Hex(measure.hash()), size.measure) << size.cells << " cells";
    digest.Mix(size.cells);
    digest.Mix(op.transition().nonzeros());
    digest.Mix(measure.hash());
  }
  EXPECT_EQ(Hex(digest.hash()), "5792c942bd4b7c3e");
}

TEST(GoldenTest, CertificateDocuments) {
  // The whole --certify document, not just its measures: solver
  // iterations, invariant means, subdominant moduli, gaps and mixing
  // bounds are all rendered %.17g. The second document of each size is
  // the uncertified negative case, the ensemble under integral
  // hysteresis. 1,001 and 2,003 cells are not multiples of four, so the
  // stationary solver's last rows run outside its four-row slices.
  const struct {
    size_t cells;
    const char* registered;
    const char* hysteresis;
  } kSizes[] = {
      {512, "d268d1215dfe3824", "7a39ddc442d9f4e0"},
      {1001, "e58e181fa7f8e7d3", "0262bc8542431cf3"},
      {2003, "2683952806a87810", "b22e8ce2e0f6ac7d"},
  };
  for (const auto& size : kSizes) {
    sim::ScenarioCertifyOptions options;
    options.spectral.num_cells = size.cells;
    const auto document_digest =
        [&options](const std::vector<sim::ScenarioCertificate>& certificates) {
          const std::string document = sim::RenderScenarioCertificatesJson(
              certificates, "\"provenance\": {}", options);
          Fnv1a digest;
          digest.MixBytes(reinterpret_cast<const uint8_t*>(document.data()),
                          document.size());
          return Hex(digest.hash());
        };
    EXPECT_EQ(document_digest(sim::CertifyRegisteredScenarios(options)),
              size.registered)
        << size.cells << " cells";
    const std::unique_ptr<sim::Scenario> hysteresis =
        sim::CreateScenario("ensemble");
    ASSERT_TRUE(hysteresis->SetParameter("controller", 1.0));
    EXPECT_EQ(document_digest({sim::CertifyScenario(*hysteresis, options)}),
              size.hysteresis)
        << size.cells << " cells";
  }
}

TEST(GoldenTest, KernelScalarReferences) {
  // Every kernel's scalar reference on hot-path-shaped inputs: positive
  // incomes across the bracket range, ADR-like fractions, logistic-scale
  // predictors, and denominators with a zero every seventh entry. The
  // vector lanes equal these bit for bit (simd_test).
  namespace kernels = runtime::kernels;
  const size_t n = size_t{1} << 16;
  rng::Random random(2026);
  std::vector<double> income(n), adr(n), predictors(n), num(n), den(n),
      rows(2 * n);
  for (size_t i = 0; i < n; ++i) {
    income[i] = random.UniformDouble(1.0, 250.0);
    adr[i] = random.UniformDouble();
    predictors[i] = random.UniformDouble(-30.0, 30.0);
    num[i] = random.UniformDouble(0.0, 20.0);
    den[i] = i % 7 == 0 ? 0.0 : random.UniformDouble(0.5, 20.0);
    rows[2 * i] = adr[i];
    rows[2 * i + 1] = income[i] >= 15.0 ? 1.0 : 0.0;
  }
  kernels::ScoreParams params;
  params.code_threshold = 15.0;
  params.base_points = 0.3;
  params.adr_weight = -8.17;
  params.code_weight = 5.77;
  params.cutoff = 0.4;

  Fnv1a digest;
  std::vector<double> out(n);
  std::vector<unsigned char> approved(n);
  kernels::ScoreSweepScalar(income.data(), adr.data(), n, params, out.data(),
                            approved.data());
  digest.MixSeries(out);
  for (unsigned char value : approved) digest.Mix(value);
  kernels::IncomeCodeScalar(income.data(), n, 15.0, out.data());
  digest.MixSeries(out);
  kernels::SurplusShareScalar(income.data(), n, 3.5, 10.0, 0.0216, out.data());
  digest.MixSeries(out);
  kernels::GuardedRatioScalar(num.data(), den.data(), n, out.data());
  digest.MixSeries(out);
  kernels::SigmoidBatchScalar(predictors.data(), n, out.data());
  digest.MixSeries(out);
  kernels::LinearPredictor2Scalar(rows.data(), n, -8.17, 5.77, 0.3, true,
                                  out.data());
  digest.MixSeries(out);
  base::SetSimdForceScalarForTesting(true);
  rng::Pcg32(7, 11).FillUniform(out.data(), n);
  base::SetSimdForceScalarForTesting(false);
  digest.MixSeries(out);
  EXPECT_EQ(Hex(digest.hash()), "053e8e89ece65944");
}

TEST(GoldenTest, NormalCdfScalarReference) {
  // Three quarters of the inputs in the repayment hot range, the rest
  // across the whole clamp span, with the branch switch points, the
  // clamp edges, signed zero, infinities and NaN at the front.
  namespace phi = base::phi;
  const size_t n = size_t{1} << 18;
  std::vector<double> x(n);
  rng::Random random(2026);
  const size_t hot = n * 3 / 4;
  for (size_t i = 0; i < hot; ++i) x[i] = random.UniformDouble(-8.0, 8.0);
  for (size_t i = hot; i < n; ++i) {
    x[i] = random.UniformDouble(-phi::kClamp, phi::kClamp);
  }
  const double specials[] = {0.0,
                             -0.0,
                             0.46875 * phi::kSqrt2,
                             -0.46875 * phi::kSqrt2,
                             4.0 * phi::kSqrt2,
                             -4.0 * phi::kSqrt2,
                             phi::kClamp,
                             -phi::kClamp,
                             phi::kClamp + 1e-9,
                             -phi::kClamp - 1e-9,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  for (size_t i = 0; i < sizeof(specials) / sizeof(specials[0]); ++i) {
    x[i] = specials[i];
  }
  std::vector<double> out(n);
  runtime::kernels::NormalCdfBatchScalar(x.data(), n, out.data());
  Fnv1a digest;
  digest.MixSeries(out);
  EXPECT_EQ(Hex(digest.hash()), "60cca54c2947bd61");
}

}  // namespace
}  // namespace eqimpact
