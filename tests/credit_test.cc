// Unit tests for the credit module: income model, repayment behaviour,
// ADR filter, lending policies, population, and the full closed loop.

#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "credit/adr_filter.h"
#include "credit/credit_loop.h"
#include "credit/income_model.h"
#include "credit/lending_policy.h"
#include "credit/population.h"
#include "credit/race.h"
#include "credit/repayment_model.h"
#include "rng/normal.h"
#include "rng/random.h"
#include "runtime/thread_pool.h"

namespace eqimpact {
namespace {

using credit::Race;

TEST(RaceTest, NamesMatchCpsLabels) {
  EXPECT_EQ(RaceName(Race::kBlackAlone), "BLACK ALONE");
  EXPECT_EQ(RaceName(Race::kWhiteAlone), "WHITE ALONE");
  EXPECT_EQ(RaceName(Race::kAsianAlone), "ASIAN ALONE");
}

TEST(RaceTest, SharesMatchPaperAndSumToNearOne) {
  EXPECT_DOUBLE_EQ(credit::kRaceShares2002[0], 0.1235);
  EXPECT_DOUBLE_EQ(credit::kRaceShares2002[1], 0.8406);
  EXPECT_DOUBLE_EQ(credit::kRaceShares2002[2], 0.0359);
  double total = credit::kRaceShares2002[0] + credit::kRaceShares2002[1] +
                 credit::kRaceShares2002[2];
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(IncomeModelTest, SharesSumToOneForAllYearsAndRaces) {
  credit::IncomeModel model;
  for (int year = credit::kFirstYear; year <= credit::kLastYear; ++year) {
    for (size_t r = 0; r < credit::kNumRaces; ++r) {
      auto shares = model.BracketShares(year, static_cast<Race>(r));
      EXPECT_EQ(shares.size(), credit::kNumIncomeBrackets);
      double total = std::accumulate(shares.begin(), shares.end(), 0.0);
      EXPECT_NEAR(total, 1.0, 1e-12) << "year " << year << " race " << r;
    }
  }
}

TEST(IncomeModelTest, Figure2AsianTopBracketShare) {
  // Paper Figure 2: "a larger share (almost 20%) of ASIAN ALONE households
  // makes more than $200K in 2020".
  credit::IncomeModel model;
  auto asian = model.BracketShares(2020, Race::kAsianAlone);
  EXPECT_NEAR(asian.back(), 0.198, 0.01);
  auto black = model.BracketShares(2020, Race::kBlackAlone);
  auto white = model.BracketShares(2020, Race::kWhiteAlone);
  EXPECT_GT(asian.back(), white.back());
  EXPECT_GT(white.back(), black.back());
}

TEST(IncomeModelTest, Figure2BlackMostlyBelow75K) {
  // Paper: "the income of most BLACK ALONE households is less than $75K".
  credit::IncomeModel model;
  auto shares = model.BracketShares(2020, Race::kBlackAlone);
  double below75 = shares[0] + shares[1] + shares[2] + shares[3] + shares[4];
  EXPECT_GT(below75, 0.5);
}

TEST(IncomeModelTest, IncomesGrowOverTime) {
  // Nominal income growth 2002 -> 2020: the under-15K share shrinks and
  // the over-200K share grows for every race.
  credit::IncomeModel model;
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    Race race = static_cast<Race>(r);
    auto early = model.BracketShares(2002, race);
    auto late = model.BracketShares(2020, race);
    EXPECT_GT(early.front(), late.front()) << "race " << r;
    EXPECT_LT(early.back(), late.back()) << "race " << r;
  }
}

TEST(IncomeModelTest, YearsOutsideRangeAreClamped) {
  credit::IncomeModel model;
  EXPECT_EQ(model.BracketShares(1990, Race::kWhiteAlone),
            model.BracketShares(2002, Race::kWhiteAlone));
  EXPECT_EQ(model.BracketShares(2030, Race::kWhiteAlone),
            model.BracketShares(2020, Race::kWhiteAlone));
}

TEST(IncomeModelTest, SampledIncomesLandInBrackets) {
  credit::IncomeModel model;
  rng::Random random(201);
  for (int i = 0; i < 5000; ++i) {
    double income = model.SampleIncome(2010, Race::kWhiteAlone, &random);
    EXPECT_GT(income, 0.0);
    EXPECT_LT(income, 10000.0);  // The Pareto tail stays sane.
  }
}

TEST(IncomeModelTest, YearSamplerDrawsWhatSampleIncomeDraws) {
  // SampleIncome is the scalar reference of the per-year sampler the
  // engine runs: on the same stream both draw the same incomes.
  credit::IncomeModel model;
  for (int year : {2002, 2011, 2020}) {
    const credit::YearIncomeSampler sampler(model, year);
    for (size_t r = 0; r < credit::kNumRaces; ++r) {
      const Race race = static_cast<Race>(r);
      rng::Random reference(400 + r), engine(400 + r);
      for (int draw = 0; draw < 1000; ++draw) {
        EXPECT_EQ(sampler.Sample(race, &engine),
                  model.SampleIncome(year, race, &reference))
            << "year=" << year << " race=" << r << " draw=" << draw;
      }
    }
  }
}

TEST(IncomeModelTest, SamplingFrequenciesMatchShares) {
  credit::IncomeModel model;
  rng::Random random(202);
  auto shares = model.BracketShares(2020, Race::kAsianAlone);
  std::vector<int> counts(credit::kNumIncomeBrackets, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++counts[model.SampleBracket(2020, Race::kAsianAlone, &random)];
  }
  for (size_t b = 0; b < credit::kNumIncomeBrackets; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]) / draws, shares[b], 0.01);
  }
}

TEST(IncomeModelTest, BracketLabels) {
  EXPECT_EQ(credit::BracketLabel(0), "under 15");
  EXPECT_EQ(credit::BracketLabel(1), "15-25");
  EXPECT_EQ(credit::BracketLabel(8), "over 200");
}

TEST(IncomeModelTest, YearSharesOverrideReplacesEmbeddedTable) {
  credit::IncomeModel model;
  std::vector<double> custom(credit::kNumIncomeBrackets, 0.0);
  custom[4] = 2.0;  // All mass in the 50-75 bracket (any positive scale).
  model.SetYearShares(2010, Race::kWhiteAlone, custom);
  EXPECT_EQ(model.num_overrides(), 1u);
  auto shares = model.BracketShares(2010, Race::kWhiteAlone);
  EXPECT_DOUBLE_EQ(shares[4], 1.0);  // Normalised.
  // Other cells untouched.
  EXPECT_NE(model.BracketShares(2011, Race::kWhiteAlone)[4], 1.0);
  EXPECT_NE(model.BracketShares(2010, Race::kBlackAlone)[4], 1.0);
  // Replacing the same cell does not grow the override list.
  model.SetYearShares(2010, Race::kWhiteAlone, custom);
  EXPECT_EQ(model.num_overrides(), 1u);
}

TEST(IncomeModelTest, CsvLoaderInstallsOverrides) {
  std::string path = ::testing::TempDir() + "/eqimpact_income.csv";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("year,race,s0,s1,s2,s3,s4,s5,s6,s7,s8\n", file);
  std::fputs("# comment line\n", file);
  std::fputs("2010,WHITE ALONE,10,10,10,10,10,10,10,10,20\n", file);
  std::fputs("2011,BLACK ALONE,50,50,0,0,0,0,0,0,0\n", file);
  std::fclose(file);

  credit::IncomeModel model;
  EXPECT_EQ(credit::LoadIncomeSharesCsv(path, &model), 2);
  EXPECT_EQ(model.num_overrides(), 2u);
  EXPECT_NEAR(model.BracketShares(2010, Race::kWhiteAlone)[8], 0.2, 1e-12);
  EXPECT_NEAR(model.BracketShares(2011, Race::kBlackAlone)[0], 0.5, 1e-12);
  std::remove(path.c_str());
}

TEST(IncomeModelTest, CsvLoaderRejectsMalformedRows) {
  std::string path = ::testing::TempDir() + "/eqimpact_income_bad.csv";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("2010,WHITE ALONE,1,2,3\n", file);  // Too few columns.
  std::fclose(file);
  credit::IncomeModel model;
  EXPECT_EQ(credit::LoadIncomeSharesCsv(path, &model), -1);
  std::remove(path.c_str());
}

TEST(IncomeModelTest, CsvLoaderRejectsUnknownRaceAndBadNumbers) {
  std::string path = ::testing::TempDir() + "/eqimpact_income_bad2.csv";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("2010,MARTIAN,10,10,10,10,10,10,10,10,20\n", file);
  std::fclose(file);
  credit::IncomeModel model;
  EXPECT_EQ(credit::LoadIncomeSharesCsv(path, &model), -1);
  std::remove(path.c_str());
}

TEST(IncomeModelTest, CsvLoaderMissingFileFails) {
  credit::IncomeModel model;
  EXPECT_EQ(credit::LoadIncomeSharesCsv("/no/such/file.csv", &model), -1);
}

// --- Repayment model (paper equations (10)-(11)) ---------------------------

TEST(RepaymentModelTest, SurplusShareMatchesEquation10) {
  credit::RepaymentModel model;
  // x = (z - 10 - 3.5 * 0.0216 * z) / z = 0.9244 - 10/z.
  EXPECT_NEAR(model.SurplusShare(50.0), 0.9244 - 10.0 / 50.0, 1e-12);
  EXPECT_NEAR(model.SurplusShare(20.0), 0.9244 - 0.5, 1e-12);
}

TEST(RepaymentModelTest, RepaymentProbabilityIsPhiOfFiveX) {
  credit::RepaymentModel model;
  double x = model.SurplusShare(50.0);
  EXPECT_NEAR(model.RepaymentProbability(50.0),
              rng::StandardNormalCdf(5.0 * x), 1e-12);
}

TEST(RepaymentModelTest, InsolventHouseholdNeverRepays) {
  credit::RepaymentModel model;
  // x <= 0 iff z <= 10 / 0.9244 ~ 10.82.
  EXPECT_DOUBLE_EQ(model.RepaymentProbability(10.0), 0.0);
  rng::Random random(203);
  // The mortgage amounts below are the default 3.5x income.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(model.SimulateRepaymentForAmount(10.0, 35.0, true, &random));
  }
}

TEST(RepaymentModelTest, NoOfferMeansNoRepayment) {
  credit::RepaymentModel model;
  rng::Random random(204);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(
        model.SimulateRepaymentForAmount(100.0, 350.0, false, &random));
  }
}

TEST(RepaymentModelTest, RicherHouseholdsRepayMoreOften) {
  credit::RepaymentModel model;
  EXPECT_LT(model.RepaymentProbability(13.0),
            model.RepaymentProbability(20.0));
  EXPECT_LT(model.RepaymentProbability(20.0),
            model.RepaymentProbability(60.0));
  EXPECT_GT(model.RepaymentProbability(60.0), 0.999);
}

TEST(RepaymentModelTest, ExplicitAmountOverridesMultiple) {
  credit::RepaymentModel model;
  // $50K flat mortgage for a $20K-income household: interest 1.08, so
  // x = (20 - 10 - 1.08) / 20.
  EXPECT_NEAR(model.SurplusShareForAmount(20.0, 50.0),
              (20.0 - 10.0 - 0.0216 * 50.0) / 20.0, 1e-12);
}

TEST(RepaymentModelTest, SimulationFrequencyMatchesProbability) {
  credit::RepaymentModel model;
  rng::Random random(205);
  double p = model.RepaymentProbability(16.0);
  int repaid = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    repaid +=
        model.SimulateRepaymentForAmount(16.0, 56.0, true, &random) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(repaid) / draws, p, 0.01);
}

// --- ADR filter (paper equation (12)) ---------------------------------------

TEST(AdrFilterTest, StartsAtZero) {
  credit::AdrFilter filter(2);
  EXPECT_DOUBLE_EQ(filter.UserAdr(0), 0.0);
  EXPECT_EQ(filter.UserOffers(0), 0);
}

TEST(AdrFilterTest, CountsDefaultsOverOffers) {
  credit::AdrFilter filter(1);
  filter.Update(0, true, true);    // Offer, repaid.
  filter.Update(0, true, false);   // Offer, default.
  filter.Update(0, false, false);  // No offer: ignored.
  filter.Update(0, true, true);    // Offer, repaid.
  EXPECT_NEAR(filter.UserAdr(0), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(filter.UserOffers(0), 3);
}

TEST(AdrFilterTest, DenialFreezesAdr) {
  credit::AdrFilter filter(1);
  filter.Update(0, true, false);
  double before = filter.UserAdr(0);
  for (int k = 0; k < 10; ++k) filter.Update(0, false, false);
  EXPECT_DOUBLE_EQ(filter.UserAdr(0), before);
}

TEST(AdrFilterTest, ForgettingFactorDiscountsOldDefaults) {
  credit::AdrFilter forgetting(1, 0.5);
  forgetting.Update(0, true, false);  // Old default.
  forgetting.Update(0, true, true);
  forgetting.Update(0, true, true);
  credit::AdrFilter accumulating(1, 1.0);
  accumulating.Update(0, true, false);
  accumulating.Update(0, true, true);
  accumulating.Update(0, true, true);
  EXPECT_LT(forgetting.UserAdr(0), accumulating.UserAdr(0));
  EXPECT_NEAR(accumulating.UserAdr(0), 1.0 / 3.0, 1e-12);
}

TEST(AdrFilterTest, SnapshotMatchesPerUserQueries) {
  credit::AdrFilter filter(2);
  filter.Update(0, true, false);
  filter.Update(1, true, true);
  auto snapshot = filter.UserAdrSnapshot();
  EXPECT_DOUBLE_EQ(snapshot[0], 1.0);
  EXPECT_DOUBLE_EQ(snapshot[1], 0.0);
}

// --- Population --------------------------------------------------------------

TEST(PopulationTest, RaceSharesApproximatelyMatchPaper) {
  rng::Random random(301);
  credit::Population population(20000, &random);
  double white_share =
      static_cast<double>(population.CountRace(Race::kWhiteAlone)) / 20000.0;
  EXPECT_NEAR(white_share, 0.8406, 0.02);
  double black_share =
      static_cast<double>(population.CountRace(Race::kBlackAlone)) / 20000.0;
  EXPECT_NEAR(black_share, 0.1235, 0.02);
}

TEST(PopulationTest, IncomeCodeThreshold) {
  rng::Random random(302);
  credit::Population population(100, &random);
  credit::IncomeModel model;
  population.ResampleIncomes(2010, model, &random);
  for (size_t i = 0; i < population.size(); ++i) {
    double code = population.IncomeCode(i, 15.0);
    EXPECT_EQ(code, population.income(i) >= 15.0 ? 1.0 : 0.0);
  }
}

TEST(PopulationTest, ResamplingChangesIncomes) {
  rng::Random random(303);
  credit::Population population(100, &random);
  credit::IncomeModel model;
  population.ResampleIncomes(2005, model, &random);
  double first = population.income(0);
  population.ResampleIncomes(2006, model, &random);
  // At least one income must change (almost surely all do).
  bool changed = false;
  for (size_t i = 0; i < population.size(); ++i) {
    if (population.income(i) != first) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(PopulationTest, RebuildFromRaceIdsReproducesCohort) {
  // The checkpoint layer persists only the sampled race ids; rebuilding
  // from them must reproduce the cohort exactly — races, counts and
  // subsequent income sampling — with no RNG draws of its own.
  rng::Random random(304);
  credit::Population sampled(500, &random);
  credit::Population rebuilt(sampled.race_ids());

  ASSERT_EQ(rebuilt.size(), sampled.size());
  EXPECT_EQ(rebuilt.race_ids(), sampled.race_ids());
  EXPECT_EQ(rebuilt.races(), sampled.races());
  for (Race race :
       {Race::kBlackAlone, Race::kWhiteAlone, Race::kAsianAlone}) {
    EXPECT_EQ(rebuilt.CountRace(race), sampled.CountRace(race));
  }

  // Same RNG stream from here on => bitwise-identical incomes.
  credit::IncomeModel model;
  rng::Random stream_a(77), stream_b(77);
  sampled.ResampleIncomes(2006, model, &stream_a);
  rebuilt.ResampleIncomes(2006, model, &stream_b);
  EXPECT_EQ(rebuilt.incomes(), sampled.incomes());
}

TEST(AdrFilterTest, RestoreStateReproducesUserAdrBitwise) {
  // Round-trip the raw per-user arrays through a fresh filter (the
  // checkpoint resume path) and check every derived quantity — ADR
  // ratios and offer counts — is bitwise-preserved and that further
  // updates continue identically on both filters.
  rng::Random random(305);
  credit::AdrFilter original(300);
  for (size_t i = 0; i < original.num_users(); ++i) {
    for (int k = 0; k < 5; ++k) {
      original.Update(i, random.Bernoulli(0.6), random.Bernoulli(0.8));
    }
  }

  credit::AdrFilter restored(300);
  restored.RestoreState(original.offer_weights(), original.default_weights(),
                        original.offer_counts());

  EXPECT_EQ(restored.UserAdrSnapshot(), original.UserAdrSnapshot());
  for (size_t i = 0; i < original.num_users(); ++i) {
    EXPECT_EQ(restored.UserOffers(i), original.UserOffers(i));
    EXPECT_EQ(restored.UserOfferWeight(i), original.UserOfferWeight(i));
    EXPECT_EQ(restored.UserDefaultWeight(i), original.UserDefaultWeight(i));
  }

  rng::Random tail(306);
  for (size_t i = 0; i < original.num_users(); ++i) {
    const bool offered = tail.Bernoulli(0.5);
    const bool repaid = tail.Bernoulli(0.7);
    original.Update(i, offered, repaid);
    restored.Update(i, offered, repaid);
  }
  EXPECT_EQ(restored.UserAdrSnapshot(), original.UserAdrSnapshot());
}

// --- Lending policies ---------------------------------------------------------

TEST(LendingPolicyTest, ScorecardPolicyUsesAdrAndCode) {
  ml::Scorecard card({{"History", "x ADR", -8.17}, {"Income", ">15K", 5.77}},
                     0.4);
  credit::ScorecardPolicy policy(card, 3.5);
  // Good applicant: approved with 3.5x income.
  credit::LendingDecision good = policy.Decide({50.0, 1.0, 0.1, false});
  EXPECT_TRUE(good.approved);
  EXPECT_DOUBLE_EQ(good.mortgage_amount, 175.0);
  // Poor applicant (code 0): score <= 0 < 0.4, declined.
  credit::LendingDecision poor = policy.Decide({12.0, 0.0, 0.0, false});
  EXPECT_FALSE(poor.approved);
  EXPECT_DOUBLE_EQ(poor.mortgage_amount, 0.0);
}

TEST(LendingPolicyTest, FlatLimitDeclinesPastDefaulters) {
  credit::FlatLimitPolicy policy(50.0);
  EXPECT_TRUE(policy.Decide({12.0, 0.0, 0.0, false}).approved);
  EXPECT_FALSE(policy.Decide({120.0, 1.0, 0.1, true}).approved);
  EXPECT_DOUBLE_EQ(policy.Decide({12.0, 0.0, 0.0, false}).mortgage_amount,
                   50.0);
}

TEST(LendingPolicyTest, IncomeMultipleApprovesEveryone) {
  credit::IncomeMultiplePolicy policy(3.0);
  credit::LendingDecision decision = policy.Decide({20.0, 1.0, 0.9, true});
  EXPECT_TRUE(decision.approved);
  EXPECT_DOUBLE_EQ(decision.mortgage_amount, 60.0);
}

// --- The closed loop -----------------------------------------------------------

credit::CreditLoopOptions SmallLoopOptions(uint64_t seed) {
  credit::CreditLoopOptions options;
  options.num_users = 200;
  options.seed = seed;
  return options;
}

TEST(CreditLoopTest, ResultShapes) {
  credit::CreditScoringLoop loop(SmallLoopOptions(1));
  credit::CreditLoopResult result = loop.Run();
  EXPECT_EQ(result.years.size(), 19u);  // 2002..2020.
  EXPECT_EQ(result.years.front(), 2002);
  EXPECT_EQ(result.years.back(), 2020);
  EXPECT_EQ(result.user_adr.size(), 200u);
  EXPECT_EQ(result.user_adr[0].size(), 19u);
  EXPECT_EQ(result.race_adr.size(), credit::kNumRaces);
  EXPECT_EQ(result.race_adr[0].size(), 19u);
  EXPECT_EQ(result.overall_adr.size(), 19u);
  EXPECT_EQ(result.races.size(), 200u);
}

TEST(CreditLoopTest, DeterministicInSeed) {
  credit::CreditScoringLoop a(SmallLoopOptions(7));
  credit::CreditScoringLoop b(SmallLoopOptions(7));
  credit::CreditLoopResult ra = a.Run();
  credit::CreditLoopResult rb = b.Run();
  EXPECT_EQ(ra.user_adr, rb.user_adr);
  EXPECT_EQ(ra.race_adr, rb.race_adr);
}

TEST(CreditLoopTest, DifferentSeedsDiffer) {
  credit::CreditLoopResult ra =
      credit::CreditScoringLoop(SmallLoopOptions(7)).Run();
  credit::CreditLoopResult rb =
      credit::CreditScoringLoop(SmallLoopOptions(8)).Run();
  EXPECT_NE(ra.user_adr, rb.user_adr);
}

TEST(CreditLoopTest, WarmupApprovesEveryone) {
  credit::CreditScoringLoop loop(SmallLoopOptions(2));
  credit::CreditLoopResult result = loop.Run();
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    if (result.race_approval[r].empty()) continue;
    // Every race with members is fully approved in the warm-up years.
    if (result.race_adr[r][0] > 0.0 || result.race_approval[r][0] > 0.0) {
      EXPECT_DOUBLE_EQ(result.race_approval[r][0], 1.0);
      EXPECT_DOUBLE_EQ(result.race_approval[r][1], 1.0);
    }
  }
}

TEST(CreditLoopTest, ScorecardSignsMatchTableOne) {
  credit::CreditScoringLoop loop(SmallLoopOptions(3));
  credit::CreditLoopResult result = loop.Run();
  ASSERT_FALSE(result.scorecards.empty());
  for (const credit::ScorecardSnapshot& card : result.scorecards) {
    EXPECT_LT(card.history_weight, 0.0)
        << "History factor must penalise defaults (Table I: -8.17)";
    EXPECT_GT(card.income_weight, 0.0)
        << "Income factor must reward income (Table I: +5.77)";
  }
}

TEST(CreditLoopTest, AdrSeriesStayInUnitInterval) {
  credit::CreditScoringLoop loop(SmallLoopOptions(4));
  credit::CreditLoopResult result = loop.Run();
  for (const auto& series : result.user_adr) {
    for (double adr : series) {
      EXPECT_GE(adr, 0.0);
      EXPECT_LE(adr, 1.0);
    }
  }
}

TEST(CreditLoopTest, RaceAdrSettlesToLowLevels) {
  // The paper's Figure 3: all races dwindle to a similar low ADR level.
  credit::CreditLoopOptions options = SmallLoopOptions(5);
  options.num_users = 1000;
  credit::CreditScoringLoop loop(options);
  credit::CreditLoopResult result = loop.Run();
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    double final_adr = result.race_adr[r].back();
    EXPECT_GT(final_adr, 0.0) << RaceName(static_cast<Race>(r));
    EXPECT_LT(final_adr, 0.15) << RaceName(static_cast<Race>(r));
  }
}

TEST(CreditLoopTest, InlineApprovalRuleMatchesScorecardPolicy) {
  // The batch engine hoists the scorecard into scalars and tests
  // (base + w_history * adr) + w_income * code > cutoff inline
  // (credit_loop.cc, pass 2). Pin that formula — evaluation order,
  // strict '>', and the income-multiple sizing — to ScorecardPolicy so
  // any change to Scorecard/ScorecardPolicy semantics fails here and
  // flags the engine copy.
  ml::Scorecard card(
      {{"History", "x ADR", -8.17}, {"Income", ">15K", 5.77}}, 0.4, 0.25);
  credit::ScorecardPolicy policy(card, 3.5);
  const double base = card.base_points();
  const double w_history = card.factor(0).score;
  const double w_income = card.factor(1).score;
  for (double adr = 0.0; adr <= 1.0; adr += 0.01) {
    for (double code : {0.0, 1.0}) {
      for (double income : {12.0, 50.0}) {
        const bool inline_approved =
            (base + w_history * adr) + w_income * code > card.cutoff();
        credit::LendingDecision decision =
            policy.Decide({income, code, adr, false});
        ASSERT_EQ(decision.approved, inline_approved)
            << "adr=" << adr << " code=" << code;
        if (decision.approved) {
          EXPECT_DOUBLE_EQ(decision.mortgage_amount, 3.5 * income);
        } else {
          EXPECT_DOUBLE_EQ(decision.mortgage_amount, 0.0);
        }
      }
    }
  }
  // Boundary: a score exactly at the cut-off is declined (strict '>').
  ml::Scorecard flat({{"History", "x ADR", 0.0}, {"Income", ">15K", 0.0}},
                     0.0, 0.0);
  credit::ScorecardPolicy flat_policy(flat, 3.5);
  EXPECT_FALSE(flat_policy.Decide({50.0, 1.0, 0.5, false}).approved);
}

TEST(CreditLoopTest, StreamingModeKeepsNoPerUserSeries) {
  // keep_user_adr = false is the memory-bounded large-cohort mode: the
  // aggregate series are unchanged, but no per-user series exists.
  credit::CreditLoopOptions options = SmallLoopOptions(9);
  credit::CreditLoopResult full = credit::CreditScoringLoop(options).Run();
  options.keep_user_adr = false;
  credit::CreditLoopResult streaming =
      credit::CreditScoringLoop(options).Run();
  EXPECT_TRUE(streaming.user_adr.empty());
  EXPECT_EQ(streaming.race_adr, full.race_adr);
  EXPECT_EQ(streaming.overall_adr, full.overall_adr);
  EXPECT_EQ(streaming.races, full.races);
}

TEST(CreditLoopTest, RaceAndOverallSeriesAreMeansOfUserAdrs) {
  // ADR_s(k) is the mean of ADR_i(k) over the users of race s, summed in
  // user order, and the overall series the mean over everyone: the
  // engine's stage sums must give those bits at every chunk layout and
  // thread count. A race's rate is the mean of its users' rates, not
  // its defaults over its offers, so users with many offers weigh no
  // more than users with one.
  for (const size_t chunk : {size_t{64}, size_t{4096}}) {
    for (const size_t threads : {size_t{1}, size_t{3}}) {
      credit::CreditLoopOptions options = SmallLoopOptions(17);
      options.num_users = 1000;
      options.users_per_chunk = chunk;
      options.num_threads = threads;
      const credit::CreditLoopResult result =
          credit::CreditScoringLoop(options).Run();
      for (size_t k = 0; k < result.years.size(); ++k) {
        std::array<double, credit::kNumRaces> race_sum = {0.0, 0.0, 0.0};
        std::array<size_t, credit::kNumRaces> members = {0, 0, 0};
        double overall_sum = 0.0;
        for (size_t i = 0; i < options.num_users; ++i) {
          const size_t r = static_cast<size_t>(result.races[i]);
          race_sum[r] += result.user_adr[i][k];
          ++members[r];
          overall_sum += result.user_adr[i][k];
        }
        for (size_t r = 0; r < credit::kNumRaces; ++r) {
          const double mean =
              members[r] == 0
                  ? 0.0
                  : race_sum[r] / static_cast<double>(members[r]);
          EXPECT_EQ(result.race_adr[r][k], mean)
              << "chunk=" << chunk << " threads=" << threads << " k=" << k;
        }
        EXPECT_EQ(result.overall_adr[k],
                  overall_sum / static_cast<double>(options.num_users));
      }
    }
  }
}

TEST(CreditLoopTest, YearObserverSeesEveryCrossSection) {
  // The observer receives exactly the per-year columns of user_adr, so a
  // streaming consumer loses nothing against the materialized series.
  credit::CreditLoopOptions options = SmallLoopOptions(10);
  credit::CreditLoopResult reference =
      credit::CreditScoringLoop(options).Run();

  options.keep_user_adr = false;
  size_t calls = 0;
  bool all_match = true;
  credit::CreditScoringLoop(options).Run(
      [&](const credit::YearSnapshot& snapshot) {
        EXPECT_EQ(snapshot.user_adr.size(), options.num_users);
        EXPECT_EQ(snapshot.year,
                  reference.years[snapshot.step]);
        for (size_t i = 0; i < snapshot.user_adr.size(); ++i) {
          if (snapshot.user_adr[i] !=
              reference.user_adr[i][snapshot.step]) {
            all_match = false;
          }
        }
        ++calls;
      });
  EXPECT_EQ(calls, reference.years.size());
  EXPECT_TRUE(all_match);
}

TEST(CreditLoopTest, DenseTallyFoldMatchesHashedFoldCheckpointBytes) {
  // Every year's checkpoint serializes the grouped history (group order,
  // weights, num_rows_absorbed) next to the rest of the loop state. The
  // per-chunk tally fold, reduced in chunk order from 16 chunks on 4
  // threads (16 shards) and on 3 threads (12 shards), must leave it
  // byte-identical to the row-by-row hashed fold.
  const auto checkpoints = [](bool dense, size_t threads) {
    credit::CreditLoopOptions options = SmallLoopOptions(15);
    options.num_users = 1000;
    options.users_per_chunk = 64;
    options.num_threads = threads;
    options.dense_history_fold = dense;
    std::vector<std::vector<uint8_t>> blobs;
    options.checkpoint_sink = [&blobs](size_t,
                                       const std::vector<uint8_t>& state) {
      blobs.push_back(state);
    };
    credit::CreditScoringLoop(options).Run();
    return blobs;
  };
  const std::vector<std::vector<uint8_t>> hashed = checkpoints(false, 4);
  ASSERT_EQ(hashed.size(), 19u);
  EXPECT_TRUE(checkpoints(true, 4) == hashed);
  EXPECT_TRUE(checkpoints(true, 3) == hashed);
}

TEST(CreditLoopTest, ObserverRunsOnCallingThreadOncePerYear) {
  // The observer is called once per year, after the year's pass, on the
  // calling thread, whether the trial is one chunk (run inline) or
  // several on a caller's pool.
  runtime::ThreadPool pool(3);
  for (const size_t users : {size_t{200}, size_t{1000}}) {
    credit::CreditLoopOptions options = SmallLoopOptions(16);
    options.num_users = users;
    options.users_per_chunk = 256;
    options.keep_user_adr = false;
    options.pool = &pool;
    size_t calls = 0;
    const std::thread::id caller = std::this_thread::get_id();
    credit::CreditScoringLoop(options).Run(
        [&](const credit::YearSnapshot& snapshot) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          EXPECT_EQ(snapshot.step, calls);
          ++calls;
        });
    EXPECT_EQ(calls, 19u);
  }
}

TEST(CreditLoopTest, ChunkSizeIsPartOfTheStreamLayout) {
  // users_per_chunk relayouts the RNG sub-streams: it may change the
  // realisation (like a new seed) but never the validity of the run.
  credit::CreditLoopOptions options = SmallLoopOptions(12);
  options.users_per_chunk = 64;
  credit::CreditLoopResult chunked =
      credit::CreditScoringLoop(options).Run();
  EXPECT_EQ(chunked.user_adr.size(), options.num_users);
  for (const auto& series : chunked.user_adr) {
    for (double adr : series) {
      EXPECT_GE(adr, 0.0);
      EXPECT_LE(adr, 1.0);
    }
  }
}

TEST(CreditLoopTest, ForgettingFilterAblationRuns) {
  credit::CreditLoopOptions options = SmallLoopOptions(6);
  options.forgetting_factor = 0.8;
  credit::CreditLoopResult result =
      credit::CreditScoringLoop(options).Run();
  EXPECT_EQ(result.user_adr.size(), options.num_users);
}

TEST(CreditLoopTest, ExplicitHistoryBinWidthRunsAndStaysDeterministic) {
  // Forcing a coarse ADR bin width on the grouped history still yields a
  // working, seed-deterministic loop (the surrogate ADR is within
  // width / 2 of the raw one).
  credit::CreditLoopOptions options = SmallLoopOptions(13);
  options.history_adr_bin_width = 1.0 / 64.0;
  credit::CreditLoopResult a = credit::CreditScoringLoop(options).Run();
  credit::CreditLoopResult b = credit::CreditScoringLoop(options).Run();
  EXPECT_EQ(a.user_adr, b.user_adr);
  ASSERT_FALSE(a.scorecards.empty());
  // A bin this coarse can distort the weak History coefficient (most
  // ADRs sit in the lowest bin at 200 users), so only the strong Income
  // sign is asserted alongside finiteness.
  for (const credit::ScorecardSnapshot& card : a.scorecards) {
    EXPECT_TRUE(std::isfinite(card.history_weight));
    EXPECT_GT(card.income_weight, 0.0);
  }
}

TEST(CreditLoopTest, ScorecardsAreThreadCountInvariantWithParallelFit) {
  // The trainer's chunked reduction runs on the loop's worker pool, so
  // the fitted scorecards — and with them every downstream decision —
  // must be bitwise-identical at every thread count even with chunk
  // sizes small enough that the fit genuinely fans out.
  credit::CreditLoopOptions options = SmallLoopOptions(14);
  options.num_users = 400;
  options.users_per_chunk = 64;
  options.logistic.rows_per_chunk = 16;

  options.num_threads = 1;
  credit::CreditLoopResult sequential =
      credit::CreditScoringLoop(options).Run();
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    credit::CreditLoopResult parallel =
        credit::CreditScoringLoop(options).Run();
    ASSERT_EQ(parallel.scorecards.size(), sequential.scorecards.size());
    for (size_t s = 0; s < sequential.scorecards.size(); ++s) {
      EXPECT_EQ(parallel.scorecards[s].history_weight,
                sequential.scorecards[s].history_weight)
          << "threads=" << threads << " snapshot " << s;
      EXPECT_EQ(parallel.scorecards[s].income_weight,
                sequential.scorecards[s].income_weight);
    }
    EXPECT_EQ(parallel.user_adr, sequential.user_adr);
    EXPECT_EQ(parallel.overall_adr, sequential.overall_adr);
  }
}

TEST(CreditLoopTest, LastYearOnlyHistoryIsRebuiltEachYear) {
  // The single-year ablation clears the grouped history every year; the
  // loop must still fit (both classes re-observed yearly) and remain
  // seed-deterministic.
  credit::CreditLoopOptions options = SmallLoopOptions(15);
  options.accumulate_history = false;
  credit::CreditLoopResult a = credit::CreditScoringLoop(options).Run();
  credit::CreditLoopResult b = credit::CreditScoringLoop(options).Run();
  EXPECT_FALSE(a.scorecards.empty());
  EXPECT_EQ(a.user_adr, b.user_adr);
  EXPECT_EQ(a.overall_adr, b.overall_adr);
}

TEST(CreditLoopTest, LastYearOnlyTrainingAblationRuns) {
  credit::CreditLoopOptions options = SmallLoopOptions(7);
  options.accumulate_history = false;
  credit::CreditLoopResult result =
      credit::CreditScoringLoop(options).Run();
  EXPECT_FALSE(result.scorecards.empty());
}

// --- Parameterized sweeps -------------------------------------------------------

class CutoffSweep : public ::testing::TestWithParam<double> {};

TEST_P(CutoffSweep, LoopRunsAndKeepsAdrBoundedForAnyCutoff) {
  credit::CreditLoopOptions options = SmallLoopOptions(11);
  options.cutoff = GetParam();
  credit::CreditLoopResult result =
      credit::CreditScoringLoop(options).Run();
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    EXPECT_LE(result.race_adr[r].back(), 1.0);
    EXPECT_GE(result.race_adr[r].back(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, CutoffSweep,
                         ::testing::Values(-1.0, 0.0, 0.4, 1.0, 3.0));

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, FinalOverallAdrIsStableAcrossSeeds) {
  // Equal impact across trials: the long-run overall ADR level should not
  // vary wildly with the randomness (initial conditions).
  credit::CreditLoopOptions options = SmallLoopOptions(GetParam());
  options.num_users = 500;
  credit::CreditLoopResult result =
      credit::CreditScoringLoop(options).Run();
  EXPECT_GT(result.overall_adr.back(), 0.0);
  EXPECT_LT(result.overall_adr.back(), 0.12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(100, 200, 300, 400, 500));

}  // namespace
}  // namespace eqimpact
