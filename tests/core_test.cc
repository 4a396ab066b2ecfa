// Unit tests for the core module: the equal-treatment and equal-impact
// auditors, the incremental-ISS certificate, and the ergodicity
// certificates.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/auditors.h"
#include "core/comparison_functions.h"
#include "core/ergodicity.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "markov/markov_chain.h"
#include "rng/random.h"

namespace eqimpact {
namespace {

using linalg::Matrix;
using linalg::Vector;

// --- Equal-impact auditor ----------------------------------------------------

TEST(EqualImpactAuditTest, IidBernoulliUsersPass) {
  rng::Random random(11);
  std::vector<std::vector<double>> actions(20);
  for (auto& series : actions) {
    for (int k = 0; k < 4000; ++k) {
      series.push_back(random.Bernoulli(0.3) ? 1.0 : 0.0);
    }
  }
  core::EqualImpactReport report = core::AuditEqualImpact(actions);
  EXPECT_TRUE(report.all_settled);
  EXPECT_TRUE(report.equal_impact);
  for (double r : report.limits) EXPECT_NEAR(r, 0.3, 0.05);
}

TEST(EqualImpactAuditTest, HeterogeneousLimitsFail) {
  std::vector<std::vector<double>> actions(2);
  for (int k = 0; k < 2000; ++k) {
    actions[0].push_back(1.0);  // r_0 = 1.
    actions[1].push_back(0.0);  // r_1 = 0.
  }
  core::EqualImpactReport report = core::AuditEqualImpact(actions);
  EXPECT_TRUE(report.all_settled);       // Both settle...
  EXPECT_NEAR(report.coincidence_gap, 1.0, 1e-12);
  EXPECT_FALSE(report.equal_impact);     // ...but to different limits.
}

TEST(EqualImpactAuditTest, NonSettlingSeriesFails) {
  // A drifting series whose Cesaro average keeps moving.
  std::vector<std::vector<double>> actions(1);
  for (int k = 0; k < 200; ++k) {
    actions[0].push_back(static_cast<double>(k));
  }
  core::EqualImpactCriteria criteria;
  criteria.settle_tolerance = 0.1;
  core::EqualImpactReport report = core::AuditEqualImpact(actions, criteria);
  EXPECT_FALSE(report.all_settled);
  EXPECT_FALSE(report.equal_impact);
}

TEST(EqualImpactAuditTest, ConditionedAuditSplitsByClass) {
  // Two classes with different but internally consistent limits: the
  // unconditional audit fails, the conditioned one passes per class
  // (Definition 4 vs Definition 3).
  std::vector<std::vector<double>> actions(4);
  std::vector<size_t> class_of{0, 0, 1, 1};
  for (int k = 0; k < 2000; ++k) {
    actions[0].push_back(1.0);
    actions[1].push_back(1.0);
    actions[2].push_back(0.0);
    actions[3].push_back(0.0);
  }
  EXPECT_FALSE(core::AuditEqualImpact(actions).equal_impact);
  std::vector<core::EqualImpactReport> reports =
      core::AuditEqualImpactConditioned(actions, class_of, 2);
  EXPECT_TRUE(reports[0].equal_impact);
  EXPECT_TRUE(reports[1].equal_impact);
}

TEST(EqualImpactAuditTest, EmptyClassIsVacuouslyFair) {
  std::vector<std::vector<double>> actions(1);
  actions[0].assign(100, 0.5);
  std::vector<core::EqualImpactReport> reports =
      core::AuditEqualImpactConditioned(actions, {0}, 3);
  EXPECT_TRUE(reports[1].equal_impact);
  EXPECT_TRUE(reports[2].equal_impact);
}

TEST(InitialConditionAuditTest, MatchingRunsPass) {
  rng::Random random_a(21), random_b(22);
  std::vector<std::vector<std::vector<double>>> runs(2);
  for (auto& run : runs) {
    run.resize(5);
    for (auto& series : run) {
      rng::Random& random = (&run == &runs[0]) ? random_a : random_b;
      for (int k = 0; k < 5000; ++k) {
        series.push_back(random.Bernoulli(0.4) ? 1.0 : 0.0);
      }
    }
  }
  core::InitialConditionReport report =
      core::AuditInitialConditionIndependence(runs, 0.05);
  EXPECT_TRUE(report.independent);
  EXPECT_LT(report.max_gap, 0.05);
}

TEST(InitialConditionAuditTest, DivergentRunsFail) {
  std::vector<std::vector<std::vector<double>>> runs(2);
  runs[0].push_back(std::vector<double>(100, 1.0));
  runs[1].push_back(std::vector<double>(100, 0.0));
  core::InitialConditionReport report =
      core::AuditInitialConditionIndependence(runs, 0.05);
  EXPECT_FALSE(report.independent);
  EXPECT_NEAR(report.max_gap, 1.0, 1e-12);
}

// --- Equal-treatment auditor ---------------------------------------------------

TEST(EqualTreatmentAuditTest, UniformDeterministicActionsPass) {
  std::vector<std::vector<double>> actions(3);
  for (auto& series : actions) series.assign(50, 0.7);
  core::EqualTreatmentReport report =
      core::AuditEqualTreatment(actions, 1e-9);
  EXPECT_TRUE(report.constant_action);
  EXPECT_DOUBLE_EQ(report.max_gap, 0.0);
}

TEST(EqualTreatmentAuditTest, StochasticResponsesFail) {
  rng::Random random(31);
  std::vector<std::vector<double>> actions(3);
  for (auto& series : actions) {
    for (int k = 0; k < 50; ++k) {
      series.push_back(random.Bernoulli(0.5) ? 1.0 : 0.0);
    }
  }
  core::EqualTreatmentReport report =
      core::AuditEqualTreatment(actions, 1e-9);
  EXPECT_FALSE(report.constant_action);
  EXPECT_GT(report.max_gap, 0.0);
}

TEST(EqualTreatmentAuditTest, TimeVaryingUniformActionsStillFail) {
  // Same action for everyone at each step, but drifting over time:
  // Definition 1 requires a single constant r.
  std::vector<std::vector<double>> actions(2);
  for (int k = 0; k < 50; ++k) {
    double value = k < 25 ? 0.0 : 1.0;
    actions[0].push_back(value);
    actions[1].push_back(value);
  }
  core::EqualTreatmentReport report =
      core::AuditEqualTreatment(actions, 1e-9);
  EXPECT_DOUBLE_EQ(report.max_gap, 0.0);    // Per-step uniformity holds...
  EXPECT_FALSE(report.constant_action);     // ...but constancy fails.
}

TEST(EqualTreatmentAuditTest, ConditionedTreatmentByClass) {
  std::vector<std::vector<double>> actions(4);
  std::vector<size_t> class_of{0, 0, 1, 1};
  for (int k = 0; k < 20; ++k) {
    actions[0].push_back(1.0);
    actions[1].push_back(1.0);
    actions[2].push_back(0.0);
    actions[3].push_back(0.0);
  }
  core::EqualTreatmentReport unconditional =
      core::AuditEqualTreatment(actions, 1e-9);
  EXPECT_FALSE(unconditional.constant_action);
  std::vector<core::EqualTreatmentReport> by_class =
      core::AuditEqualTreatmentConditioned(actions, class_of, 2, 1e-9);
  EXPECT_TRUE(by_class[0].constant_action);
  EXPECT_TRUE(by_class[1].constant_action);
}

// --- Incremental ISS ---------------------------------------------------------

TEST(LinearIssTest, SchurStableMatrixIsCertified) {
  Matrix a{{0.5, 0.2}, {0.0, 0.3}};
  core::LinearIssCertificate certificate =
      core::CertifyLinearIncrementalIss(a);
  EXPECT_TRUE(certificate.incrementally_iss);
  EXPECT_LT(certificate.spectral_radius, 1.0);
  EXPECT_LT(certificate.decay_rate, 1.0);
  EXPECT_GE(certificate.overshoot, 1.0);
}

TEST(LinearIssTest, IntegratorIsNotIss) {
  // The paper's Section VI culprit: integral action. A pure integrator
  // has spectral radius exactly 1 and is not incrementally ISS.
  Matrix integrator{{1.0}};
  core::LinearIssCertificate certificate =
      core::CertifyLinearIncrementalIss(integrator);
  EXPECT_FALSE(certificate.incrementally_iss);
  EXPECT_NEAR(certificate.spectral_radius, 1.0, 1e-9);
}

TEST(LinearIssTest, UnstableMatrixIsRejected) {
  Matrix a{{1.2, 0.0}, {0.0, 0.5}};
  EXPECT_FALSE(core::CertifyLinearIncrementalIss(a).incrementally_iss);
}

TEST(LinearIssTest, CertifiedBetaBoundsTrajectoryDifferences) {
  // ||x(k; xi1) - x(k; xi2)|| <= overshoot * decay^k * ||xi1 - xi2|| with
  // equal inputs — validate the certificate on a simulated pair.
  Matrix a{{0.8, 0.1}, {-0.2, 0.6}};
  core::LinearIssCertificate certificate =
      core::CertifyLinearIncrementalIss(a);
  ASSERT_TRUE(certificate.incrementally_iss);
  Vector x1{5.0, -3.0};
  Vector x2{-1.0, 2.0};
  double initial_gap = (x1 - x2).NormInf();
  for (int k = 0; k < 60; ++k) {
    double bound = certificate.overshoot *
                   std::pow(certificate.decay_rate, k) * initial_gap;
    EXPECT_LE((x1 - x2).NormInf(), bound + 1e-9) << "step " << k;
    x1 = a * x1;
    x2 = a * x2;
  }
}

// --- Ergodicity certificates -----------------------------------------------------

TEST(ErgodicityCertificateTest, AperiodicChainIsUniquelyErgodic) {
  markov::MarkovChain chain(Matrix{{0.5, 0.5}, {0.3, 0.7}});
  core::ErgodicityCertificate certificate = core::CertifyMarkovChain(chain);
  EXPECT_TRUE(certificate.irreducible);
  EXPECT_TRUE(certificate.aperiodic);
  EXPECT_TRUE(certificate.invariant_measure_exists);
  EXPECT_TRUE(certificate.uniquely_ergodic);
}

TEST(ErgodicityCertificateTest, PeriodicChainHasMeasureButNotAttractive) {
  markov::MarkovChain flip(Matrix{{0.0, 1.0}, {1.0, 0.0}});
  core::ErgodicityCertificate certificate = core::CertifyMarkovChain(flip);
  EXPECT_TRUE(certificate.irreducible);
  EXPECT_FALSE(certificate.aperiodic);
  EXPECT_TRUE(certificate.invariant_measure_exists);
  EXPECT_FALSE(certificate.uniquely_ergodic);
}

TEST(ErgodicityCertificateTest, ReducibleChainFails) {
  markov::MarkovChain absorbing(Matrix{{1.0, 0.0}, {0.5, 0.5}});
  core::ErgodicityCertificate certificate =
      core::CertifyMarkovChain(absorbing);
  EXPECT_FALSE(certificate.irreducible);
  EXPECT_FALSE(certificate.uniquely_ergodic);
}

TEST(ErgodicityCertificateTest, ContractiveIfsIsCertified) {
  markov::AffineIfs ifs({markov::AffineMap::Scalar(0.5, 0.0),
                         markov::AffineMap::Scalar(0.5, 1.0)},
                        {0.5, 0.5});
  core::ErgodicityCertificate certificate = core::CertifyAffineIfs(ifs);
  EXPECT_TRUE(certificate.uniquely_ergodic);
  EXPECT_NEAR(certificate.contraction_factor, 0.5, 1e-12);
}

TEST(ErgodicityCertificateTest, ExpansiveIfsIsRejected) {
  markov::AffineIfs ifs({markov::AffineMap::Scalar(1.5, 0.0)}, {1.0});
  core::ErgodicityCertificate certificate = core::CertifyAffineIfs(ifs);
  EXPECT_FALSE(certificate.average_contractive);
  EXPECT_FALSE(certificate.uniquely_ergodic);
}

TEST(ErgodicityCertificateTest, SummaryMentionsKeyFields) {
  markov::MarkovChain chain(Matrix{{0.5, 0.5}, {0.3, 0.7}});
  std::string summary = core::CertifyMarkovChain(chain).Summary();
  EXPECT_NE(summary.find("irreducible=yes"), std::string::npos);
  EXPECT_NE(summary.find("uniquely_ergodic=yes"), std::string::npos);
}

// --- Parameterized sweeps ----------------------------------------------------------

class SpectralSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpectralSweep, IssCertificateTracksSpectralRadius) {
  double rho = GetParam();
  Matrix a{{rho, 0.0}, {0.0, rho * 0.5}};
  core::LinearIssCertificate certificate =
      core::CertifyLinearIncrementalIss(a);
  EXPECT_EQ(certificate.incrementally_iss, rho < 1.0) << "rho " << rho;
  EXPECT_NEAR(certificate.spectral_radius, rho, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Radii, SpectralSweep,
                         ::testing::Values(0.1, 0.5, 0.9, 0.99, 1.01, 1.5));

// --- Spectral certificates (the sparse Ulam path). --------------------------

TEST(SpectralCertificateTest, UniformLimitIfsIsCertifiedWithHalfGap) {
  // w1 = x/2, w2 = x/2 + 1/2, p = (1/2, 1/2): invariant measure Lebesgue
  // on [0, 1], transfer-operator subdominant eigenvalue 1/2. The cell
  // count must not be a power of two: on a dyadic grid the images align
  // exactly with cell boundaries, P^log2(n) becomes rank one and every
  // non-Perron eigenvalue collapses to 0 (gap ~= 1 instead of 1/2).
  markov::AffineIfs ifs(
      {markov::AffineMap::Scalar(0.5, 0.0), markov::AffineMap::Scalar(0.5, 0.5)},
      {0.5, 0.5});
  core::SpectralCertificateOptions options;
  options.num_cells = 250;
  core::SpectralCertificate certificate =
      core::CertifyIfsSpectral(ifs, 0.0, 1.0, options);
  EXPECT_TRUE(certificate.average_contractive);
  EXPECT_NEAR(certificate.contraction_factor, 0.5, 1e-12);
  ASSERT_TRUE(certificate.invariant_measure_exists);
  EXPECT_TRUE(certificate.solver_converged);
  EXPECT_NEAR(certificate.invariant_mean, 0.5, 1e-2);
  EXPECT_NEAR(certificate.spectral_gap, 0.5, 0.05);
  EXPECT_TRUE(std::isfinite(certificate.mixing_time_bound));
  EXPECT_GE(certificate.mixing_time_bound, 1.0);
  EXPECT_TRUE(certificate.certified);
  EXPECT_NE(certificate.measure_digest, 0u);
}

TEST(SpectralCertificateTest, SlopeOneIfsHasMeasureButIsNotCertified) {
  // Two slope-1 maps: contraction factor exactly 1, so the IFS is not
  // average-contractive — yet the *discretised* chain (a clamped random
  // walk on the cells) still has a unique invariant measure. The
  // certificate must report the measure and still refuse to certify.
  markov::AffineIfs ifs(
      {markov::AffineMap::Scalar(1.0, -0.1), markov::AffineMap::Scalar(1.0, 0.1)},
      {0.5, 0.5});
  core::SpectralCertificateOptions options;
  options.num_cells = 64;
  core::SpectralCertificate certificate =
      core::CertifyIfsSpectral(ifs, 0.0, 1.0, options);
  EXPECT_FALSE(certificate.average_contractive);
  EXPECT_NEAR(certificate.contraction_factor, 1.0, 1e-12);
  EXPECT_TRUE(certificate.invariant_measure_exists);
  EXPECT_FALSE(certificate.certified);
}

TEST(SpectralCertificateTest, CertificateIsDeterministicAcrossThreadCounts) {
  markov::AffineIfs ifs(
      {markov::AffineMap::Scalar(0.5, 0.0), markov::AffineMap::Scalar(0.5, 0.5)},
      {0.6, 0.4});
  core::SpectralCertificateOptions options;
  options.num_cells = 128;
  core::SpectralCertificate reference =
      core::CertifyIfsSpectral(ifs, 0.0, 1.0, options);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    core::SpectralCertificate rerun =
        core::CertifyIfsSpectral(ifs, 0.0, 1.0, options);
    EXPECT_EQ(rerun.measure_digest, reference.measure_digest)
        << threads << " threads";
    EXPECT_EQ(rerun.solver_iterations, reference.solver_iterations);
  }
}

}  // namespace
}  // namespace eqimpact
