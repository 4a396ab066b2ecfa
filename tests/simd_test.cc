// Tests of the SIMD kernel sublayer (runtime/simd.h, runtime/kernels.h,
// rng::Pcg32::FillUniform) and of its determinism contract: every vector
// lane is bit-for-bit the scalar reference on every input — NaN
// payloads, infinities, subnormals, signed zeros — and at every tail
// length, so simulation digests are invariant across backends and
// across the sweep driver's cross-point thread counts.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "base/fnv1a.h"
#include "base/simd_scalar.h"
#include "credit/credit_loop.h"
#include "credit/income_model.h"
#include "credit/repayment_model.h"
#include "gtest/gtest.h"
#include "ml/logistic_regression.h"
#include "rng/normal.h"
#include "rng/pcg32.h"
#include "rng/random.h"
#include "runtime/kernels.h"
#include "runtime/simd.h"
#include "sim/experiment.h"
#include "sim/scenario_registry.h"
#include "sim/sweep.h"
#include "stats/adr_accumulator.h"

namespace eqimpact {
namespace {

namespace kernels = runtime::kernels;

// Restores the force-scalar toggle even when a test fails mid-way.
class ScopedForceScalar {
 public:
  ScopedForceScalar() { base::SetSimdForceScalarForTesting(true); }
  ~ScopedForceScalar() { base::SetSimdForceScalarForTesting(false); }
};

// Adversarial doubles: every IEEE special the kernels' compares and
// divides could mishandle, plus hot-path-shaped ordinary values.
std::vector<double> AdversarialValues() {
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          15.0,
          14.999999999999998,
          42.5,
          -42.5,
          1e-300,
          -1e-300,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          1e300,
          -1e300,
          inf,
          -inf,
          qnan,
          -qnan,
          0.4,
          0.6,
          3.5,
          250.0};
}

// A length-n input cycling through the adversarial values, phase-shifted
// so paired arrays do not align.
std::vector<double> AdversarialInput(size_t n, size_t phase) {
  const std::vector<double> values = AdversarialValues();
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = values[(i + phase) % values.size()];
  }
  return out;
}

// Bitwise comparison that treats equal NaN payloads as equal (memcmp).
::testing::AssertionResult BitwiseEqual(const std::vector<double>& a,
                                        const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "lane " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Every size from empty through several multiples of the AVX2 lane
// count (4), so every tail remainder is hit.
std::vector<size_t> TailSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 18; ++n) sizes.push_back(n);
  sizes.push_back(63);
  sizes.push_back(64);
  sizes.push_back(65);
  sizes.push_back(1000);
  return sizes;
}

TEST(SimdBackendTest, ActiveBackendRespectsForceScalar) {
  EXPECT_LE(runtime::simd::LaneWidth(runtime::simd::ActiveBackend()),
            runtime::simd::LaneWidth(runtime::simd::CompiledBackend()));
  {
    ScopedForceScalar scalar;
    EXPECT_EQ(runtime::simd::ActiveBackend(),
              runtime::simd::Backend::kScalar);
  }
  EXPECT_STREQ(runtime::simd::BackendName(runtime::simd::Backend::kScalar),
               "scalar");
  EXPECT_EQ(runtime::simd::LaneWidth(runtime::simd::Backend::kScalar), 1u);
}

// The bitwise suites below compare each dispatched entry with its scalar
// reference. On a build and CPU with AVX2 that comparison must go through
// the AVX2 lane, or it proves nothing about the lane.
TEST(SimdBackendTest, DispatchUsesAvx2WhereCompiledAndSupported) {
#if defined(EQIMPACT_AVX2_LANES)
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU without AVX2";
  EXPECT_TRUE(base::UseAvx2Lanes());
  EXPECT_EQ(runtime::simd::CompiledBackend(), runtime::simd::Backend::kAvx2);
  EXPECT_EQ(runtime::simd::ActiveBackend(), runtime::simd::Backend::kAvx2);
  EXPECT_STREQ(runtime::simd::BackendName(runtime::simd::Backend::kAvx2),
               "avx2");
  EXPECT_EQ(runtime::simd::LaneWidth(runtime::simd::Backend::kAvx2), 4u);
#else
  EXPECT_FALSE(base::UseAvx2Lanes());
  EXPECT_EQ(runtime::simd::CompiledBackend(), runtime::simd::Backend::kScalar);
#endif
}

TEST(SimdKernelTest, IncomeCodeBitwiseEqualOnAdversarialInputs) {
  for (size_t n : TailSizes()) {
    const std::vector<double> income = AdversarialInput(n, 0);
    std::vector<double> scalar(n, -1.0), vector(n, -2.0);
    kernels::IncomeCodeScalar(income.data(), n, 15.0, scalar.data());
    kernels::IncomeCode(income.data(), n, 15.0, vector.data());
    EXPECT_TRUE(BitwiseEqual(scalar, vector)) << "n=" << n;
  }
}

TEST(SimdKernelTest, ScoreSweepBitwiseEqualOnAdversarialInputs) {
  kernels::ScoreParams params;
  params.code_threshold = 15.0;
  params.base_points = 0.3;
  params.adr_weight = -8.17;
  params.code_weight = 5.77;
  params.cutoff = 0.4;
  for (size_t n : TailSizes()) {
    const std::vector<double> income = AdversarialInput(n, 0);
    const std::vector<double> adr = AdversarialInput(n, 7);
    std::vector<double> code_s(n, -1.0), code_v(n, -2.0);
    std::vector<unsigned char> approved_s(n, 9), approved_v(n, 8);
    kernels::ScoreSweepScalar(income.data(), adr.data(), n, params,
                              code_s.data(), approved_s.data());
    kernels::ScoreSweep(income.data(), adr.data(), n, params, code_v.data(),
                        approved_v.data());
    EXPECT_TRUE(BitwiseEqual(code_s, code_v)) << "n=" << n;
    EXPECT_EQ(approved_s, approved_v) << "n=" << n;
  }
  // NaN scores must decline — the legacy !(score > cutoff) semantics.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  double code = 0.0;
  unsigned char approved = 1;
  const double income = 20.0;
  kernels::ScoreSweep(&income, &qnan, 1, params, &code, &approved);
  EXPECT_EQ(approved, 0);
}

TEST(SimdKernelTest, SurplusShareBitwiseEqualOnAdversarialInputs) {
  for (size_t n : TailSizes()) {
    const std::vector<double> income = AdversarialInput(n, 3);
    std::vector<double> scalar(n), vector(n);
    kernels::SurplusShareScalar(income.data(), n, 3.5, 10.0, 0.0216,
                                scalar.data());
    kernels::SurplusShare(income.data(), n, 3.5, 10.0, 0.0216,
                          vector.data());
    EXPECT_TRUE(BitwiseEqual(scalar, vector)) << "n=" << n;
  }
}

TEST(SimdKernelTest, GuardedRatioBitwiseEqualOnAdversarialInputs) {
  for (size_t n : TailSizes()) {
    const std::vector<double> num = AdversarialInput(n, 5);
    const std::vector<double> den = AdversarialInput(n, 11);
    std::vector<double> scalar(n), vector(n);
    kernels::GuardedRatioScalar(num.data(), den.data(), n, scalar.data());
    kernels::GuardedRatio(num.data(), den.data(), n, vector.data());
    EXPECT_TRUE(BitwiseEqual(scalar, vector)) << "n=" << n;
  }
}

TEST(SimdKernelTest, SigmoidBatchBitwiseEqualOnAdversarialInputs) {
  for (size_t n : TailSizes()) {
    const std::vector<double> t = AdversarialInput(n, 9);
    std::vector<double> scalar(n), vector(n);
    kernels::SigmoidBatchScalar(t.data(), n, scalar.data());
    kernels::SigmoidBatch(t.data(), n, vector.data());
    EXPECT_TRUE(BitwiseEqual(scalar, vector)) << "n=" << n;
  }
}

TEST(SimdKernelTest, SigmoidBatchScalarMatchesMlSigmoid) {
  // The scalar reference must be ml::Sigmoid exactly, finite and not.
  const std::vector<double> t = AdversarialInput(64, 2);
  std::vector<double> batch(t.size());
  kernels::SigmoidBatchScalar(t.data(), t.size(), batch.data());
  for (size_t i = 0; i < t.size(); ++i) {
    const double direct = ml::Sigmoid(t[i]);
    EXPECT_EQ(std::memcmp(&direct, &batch[i], sizeof(double)), 0)
        << "t=" << t[i];
  }
}

TEST(SimdKernelTest, LinearPredictor2BitwiseEqualOnAdversarialInputs) {
  for (size_t n : TailSizes()) {
    const std::vector<double> rows = AdversarialInput(2 * n, 1);
    for (bool add_bias : {false, true}) {
      std::vector<double> scalar(n), vector(n);
      kernels::LinearPredictor2Scalar(rows.data(), n, -8.17, 5.77, 0.3,
                                      add_bias, scalar.data());
      kernels::LinearPredictor2(rows.data(), n, -8.17, 5.77, 0.3, add_bias,
                                vector.data());
      EXPECT_TRUE(BitwiseEqual(scalar, vector))
          << "n=" << n << " bias=" << add_bias;
    }
  }
  // Signed-zero products: RowDot's initial 0.0 turns -0.0 into +0.0.
  const std::vector<double> rows = {-0.0, -0.0};
  double scalar = -1.0, vector = -1.0;
  kernels::LinearPredictor2Scalar(rows.data(), 1, 1.0, 1.0, 0.0, false,
                                  &scalar);
  kernels::LinearPredictor2(rows.data(), 1, 1.0, 1.0, 0.0, false, &vector);
  EXPECT_EQ(std::memcmp(&scalar, &vector, sizeof(double)), 0);
  EXPECT_FALSE(std::signbit(scalar));
}

TEST(SimdKernelTest, ForceScalarTogglePinsDispatchToReference) {
  // Under the toggle the dispatched entry must take the scalar path —
  // trivially bitwise-equal — regardless of backend.
  ScopedForceScalar scalar_only;
  const size_t n = 37;
  const std::vector<double> income = AdversarialInput(n, 0);
  std::vector<double> a(n), b(n);
  kernels::IncomeCodeScalar(income.data(), n, 15.0, a.data());
  kernels::IncomeCode(income.data(), n, 15.0, b.data());
  EXPECT_TRUE(BitwiseEqual(a, b));
}

TEST(SimdFillUniformTest, MatchesSequentialDrawsForAllSizes) {
  for (size_t n = 0; n <= 70; ++n) {
    rng::Pcg32 batch_gen(123, 77);
    rng::Pcg32 seq_gen(123, 77);
    std::vector<double> batch(n + 1, -1.0), sequential(n + 1, -1.0);
    batch_gen.FillUniform(batch.data(), n);
    for (size_t i = 0; i < n; ++i) {
      sequential[i] =
          static_cast<double>(seq_gen.Next64() >> 11) * 0x1.0p-53;
    }
    EXPECT_TRUE(BitwiseEqual(batch, sequential)) << "n=" << n;
    // The generator state must land exactly where 2n Next() calls put
    // it, so batch and sequential draws interleave freely.
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(batch_gen.Next(), seq_gen.Next()) << "n=" << n;
    }
  }
}

TEST(SimdFillUniformTest, LargeFillAndRandomWrapperMatch) {
  rng::Random batch_random(2026);
  rng::Random seq_random(2026);
  std::vector<double> batch(4097), sequential(4097);
  batch_random.FillUniformDouble(batch.data(), batch.size());
  for (double& value : sequential) value = seq_random.UniformDouble();
  EXPECT_TRUE(BitwiseEqual(batch, sequential));
  EXPECT_EQ(batch_random.UniformDouble(), seq_random.UniformDouble());
}

TEST(SimdFillUniformTest, ForceScalarProducesTheSameStream) {
  std::vector<double> vector_fill(257), scalar_fill(257);
  {
    rng::Pcg32 gen(9, 5);
    gen.FillUniform(vector_fill.data(), vector_fill.size());
  }
  {
    ScopedForceScalar scalar_only;
    rng::Pcg32 gen(9, 5);
    gen.FillUniform(scalar_fill.data(), scalar_fill.size());
  }
  EXPECT_TRUE(BitwiseEqual(vector_fill, scalar_fill));
}

TEST(SimdIncomeSamplerTest, SampleFromUniformsMatchesSample) {
  const credit::IncomeModel model;
  for (int year : {2002, 2011, 2020}) {
    const credit::YearIncomeSampler sampler(model, year);
    for (size_t r = 0; r < credit::kNumRaces; ++r) {
      const credit::Race race = static_cast<credit::Race>(r);
      rng::Random direct(17 * (r + 1) + year);
      rng::Random feeder(17 * (r + 1) + year);
      for (int draw = 0; draw < 200; ++draw) {
        const double expected = sampler.Sample(race, &direct);
        const double u_bracket = feeder.UniformDouble();
        const double u_value = feeder.UniformDouble();
        const double actual =
            sampler.SampleFromUniforms(race, u_bracket, u_value);
        EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
            << "year=" << year << " race=" << r << " draw=" << draw;
      }
    }
  }
}

TEST(SimdRepaymentTest, ProbabilityBatchMatchesScalarModel) {
  const credit::RepaymentModel model;
  std::vector<double> incomes;
  rng::Random random(5);
  for (int i = 0; i < 999; ++i) {
    incomes.push_back(random.UniformDouble(0.5, 260.0));
  }
  std::vector<double> batch(incomes.size());
  std::vector<double> shares(incomes.size());
  model.ProbabilityBatch(incomes.data(), incomes.size(), shares.data(),
                         batch.data());
  for (size_t i = 0; i < incomes.size(); ++i) {
    const double expected = model.RepaymentProbability(incomes[i]);
    EXPECT_EQ(std::memcmp(&expected, &batch[i], sizeof(double)), 0)
        << "income=" << incomes[i];
  }
}

// Adversarial inputs specific to the pinned normal CDF: the Cody
// rational's branch switch points (0.46875 and 4.0 on the erfc argument
// scale, so times sqrt 2 on the x scale), the saturation clamp and its
// neighbourhood, deep-tail values, subnormals, and the IEEE specials.
std::vector<double> PhiAdversarialValues() {
  namespace phi = base::phi;
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          0.5,
          -2.5,
          phi::kErfSwitch * phi::kSqrt2,
          -phi::kErfSwitch * phi::kSqrt2,
          std::nextafter(phi::kErfSwitch * phi::kSqrt2, 100.0),
          phi::kTailSwitch * phi::kSqrt2,
          -phi::kTailSwitch * phi::kSqrt2,
          std::nextafter(-phi::kTailSwitch * phi::kSqrt2, -100.0),
          -25.715539999999997,  // The measured max-ulp point.
          phi::kClamp,
          -phi::kClamp,
          std::nextafter(phi::kClamp, 100.0),
          std::nextafter(-phi::kClamp, -100.0),
          100.0,
          -100.0,
          1e-300,
          -1e-300,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          1e300,
          -1e300,
          inf,
          -inf,
          qnan,
          -qnan};
}

TEST(SimdNormalCdfTest, BatchBitwiseEqualOnAdversarialInputsAllTailSizes) {
  const std::vector<double> values = PhiAdversarialValues();
  for (size_t n : TailSizes()) {
    for (size_t phase = 0; phase < 3; ++phase) {
      std::vector<double> x(n);
      for (size_t i = 0; i < n; ++i) {
        x[i] = values[(i + 7 * phase) % values.size()];
      }
      std::vector<double> scalar(n, -1.0);
      std::vector<double> vectored(n, -2.0);
      kernels::NormalCdfBatchScalar(x.data(), n, scalar.data());
      kernels::NormalCdfBatch(x.data(), n, vectored.data());
      EXPECT_TRUE(BitwiseEqual(scalar, vectored))
          << "n=" << n << " phase=" << phase;
    }
  }
}

TEST(SimdNormalCdfTest, BatchBitwiseEqualOnDenseRandomSweep) {
  // 2^18 random points, three quarters in the repayment hot range and
  // the rest across the clamp span: every branch at every lane position
  // with operand bits the adversarial list never reaches.
  namespace phi = base::phi;
  rng::Random random(2026);
  std::vector<double> x(size_t{1} << 18);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = i % 4 == 3 ? random.UniformDouble(-phi::kClamp, phi::kClamp)
                      : random.UniformDouble(-8.0, 8.0);
  }
  std::vector<double> scalar(x.size(), -1.0);
  std::vector<double> vectored(x.size(), -2.0);
  kernels::NormalCdfBatchScalar(x.data(), x.size(), scalar.data());
  kernels::NormalCdfBatch(x.data(), x.size(), vectored.data());
  EXPECT_TRUE(BitwiseEqual(scalar, vectored));
}

TEST(SimdNormalCdfTest, BatchAllowsInPlaceAndForceScalarDispatch) {
  const std::vector<double> x = PhiAdversarialValues();
  std::vector<double> expected(x.size());
  kernels::NormalCdfBatchScalar(x.data(), x.size(), expected.data());
  // Aliased out == x (the repayment path evaluates in place).
  std::vector<double> in_place = x;
  kernels::NormalCdfBatch(in_place.data(), in_place.size(), in_place.data());
  EXPECT_TRUE(BitwiseEqual(expected, in_place));
  // The force-scalar toggle pins the dispatch to the reference.
  ScopedForceScalar scalar_only;
  std::vector<double> forced(x.size(), -3.0);
  kernels::NormalCdfBatch(x.data(), x.size(), forced.data());
  EXPECT_TRUE(BitwiseEqual(expected, forced));
}

// Ulp distance between two Phi outputs; both are in [0, 1], where the
// IEEE bit patterns are non-negative and ordered, so the distance is
// the plain integer gap.
int64_t PhiUlpDistance(double a, double b) {
  int64_t ia = 0, ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return ia > ib ? ia - ib : ib - ia;
}

TEST(SimdNormalCdfTest, MaxUlpVsLibmWithinDocumentedBound) {
  namespace phi = base::phi;
  int64_t max_ulp = 0;
  double worst = 0.0;
  // Dense sweep of the clamp span plus a finer pass over the hot range;
  // the documented bound covers every x in [-kClamp, kClamp].
  const auto check = [&max_ulp, &worst](double x) {
    const double pinned = base::NormalCdfScalar(x);
    const double libm = 0.5 * std::erfc(-x / phi::kSqrt2);
    const int64_t ulp = PhiUlpDistance(pinned, libm);
    if (ulp > max_ulp) {
      max_ulp = ulp;
      worst = x;
    }
  };
  for (double x = -phi::kClamp; x <= phi::kClamp; x += 1e-3) check(x);
  for (double x = -8.0; x <= 8.0; x += 1e-5) check(x);
  EXPECT_LE(max_ulp, phi::kMaxUlpVsLibm) << "worst x=" << worst;
}

TEST(SimdNormalCdfTest, SpecialValuesPinned) {
  namespace phi = base::phi;
  EXPECT_EQ(base::NormalCdfScalar(0.0), 0.5);
  EXPECT_EQ(base::NormalCdfScalar(-0.0), 0.5);
  // Exact saturation outside the clamp (true Phi is < 1e-307 there).
  EXPECT_EQ(base::NormalCdfScalar(phi::kClamp + 1e-9), 1.0);
  EXPECT_EQ(base::NormalCdfScalar(-phi::kClamp - 1e-9), 0.0);
  EXPECT_EQ(base::NormalCdfScalar(std::numeric_limits<double>::infinity()),
            1.0);
  EXPECT_EQ(base::NormalCdfScalar(-std::numeric_limits<double>::infinity()),
            0.0);
  // NaN inputs return the input bits unchanged, payload included.
  uint64_t payload_bits = 0x7ff8000000001234ull;
  double payload_nan = 0.0;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));
  const double out = base::NormalCdfScalar(payload_nan);
  EXPECT_EQ(std::memcmp(&out, &payload_nan, sizeof(out)), 0);
  // Monotone non-decreasing across a coarse grid (sanity on the pieces).
  double previous = 0.0;
  for (double x = -37.0; x <= 37.0; x += 0.25) {
    const double value = base::NormalCdfScalar(x);
    EXPECT_GE(value, previous) << "x=" << x;
    previous = value;
  }
}

TEST(SimdNormalCdfTest, StandardNormalCdfEntriesAreTheReference) {
  const std::vector<double> x = PhiAdversarialValues();
  for (size_t i = 0; i < x.size(); ++i) {
    const double scalar_entry = rng::StandardNormalCdf(x[i]);
    const double reference = base::NormalCdfScalar(x[i]);
    EXPECT_EQ(std::memcmp(&scalar_entry, &reference, sizeof(double)), 0)
        << "x=" << x[i];
  }
}

uint64_t CreditTrialDigest() {
  credit::CreditLoopOptions options;
  options.num_users = 400;
  options.seed = 11;
  options.keep_user_adr = false;
  const size_t num_years =
      static_cast<size_t>(options.last_year - options.first_year) + 1;
  stats::AdrAccumulator adr(credit::kNumRaces, num_years, 32);
  credit::CreditScoringLoop loop(options);
  const credit::CreditLoopResult result =
      loop.Run([&adr](const credit::YearSnapshot& snapshot) {
        adr.AddCrossSection(snapshot.step, snapshot.user_adr,
                            snapshot.race_ids);
      });
  base::Fnv1a digest;
  digest.MixSeries(result.overall_adr);
  for (const auto& series : result.race_adr) digest.MixSeries(series);
  for (const auto& series : result.race_approval) digest.MixSeries(series);
  for (const auto& snapshot : result.scorecards) {
    digest.MixDouble(snapshot.history_weight);
    digest.MixDouble(snapshot.income_weight);
    digest.MixDouble(snapshot.intercept);
  }
  sim::MixAccumulator(&digest, adr);
  return digest.hash();
}

TEST(SimdDigestTest, CreditLoopDigestInvariantUnderForceScalar) {
  const uint64_t vector_digest = CreditTrialDigest();
  uint64_t scalar_digest = 0;
  {
    ScopedForceScalar scalar_only;
    scalar_digest = CreditTrialDigest();
  }
  EXPECT_EQ(vector_digest, scalar_digest);
}

sim::SweepOptions SmallCreditSweep() {
  sim::SweepOptions options;
  options.experiment.num_trials = 2;
  options.experiment.master_seed = 3;
  options.parameters = {{"num_users", {60.0}},
                        {"cutoff", {0.3, 0.4, 0.5}},
                        {"forgetting_factor", {1.0, 0.7}}};
  return options;
}

TEST(SimdSweepTest, PointParallelSweepBitwiseIdenticalAcrossThreadCounts) {
  sim::SweepOptions options = SmallCreditSweep();
  const sim::ScenarioFactory factory = sim::GetScenarioFactory("credit");
  const sim::SweepResult reference = RunSweep(factory, options);
  ASSERT_EQ(reference.points.size(), 6u);
  const uint64_t reference_digest = SweepDigest(reference);
  for (size_t point_threads : {size_t{2}, size_t{8}}) {
    options.num_point_threads = point_threads;
    const sim::SweepResult result = RunSweep(factory, options);
    EXPECT_EQ(SweepDigest(result), reference_digest)
        << "point_threads=" << point_threads;
    // Grid order must be preserved, not just the digest.
    for (size_t p = 0; p < reference.points.size(); ++p) {
      EXPECT_EQ(result.points[p].values, reference.points[p].values);
      EXPECT_EQ(result.points[p].digest, reference.points[p].digest);
    }
    EXPECT_EQ(result.scenario, reference.scenario);
    EXPECT_EQ(result.metric_names, reference.metric_names);
  }
}

TEST(SimdSweepTest, PointParallelSweepInvariantUnderForceScalar) {
  sim::SweepOptions options = SmallCreditSweep();
  options.num_point_threads = 4;
  const sim::ScenarioFactory factory = sim::GetScenarioFactory("credit");
  const uint64_t vector_digest = SweepDigest(RunSweep(factory, options));
  uint64_t scalar_digest = 0;
  {
    ScopedForceScalar scalar_only;
    scalar_digest = SweepDigest(RunSweep(factory, options));
  }
  EXPECT_EQ(vector_digest, scalar_digest);
}

TEST(SimdSweepTest, KeepExperimentsAndNestedBudgetsUnderPointParallelism) {
  sim::SweepOptions options = SmallCreditSweep();
  options.num_point_threads = 3;
  options.keep_experiments = true;
  options.experiment.trial_threads = 2;
  const sim::SweepResult result =
      RunSweep(sim::GetScenarioFactory("credit"), options);
  ASSERT_EQ(result.experiments.size(), result.points.size());
  for (size_t p = 0; p < result.points.size(); ++p) {
    EXPECT_EQ(sim::ExperimentDigest(result.experiments[p]),
              result.points[p].digest);
  }
}

}  // namespace
}  // namespace eqimpact
