// Performance benchmark with machine-readable JSON output, so the perf
// trajectory can be tracked across PRs (BENCH_*.json, checked by
// scripts/check_bench_regression.py in CI).
//
// Three sections:
//
//  * "multi_trial_scaling" — the headline closed-loop workload:
//    sim::RunMultiTrial dispatched through the runtime layer at thread
//    counts 1, 2, ..., hardware_concurrency. Reports wall time,
//    trials/sec, speedup over the sequential run, and a determinism
//    checksum proving every thread count produced bitwise-identical
//    results (raw series + streaming accumulator).
//
//  * "within_trial_scaling" — one large-cohort trial (default 10^6
//    users) with the per-user series disabled: the batch engine's
//    chunked passes sweep thread counts while the per-year cross-
//    sections stream into a stats::AdrAccumulator. Proves the
//    within-trial determinism contract (equal digest at every thread
//    count) and that the run is memory-bounded (peak RSS reported; the
//    raw series for 10^6 users x 19 years would be ~150 MB/trial).
//
//  * "fit_scaling" — the yearly scorecard refit at accumulated-history
//    scale (default 12 * 10^6 rows, the order of a 10^6-user trial's
//    19-year decision history): one raw-row IRLS fit (the PR 2 baseline)
//    against the sufficient-statistics path (ml::BinnedDataset build +
//    grouped fit), with the grouped fit swept over thread counts and a
//    digest over the coefficients proving they are bitwise-identical at
//    every thread count.
//
//  * "market_scaling" — the matching-market scenario through the
//    generic scenario/experiment API (sim::MatchingMarketScenario via
//    sim::RunExperiment): the trial-parallel driver the market gained
//    in PR 4, swept over thread counts with a sim::ExperimentDigest
//    proving bitwise-identical aggregates at every thread count.
//
//  * "simd_scaling" — the kernel layer (runtime/kernels.h +
//    rng::Pcg32::FillUniform): every kernel timed through its scalar
//    reference and through the active vector backend on the same
//    inputs, the outputs compared bit for bit
//    ("vector_matches_scalar"), and a digest over the scalar outputs
//    pinning the kernels' numerical behaviour across PRs.
//
//  * "phi_scaling" — the pinned normal-CDF kernel (PR 6): scalar
//    reference vs active vector backend rates on hot-path-shaped
//    inputs plus adversarial specials, a bit-for-bit gate
//    ("vector_matches_scalar"), and the measured max ulp against
//    libm's 0.5 * erfc(-x / sqrt 2) with its documented bound
//    (base::phi::kMaxUlpVsLibm) — both gates feed the exit code.
//
//  * "fold_scaling" — the refit fold (PR 6): the same 1k-user credit
//    trial run with the hashed BinnedDataset fold and with the dense
//    (ADR numerator, code) -> group table, rates for both, and a
//    digest equality gate ("dense_matches_hashed") proving the fast
//    path changes nothing.
//
//  * "shard_scaling" — the sharded population engine (PR 7): the
//    within-trial workload swept over shard counts at one thread, with
//    three hard gates feeding the exit code: every sharded digest
//    equals the unsharded one ("sharded_matches_unsharded"), all shard
//    counts agree ("deterministic_across_shard_counts"), and a trial
//    checkpointed mid-run and resumed under a different shard count
//    reproduces the digest ("checkpoint_resume_matches"). Peak RSS is
//    sampled after every shard count — before fit_scaling materializes
//    its raw-row baseline, so the high-water marks still reflect the
//    streaming trial.
//
//  * "serving_scaling" — the experiment service (PR 8): an in-process
//    loopback server (run_experiment --serve's engine) fed a burst of
//    mixed credit/market/ensemble jobs from concurrent client
//    connections, then the identical burst again for deterministic
//    cache hits. Reports jobs/s, p50/p95 submit-to-result latency and
//    the cache hit rate; the hard gate ("served_digest_matches_cli")
//    re-runs every distinct spec directly through the CLI's
//    run-and-render path (serve::RunJobSpec) and requires digest AND
//    payload byte-equality — the transport, queue and cache must add
//    no bytes and lose none. A connection sweep then pipelines cached
//    requests over 1/4/16/64 connections, byte-checks every payload,
//    and gates the 1-connection p50 below 10 ms
//    ("cached_p50_within_floor"), so a write stall such as Nagle
//    waiting on a delayed ACK fails the bench.
//
//  * "markov_scaling" — the sparse Markov/Ulam engine (PR 9): the
//    biased binary IFS {x/2 w.p. 0.6, x/2 + 1/2 w.p. 0.4} discretised
//    at 10^2..10^5
//    cells. Per size: CSR build time, adjoint matvec rate, stationary
//    solver iterations, spectral gap and the invariant-measure digest.
//    Hard gates feeding the exit code: at the sizes where the dense
//    O(n^2) oracle is affordable, the sparse operator must equal the
//    dense Ulam matrix entry for entry and Propagate must match it bit
//    for bit ("sparse_matches_dense"); build, matvec and stationary
//    digests must be bitwise identical at 1, 2 and 8 threads with a
//    chunk size small enough to force multi-chunk dispatch
//    ("deterministic_across_thread_counts").
//
//  * "micro" — single-thread timings of the library's hot paths (RNG
//    throughput, normal CDF, logistic IRLS, one closed-loop trial,
//    Markov/linalg kernels) replacing the earlier google-benchmark
//    micro-suite with a dependency-free harness.
//
// Usage: bench_perf [num_trials] [num_users] [max_threads] [within_users]
// [fit_rows] [markov_cells]
// (defaults 32, 200, hardware_concurrency, 1000000, 12000000, 100000;
// within_users 0 / fit_rows 0 / markov_cells 0 skip the respective
// section)
// Output: a single JSON object on stdout; progress notes on stderr.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "base/fnv1a.h"
#include "base/serial.h"
#include "base/simd_scalar.h"
#include "credit/credit_loop.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/sparse_eigen.h"
#include "linalg/sparse_matrix.h"
#include "linalg/symmetric_eigen.h"
#include "market/matching_market.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "markov/coupling.h"
#include "markov/markov_chain.h"
#include "markov/sparse_ulam.h"
#include "markov/ulam.h"
#include "ml/binned_dataset.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "rng/normal.h"
#include "rng/random.h"
#include "runtime/kernels.h"
#include "runtime/simd.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/render_json.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "sim/market_scenario.h"
#include "sim/multi_trial.h"
#include "stats/adr_accumulator.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set size in MB (0 when the platform has no getrusage).
double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // Linux reports ru_maxrss in KB (macOS in bytes; close enough for a
    // bound report — CI runs Linux).
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
#endif
  return 0.0;
}

using Fnv1a = eqimpact::base::Fnv1a;
using eqimpact::sim::MixAccumulator;

uint64_t Digest(const eqimpact::sim::MultiTrialResult& result) {
  Fnv1a digest;
  for (const auto& trial : result.trials) {
    for (const auto& series : trial.user_adr) digest.MixSeries(series);
    digest.MixSeries(trial.overall_adr);
  }
  for (const auto& envelope : result.race_envelopes) {
    digest.MixSeries(envelope.mean);
  }
  MixAccumulator(&digest, result.pooled_adr);
  return digest.hash();
}

uint64_t Digest(const eqimpact::credit::CreditLoopResult& result,
                const eqimpact::stats::AdrAccumulator& adr) {
  Fnv1a digest;
  digest.MixSeries(result.overall_adr);
  for (const auto& series : result.race_adr) digest.MixSeries(series);
  MixAccumulator(&digest, adr);
  return digest.hash();
}

/// Median-of-3 wall time of `fn` in seconds.
double TimeIt(const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point start = Clock::now();
    fn();
    samples.push_back(SecondsSince(start));
  }
  // Median of three.
  double lo = std::min(std::min(samples[0], samples[1]), samples[2]);
  double hi = std::max(std::max(samples[0], samples[1]), samples[2]);
  return samples[0] + samples[1] + samples[2] - lo - hi;
}

struct MicroResult {
  std::string name;
  double seconds = 0.0;
  double items_per_sec = 0.0;
};

MicroResult Micro(const std::string& name, size_t items,
                  const std::function<void()>& fn) {
  MicroResult r;
  r.name = name;
  r.seconds = TimeIt(fn);
  r.items_per_sec = r.seconds > 0.0 ? static_cast<double>(items) / r.seconds
                                    : 0.0;
  std::fprintf(stderr, "  micro %-24s %.4fs\n", name.c_str(), r.seconds);
  return r;
}

std::vector<MicroResult> RunMicroSuite() {
  std::vector<MicroResult> out;

  out.push_back(Micro("pcg32_next", 10000000, [] {
    eqimpact::rng::Pcg32 gen(1);
    uint64_t sink = 0;
    for (int i = 0; i < 10000000; ++i) sink += gen.Next();
    if (sink == 42) std::fprintf(stderr, "!");  // Defeat dead-code elim.
  }));

  out.push_back(Micro("uniform_double", 10000000, [] {
    eqimpact::rng::Random random(1);
    double sink = 0.0;
    for (int i = 0; i < 10000000; ++i) sink += random.UniformDouble();
    if (sink < 0.0) std::fprintf(stderr, "!");
  }));

  out.push_back(Micro("normal_draw", 5000000, [] {
    eqimpact::rng::Random random(1);
    double sink = 0.0;
    for (int i = 0; i < 5000000; ++i) sink += random.Normal();
    if (sink > 1e18) std::fprintf(stderr, "!");
  }));

  out.push_back(Micro("normal_cdf", 5000000, [] {
    double sink = 0.0, x = -4.0;
    for (int i = 0; i < 5000000; ++i) {
      sink += eqimpact::rng::StandardNormalCdf(x);
      x += 1e-6;
    }
    if (sink < 0.0) std::fprintf(stderr, "!");
  }));

  out.push_back(Micro("logistic_irls_1k", 1000, [] {
    eqimpact::rng::Random random(7);
    eqimpact::ml::Dataset data(2);
    data.Reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      double adr = random.UniformDouble();
      double code = random.Bernoulli(0.5) ? 1.0 : 0.0;
      double p = eqimpact::ml::Sigmoid(-4.0 * adr + 3.0 * code);
      double row[2] = {adr, code};
      data.AddRow(row, random.Bernoulli(p) ? 1.0 : 0.0);
    }
    eqimpact::ml::LogisticRegression model;
    model.Fit(data);
  }));

  out.push_back(Micro("credit_loop_trial_1k", 1000 * 19, [] {
    eqimpact::credit::CreditLoopOptions options;
    options.num_users = 1000;
    options.seed = 3;
    eqimpact::credit::CreditScoringLoop loop(options);
    loop.Run();
  }));

  out.push_back(Micro("markov_chain_step", 5000000, [] {
    eqimpact::markov::MarkovChain chain(eqimpact::linalg::Matrix{
        {0.6, 0.3, 0.1}, {0.2, 0.5, 0.3}, {0.1, 0.2, 0.7}});
    eqimpact::rng::Random random(5);
    size_t s = 0;
    for (int i = 0; i < 5000000; ++i) s = chain.Step(s, &random);
    if (s > 3) std::fprintf(stderr, "!");
  }));

  out.push_back(Micro("stationary_dist_32", 32 * 32, [] {
    eqimpact::rng::Random random(9);
    eqimpact::linalg::Matrix p(32, 32);
    for (size_t r = 0; r < 32; ++r) {
      double total = 0.0;
      for (size_t c = 0; c < 32; ++c) {
        p(r, c) = random.UniformDouble(0.01, 1.0);
        total += p(r, c);
      }
      for (size_t c = 0; c < 32; ++c) p(r, c) /= total;
    }
    eqimpact::linalg::StationaryDistribution(p);
  }));

  out.push_back(Micro("jacobi_eigen_64", 64 * 64, [] {
    eqimpact::rng::Random random(15);
    eqimpact::linalg::Matrix a(64, 64);
    for (size_t r = 0; r < 64; ++r) {
      for (size_t c = r; c < 64; ++c) {
        a(r, c) = a(c, r) = random.UniformDouble(-1.0, 1.0);
      }
    }
    eqimpact::linalg::JacobiEigen(a);
  }));

  out.push_back(Micro("affine_ifs_step", 1000000, [] {
    eqimpact::markov::AffineIfs ifs(
        {eqimpact::markov::AffineMap::Scalar(0.5, 0.0),
         eqimpact::markov::AffineMap::Scalar(0.5, 1.0)},
        {0.5, 0.5});
    eqimpact::rng::Random random(11);
    eqimpact::linalg::Vector x{0.0};
    for (int i = 0; i < 1000000; ++i) x = ifs.Step(x, &random);
    if (x[0] > 1e9) std::fprintf(stderr, "!");
  }));

  out.push_back(Micro("ulam_build_solve_64", 64, [] {
    eqimpact::markov::AffineIfs ifs(
        {eqimpact::markov::AffineMap::Scalar(0.5, 0.0),
         eqimpact::markov::AffineMap::Scalar(0.5, 0.5)},
        {0.5, 0.5});
    eqimpact::markov::UlamApproximation ulam(ifs, 0.0, 1.0, 64);
    ulam.InvariantCellMeasure();
  }));

  out.push_back(Micro("synchronous_coupling", 100, [] {
    eqimpact::markov::AffineIfs ifs(
        {eqimpact::markov::AffineMap::Scalar(0.5, 0.0),
         eqimpact::markov::AffineMap::Scalar(0.5, 1.0)},
        {0.5, 0.5});
    eqimpact::rng::Random random(16);
    for (int i = 0; i < 100; ++i) {
      SynchronousCoupling(ifs, eqimpact::linalg::Vector{-10.0},
                          eqimpact::linalg::Vector{10.0}, 100, 1e-12,
                          &random);
    }
  }));

  out.push_back(Micro("matching_market_400", 400 * 200, [] {
    eqimpact::market::MatchingMarketOptions options;
    options.num_workers = 400;
    options.rounds = 200;
    options.seed = 17;
    RunMatchingMarket(eqimpact::market::MatchingRule::kEpsilonGreedy,
                      options);
  }));

  out.push_back(Micro("spectral_radius_64", 64 * 64, [] {
    eqimpact::rng::Random random(13);
    eqimpact::linalg::Matrix a(64, 64);
    for (size_t r = 0; r < 64; ++r) {
      for (size_t c = 0; c < 64; ++c) {
        a(r, c) = random.UniformDouble(-0.5, 0.5) / 64.0;
      }
    }
    eqimpact::linalg::SpectralRadius(a);
  }));

  return out;
}

struct ScalingPoint {
  size_t num_threads = 0;
  double seconds = 0.0;
  double items_per_sec = 0.0;
  double speedup = 1.0;
  uint64_t digest = 0;
};

/// Synthesizes a training set with the credit loop's feature geometry:
/// ADR values are rationals d/o with o in 1..19 (exact repeats, as the
/// accumulating filter produces), the income code is 0/1, and labels
/// follow a ground-truth logistic model. Deterministic in `seed`.
eqimpact::ml::Dataset SyntheticLoopHistory(size_t num_rows, uint64_t seed) {
  eqimpact::rng::Random random(seed);
  eqimpact::ml::Dataset data(2);
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
    const double repay_p =
        eqimpact::ml::Sigmoid(5.2 * code - 7.9 * adr + 0.8);
    const double row[2] = {adr, code};
    data.AddRow(row, random.Bernoulli(repay_p) ? 1.0 : 0.0);
  }
  return data;
}

uint64_t CoefficientDigest(const eqimpact::ml::LogisticRegression& model) {
  Fnv1a digest;
  for (size_t j = 0; j < model.weights().size(); ++j) {
    digest.MixDouble(model.weights()[j]);
  }
  digest.MixDouble(model.intercept());
  return digest.hash();
}

// --- simd_scaling helpers. -------------------------------------------------

struct SimdKernelPoint {
  std::string name;
  double scalar_seconds = 0.0;
  double simd_seconds = 0.0;
  bool matches = false;
};

struct SimdSection {
  size_t num_values = 0;
  bool vector_matches_scalar = true;
  uint64_t digest = 0;
  std::vector<SimdKernelPoint> kernels;
};

/// Times one kernel through its scalar reference and through the active
/// dispatch on identical inputs, checks the outputs bit for bit, and
/// mixes the scalar outputs into the section digest. `scalar_fn` and
/// `simd_fn` must each run `reps` passes filling `out_size` doubles of
/// their buffer; the recorded seconds are per pass.
SimdKernelPoint SimdKernel(const std::string& name, size_t out_size,
                           int reps,
                           const std::function<void(double*)>& scalar_fn,
                           const std::function<void(double*)>& simd_fn,
                           Fnv1a* digest) {
  std::vector<double> scalar_out(out_size, 0.0);
  std::vector<double> simd_out(out_size, 1.0);
  SimdKernelPoint point;
  point.name = name;
  point.scalar_seconds = TimeIt([&] { scalar_fn(scalar_out.data()); }) / reps;
  point.simd_seconds = TimeIt([&] { simd_fn(simd_out.data()); }) / reps;
  point.matches = std::memcmp(scalar_out.data(), simd_out.data(),
                              out_size * sizeof(double)) == 0;
  for (double value : scalar_out) digest->MixDouble(value);
  std::fprintf(stderr,
               "  simd %-18s scalar %.4fs  %s %.4fs  (%.2fx, %s)\n",
               name.c_str(), point.scalar_seconds,
               eqimpact::runtime::simd::BackendName(
                   eqimpact::runtime::simd::ActiveBackend()),
               point.simd_seconds,
               point.simd_seconds > 0.0
                   ? point.scalar_seconds / point.simd_seconds
                   : 0.0,
               point.matches ? "bitwise equal" : "MISMATCH");
  return point;
}

/// The simd_scaling section body: every kernel of the layer over the
/// same `num_values`-sized adversarial-free hot-path-like inputs,
/// repeated kReps times per timing sample.
SimdSection RunSimdSuite(size_t num_values) {
  namespace kernels = eqimpact::runtime::kernels;
  constexpr int kReps = 64;
  const size_t n = num_values;

  // Inputs with the credit hot path's shapes: positive incomes across
  // the bracket range, ADR-like fractions, logistic-scale predictors,
  // and weight arrays with a zero-denominator sprinkle.
  eqimpact::rng::Random random(2026);
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

  SimdSection section;
  section.num_values = n;
  Fnv1a digest;

  // Separate approval buffers per path: the bit-for-bit gate must cover
  // the approved[] outputs too, not only the code[] doubles SimdKernel
  // compares itself.
  std::vector<unsigned char> approved_scalar(n, 2);
  std::vector<unsigned char> approved_simd(n, 3);
  section.kernels.push_back(SimdKernel(
      "score_sweep", n, kReps,
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::ScoreSweepScalar(income.data(), adr.data(), n, params,
                                    out, approved_scalar.data());
        }
      },
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::ScoreSweep(income.data(), adr.data(), n, params, out,
                              approved_simd.data());
        }
      },
      &digest));
  section.kernels.back().matches =
      section.kernels.back().matches && approved_scalar == approved_simd;
  for (unsigned char approved : approved_scalar) digest.Mix(approved);

  section.kernels.push_back(SimdKernel(
      "income_code", n, kReps,
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::IncomeCodeScalar(income.data(), n, 15.0, out);
        }
      },
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::IncomeCode(income.data(), n, 15.0, out);
        }
      },
      &digest));

  section.kernels.push_back(SimdKernel(
      "surplus_share", n, kReps,
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::SurplusShareScalar(income.data(), n, 3.5, 10.0, 0.0216,
                                      out);
        }
      },
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::SurplusShare(income.data(), n, 3.5, 10.0, 0.0216, out);
        }
      },
      &digest));

  section.kernels.push_back(SimdKernel(
      "guarded_ratio", n, kReps,
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::GuardedRatioScalar(num.data(), den.data(), n, out);
        }
      },
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::GuardedRatio(num.data(), den.data(), n, out);
        }
      },
      &digest));

  // The sigmoid's exp is a scalar libm call on both paths (the bitwise
  // contract); only the select + divide vectorizes, so the speedup here
  // is honest but small.
  section.kernels.push_back(SimdKernel(
      "sigmoid_batch", n, kReps / 8,
      [&](double* out) {
        for (int r = 0; r < kReps / 8; ++r) {
          kernels::SigmoidBatchScalar(predictors.data(), n, out);
        }
      },
      [&](double* out) {
        for (int r = 0; r < kReps / 8; ++r) {
          kernels::SigmoidBatch(predictors.data(), n, out);
        }
      },
      &digest));

  section.kernels.push_back(SimdKernel(
      "linear_predictor2", n, kReps,
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::LinearPredictor2Scalar(rows.data(), n, -8.17, 5.77, 0.3,
                                          true, out);
        }
      },
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          kernels::LinearPredictor2(rows.data(), n, -8.17, 5.77, 0.3, true,
                                    out);
        }
      },
      &digest));

  // The PCG batch fill dispatches inside rng; the scalar side runs the
  // same call under the force-scalar toggle. Fresh generators per rep
  // keep both sides on the identical stream.
  section.kernels.push_back(SimdKernel(
      "fill_uniform", n, kReps,
      [&](double* out) {
        eqimpact::base::SetSimdForceScalarForTesting(true);
        for (int r = 0; r < kReps; ++r) {
          eqimpact::rng::Pcg32 gen(7, 11);
          gen.FillUniform(out, n);
        }
        eqimpact::base::SetSimdForceScalarForTesting(false);
      },
      [&](double* out) {
        for (int r = 0; r < kReps; ++r) {
          eqimpact::rng::Pcg32 gen(7, 11);
          gen.FillUniform(out, n);
        }
      },
      &digest));

  for (const SimdKernelPoint& point : section.kernels) {
    section.vector_matches_scalar =
        section.vector_matches_scalar && point.matches;
  }
  section.digest = digest.hash();
  return section;
}

// --- phi_scaling helpers. --------------------------------------------------

struct PhiSection {
  size_t num_values = 0;
  bool vector_matches_scalar = false;
  int64_t max_ulp_vs_libm = 0;
  int ulp_bound = eqimpact::base::phi::kMaxUlpVsLibm;
  double scalar_rate = 0.0;
  double vector_rate = 0.0;
  double libm_rate = 0.0;
  uint64_t digest = 0;
};

/// Ulp distance between two Phi outputs. Both values are in [0, 1], so
/// their bit patterns are non-negative and order-isomorphic; the
/// distance is the plain integer gap.
int64_t PhiUlpDistance(double a, double b) {
  int64_t ia = 0, ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return ia > ib ? ia - ib : ib - ia;
}

/// The phi_scaling section: NormalCdfBatch through its scalar reference
/// and the active vector backend on identical inputs — the trial's hot
/// range plus deep tails and the adversarial specials — gated bit for
/// bit, with the measured max ulp against libm's historical
/// 0.5 * erfc(-x / sqrt 2) reference checked against the documented
/// bound (base::phi::kMaxUlpVsLibm).
PhiSection RunPhiSuite(size_t num_values) {
  namespace kernels = eqimpact::runtime::kernels;
  namespace phi = eqimpact::base::phi;
  constexpr int kReps = 16;
  PhiSection section;

  std::vector<double> x(num_values);
  eqimpact::rng::Random random(2026);
  // 3/4 in the repayment hot range, 1/4 across the full clamp span.
  const size_t hot = num_values * 3 / 4;
  for (size_t i = 0; i < hot; ++i) x[i] = random.UniformDouble(-8.0, 8.0);
  for (size_t i = hot; i < num_values; ++i) {
    x[i] = random.UniformDouble(-phi::kClamp, phi::kClamp);
  }
  // Adversarial specials at the front: branch switch points, the clamp
  // edge, signed zero, infinities and a payloaded NaN (the bitwise gate
  // covers them; the ulp check skips non-finite and beyond-clamp).
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
  section.num_values = num_values;

  std::vector<double> scalar_out(num_values, 0.0);
  std::vector<double> vector_out(num_values, 1.0);
  const double scalar_seconds = TimeIt([&] {
    for (int r = 0; r < kReps; ++r) {
      kernels::NormalCdfBatchScalar(x.data(), num_values, scalar_out.data());
    }
  }) / kReps;
  const double vector_seconds = TimeIt([&] {
    for (int r = 0; r < kReps; ++r) {
      kernels::NormalCdfBatch(x.data(), num_values, vector_out.data());
    }
  }) / kReps;
  double libm_sink = 0.0;
  const double libm_seconds = TimeIt([&] {
    for (int r = 0; r < kReps; ++r) {
      for (size_t i = 0; i < num_values; ++i) {
        libm_sink += 0.5 * std::erfc(-x[i] / phi::kSqrt2);
      }
    }
  }) / kReps;
  if (libm_sink < 0.0) std::fprintf(stderr, "!");

  section.vector_matches_scalar =
      std::memcmp(scalar_out.data(), vector_out.data(),
                  num_values * sizeof(double)) == 0;
  for (size_t i = 0; i < num_values; ++i) {
    if (!(x[i] >= -phi::kClamp && x[i] <= phi::kClamp)) continue;
    const double libm = 0.5 * std::erfc(-x[i] / phi::kSqrt2);
    const int64_t ulp = PhiUlpDistance(scalar_out[i], libm);
    if (ulp > section.max_ulp_vs_libm) section.max_ulp_vs_libm = ulp;
  }
  section.scalar_rate =
      scalar_seconds > 0.0
          ? static_cast<double>(num_values) / scalar_seconds
          : 0.0;
  section.vector_rate =
      vector_seconds > 0.0
          ? static_cast<double>(num_values) / vector_seconds
          : 0.0;
  section.libm_rate =
      libm_seconds > 0.0 ? static_cast<double>(num_values) / libm_seconds
                         : 0.0;
  Fnv1a digest;
  for (double value : scalar_out) digest.MixDouble(value);
  section.digest = digest.hash();
  std::fprintf(stderr,
               "  phi_scaling scalar %.1fM/s  vector %.1fM/s  libm %.1fM/s "
               "(max ulp %" PRId64 " <= %d: %s, bitwise: %s)\n",
               section.scalar_rate / 1e6, section.vector_rate / 1e6,
               section.libm_rate / 1e6, section.max_ulp_vs_libm,
               section.ulp_bound,
               section.max_ulp_vs_libm <= section.ulp_bound ? "ok" : "FAIL",
               section.vector_matches_scalar ? "equal" : "MISMATCH");
  return section;
}

// --- fold_scaling helpers. -------------------------------------------------

struct FoldSection {
  size_t num_users = 0;
  size_t num_user_years = 0;
  bool dense_matches_hashed = false;
  double hashed_rate = 0.0;
  double dense_rate = 0.0;
  uint64_t digest = 0;
};

uint64_t FoldDigest(const eqimpact::credit::CreditLoopResult& result) {
  Fnv1a digest;
  digest.MixSeries(result.overall_adr);
  for (const auto& series : result.race_adr) digest.MixSeries(series);
  for (const auto& snapshot : result.scorecards) {
    digest.Mix(static_cast<uint64_t>(snapshot.year));
    digest.MixDouble(snapshot.history_weight);
    digest.MixDouble(snapshot.income_weight);
    digest.MixDouble(snapshot.intercept);
  }
  return digest.hash();
}

/// The fold_scaling section: the 1k-user closed-loop trial through the
/// hashed BinnedDataset fold and through the dense per-year
/// (ADR numerator, code) -> group table, with a digest equality gate
/// over the ADR series and fitted scorecards.
FoldSection RunFoldSuite() {
  constexpr size_t kUsers = 1000;
  constexpr int kReps = 24;
  FoldSection section;
  section.num_users = kUsers;

  eqimpact::credit::CreditLoopOptions options;
  options.num_users = kUsers;
  options.seed = 3;
  section.num_user_years = kUsers * (static_cast<size_t>(options.last_year -
                                                         options.first_year) +
                                     1);
  uint64_t digests[2] = {0, 0};
  double rates[2] = {0.0, 0.0};
  for (int dense = 0; dense < 2; ++dense) {
    options.dense_history_fold = dense != 0;
    eqimpact::credit::CreditScoringLoop(options).Run();  // Warm-up.
    const double seconds = TimeIt([&options] {
      for (int rep = 0; rep < kReps; ++rep) {
        eqimpact::credit::CreditScoringLoop(options).Run();
      }
    }) / kReps;
    digests[dense] =
        FoldDigest(eqimpact::credit::CreditScoringLoop(options).Run());
    rates[dense] =
        seconds > 0.0
            ? static_cast<double>(section.num_user_years) / seconds
            : 0.0;
  }
  section.hashed_rate = rates[0];
  section.dense_rate = rates[1];
  section.dense_matches_hashed = digests[0] == digests[1];
  section.digest = digests[1];
  std::fprintf(stderr,
               "  fold_scaling hashed %.2fM user-years/s  dense %.2fM "
               "(%.2fx, digests %s)\n",
               section.hashed_rate / 1e6, section.dense_rate / 1e6,
               section.hashed_rate > 0.0
                   ? section.dense_rate / section.hashed_rate
                   : 0.0,
               section.dense_matches_hashed ? "equal" : "MISMATCH");
  return section;
}

// --- serving_scaling helpers. ----------------------------------------------

struct ServingSection {
  size_t num_jobs = 0;      ///< Total submissions (both bursts).
  size_t num_distinct = 0;  ///< Distinct specs (first burst).
  size_t num_workers = 0;
  size_t num_connections = 0;
  size_t runs_started = 0;
  double wall_seconds = 0.0;
  double jobs_per_sec = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double cache_hit_rate = 0.0;
  bool served_digest_matches_cli = true;
  uint64_t digest = 0;
};

/// Twelve distinct small jobs across the three built-in scenarios.
/// Values chosen so every spec is distinct and every run is sub-second.
/// Shared by the serving burst suite and the connection-count sweep.
std::vector<eqimpact::serve::JobSpec> BuildServingJobs() {
  const struct {
    const char* scenario;
    const char* parameter;
    double values[4];
  } kGrid[] = {
      {"credit", "num_users", {150.0, 200.0, 250.0, 300.0}},
      {"market", "exploration", {0.05, 0.1, 0.2, 0.4}},
      {"ensemble", "gain", {0.02, 0.05, 0.1, 0.2}},
  };
  std::vector<eqimpact::serve::JobSpec> jobs;
  for (const auto& row : kGrid) {
    for (const double value : row.values) {
      eqimpact::serve::JobSpec job;
      job.scenario = row.scenario;
      job.num_trials = 2;
      job.assignments.emplace_back(row.parameter, value);
      jobs.push_back(job);
    }
  }
  return jobs;
}

/// The serving_scaling section: an in-process loopback server under a
/// concurrent mixed-scenario burst, the same burst repeated for cache
/// hits, and a direct-engine re-run of every distinct spec gating
/// digest AND payload byte-equality.
ServingSection RunServingSuite() {
  ServingSection section;

  const std::vector<eqimpact::serve::JobSpec> jobs = BuildServingJobs();
  section.num_distinct = jobs.size();
  section.num_jobs = 2 * jobs.size();
  constexpr size_t kConnections = 4;
  section.num_connections = kConnections;

  eqimpact::serve::ServerOptions server_options;
  server_options.service.scheduler.num_workers = 2;
  // Room for the whole burst: admission rejections are a correctness
  // feature, but this section measures throughput, not backpressure.
  server_options.service.scheduler.queue_capacity = section.num_jobs;
  section.num_workers = server_options.service.scheduler.num_workers;
  eqimpact::serve::Server server(server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "  serving_scaling: server failed to start\n");
    section.served_digest_matches_cli = false;
    return section;
  }

  // Two bursts with a barrier between them: the first runs every
  // distinct spec (all misses), the second resubmits them all (all
  // cache hits, bitwise-identical payloads) — so the hit rate is
  // deterministic at 0.5, not a race.
  std::vector<double> latencies_ms;
  std::vector<std::string> payloads(jobs.size());
  std::vector<uint64_t> digests(jobs.size(), 0);
  std::vector<std::string> repeat_payloads(jobs.size());
  std::mutex collect_mutex;
  bool transport_ok = true;
  const Clock::time_point burst_start = Clock::now();
  for (int burst = 0; burst < 2; ++burst) {
    std::vector<std::thread> submitters;
    for (size_t c = 0; c < kConnections; ++c) {
      submitters.emplace_back([&, c, burst] {
        eqimpact::serve::Client client;
        std::string error;
        if (!client.Connect(server.port(), &error)) {
          std::lock_guard<std::mutex> lock(collect_mutex);
          transport_ok = false;
          return;
        }
        for (size_t j = c; j < jobs.size(); j += kConnections) {
          eqimpact::serve::ClientEvent last;
          const Clock::time_point start = Clock::now();
          const bool ok = client.SubmitAndWait(
              eqimpact::serve::EncodeJobSpec(jobs[j]), &last, &error);
          const double latency_ms = SecondsSince(start) * 1e3;
          std::lock_guard<std::mutex> lock(collect_mutex);
          if (!ok) {
            transport_ok = false;
            continue;
          }
          latencies_ms.push_back(latency_ms);
          if (burst == 0) {
            payloads[j] = last.payload;
            digests[j] = last.digest;
          } else {
            repeat_payloads[j] = last.payload;
          }
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }
  section.wall_seconds = SecondsSince(burst_start);
  section.jobs_per_sec =
      section.wall_seconds > 0.0
          ? static_cast<double>(section.num_jobs) / section.wall_seconds
          : 0.0;
  section.runs_started = server.service().runs_started();
  const size_t hits = server.service().cache_hits();
  const size_t misses = server.service().cache_misses();
  section.cache_hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto percentile = [&latencies_ms](double p) {
    if (latencies_ms.empty()) return 0.0;
    const size_t index = static_cast<size_t>(
        p * static_cast<double>(latencies_ms.size() - 1) + 0.5);
    return latencies_ms[index];
  };
  section.p50_latency_ms = percentile(0.5);
  section.p95_latency_ms = percentile(0.95);
  server.Shutdown();

  // The hard gate: every distinct spec straight through the engine and
  // the shared renderer must reproduce the served digest and payload
  // byte for byte — and the cache-hit burst must have returned the
  // first burst's bytes unchanged.
  bool matches = transport_ok;
  eqimpact::base::Fnv1a digest;
  eqimpact::serve::JobRunOptions direct_run;
  direct_run.num_threads = 1;
  direct_run.provenance_json = eqimpact::serve::RenderProvenance(
      /*force_scalar=*/false, /*num_shards=*/0, /*checkpoint_path=*/"",
      /*resume=*/false, "\"served\": true");
  for (size_t j = 0; j < jobs.size(); ++j) {
    const eqimpact::serve::JobResult direct =
        eqimpact::serve::RunJobSpec(jobs[j], direct_run);
    if (digests[j] != direct.digest || payloads[j] != direct.payload ||
        repeat_payloads[j] != payloads[j]) {
      matches = false;
    }
    digest.Mix(direct.digest);
  }
  section.served_digest_matches_cli = matches;
  section.digest = digest.hash();
  std::fprintf(stderr,
               "  serving_scaling %zu jobs (%zu distinct) %.3fs "
               "(%.1f jobs/s, p50 %.1fms, p95 %.1fms, hit rate %.2f, "
               "digests %s)\n",
               section.num_jobs, section.num_distinct, section.wall_seconds,
               section.jobs_per_sec, section.p50_latency_ms,
               section.p95_latency_ms, section.cache_hit_rate,
               section.served_digest_matches_cli ? "equal" : "MISMATCH");
  return section;
}

/// One point of the serving connection-count sweep: `connections`
/// clients pipelining a fixed total of submissions, with every payload
/// byte-compared against the pre-warmed baseline (the per-point hard
/// gate).
struct ConnectionSweepPoint {
  size_t connections = 0;
  size_t num_jobs = 0;
  double wall_seconds = 0.0;
  double jobs_per_sec = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  bool payloads_match = true;
};

/// Cached-request p50 at one connection must stay below this. On
/// loopback a cached answer takes well under a millisecond; a write
/// stall such as Nagle's algorithm waiting on a delayed ACK costs
/// ~40 ms per request, so the gate fails the bench instead of letting
/// the stall become the headline.
constexpr double kCachedP50FloorMs = 10.0;

struct ConnectionSweepSection {
  std::vector<ConnectionSweepPoint> points;
  bool payloads_match = true;  ///< Fold over every point's gate.
  /// The 1-connection point's p50 is below kCachedP50FloorMs.
  bool cached_p50_within_floor = false;
};

/// The connection-count sweep: one server with the cache pre-warmed on
/// every distinct spec, then 1/4/16/64 connections splitting a fixed
/// number of pipelined submissions (window of 4 in flight per
/// connection). Cache hits by construction, so the sweep measures
/// transport cost — framing, wakeups, fan-in — not engine time.
ConnectionSweepSection RunConnectionSweep() {
  ConnectionSweepSection section;
  const std::vector<eqimpact::serve::JobSpec> jobs = BuildServingJobs();
  constexpr size_t kTotalJobs = 128;  // Per point; divisible by 64.
  constexpr size_t kWindow = 4;       // Outstanding per connection.
  constexpr size_t kCounts[] = {1, 4, 16, 64};

  eqimpact::serve::ServerOptions server_options;
  server_options.service.scheduler.num_workers = 2;
  server_options.service.scheduler.queue_capacity = jobs.size();
  eqimpact::serve::Server server(server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "  connection_sweep: server failed to start\n");
    section.payloads_match = false;
    return section;
  }

  // Pre-warm: every distinct spec runs once; the sweep's submissions
  // all answer from cache with these exact bytes.
  std::vector<std::string> baseline(jobs.size());
  bool warm_ok = true;
  {
    eqimpact::serve::Client client;
    std::string error;
    warm_ok = client.Connect(server.port(), &error);
    for (size_t j = 0; warm_ok && j < jobs.size(); ++j) {
      eqimpact::serve::ClientEvent last;
      warm_ok = client.SubmitAndWait(eqimpact::serve::EncodeJobSpec(jobs[j]),
                                     &last, &error);
      if (warm_ok) baseline[j] = last.payload;
    }
  }
  if (!warm_ok) {
    std::fprintf(stderr, "  connection_sweep: warm-up failed\n");
    section.payloads_match = false;
    server.Shutdown();
    return section;
  }

  for (size_t connections : kCounts) {
    ConnectionSweepPoint point;
    point.connections = connections;
    point.num_jobs = kTotalJobs;
    const size_t per_connection = kTotalJobs / connections;

    std::vector<double> latencies_ms;
    std::mutex collect_mutex;
    bool ok = true;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        eqimpact::serve::Client client;
        std::string error;
        if (!client.Connect(server.port(), &error)) {
          std::lock_guard<std::mutex> lock(collect_mutex);
          ok = false;
          return;
        }
        // Pipelined submission: keep up to kWindow requests in
        // flight, matching results back to their spec by id.
        struct Pending {
          size_t spec = 0;
          Clock::time_point sent;
        };
        std::map<std::string, Pending> inflight;
        std::vector<double> local_latencies;
        bool local_ok = true;
        size_t next = 0;
        size_t done = 0;
        while (done < per_connection && local_ok) {
          while (next < per_connection &&
                 inflight.size() < kWindow) {
            const size_t spec = (c + next) % jobs.size();
            eqimpact::serve::JobSpec request = jobs[spec];
            request.id = "c" + std::to_string(c) + "-" + std::to_string(next);
            Pending pending;
            pending.spec = spec;
            pending.sent = Clock::now();
            inflight.emplace(request.id, pending);
            if (!client.Send(eqimpact::serve::EncodeJobSpec(request))) {
              local_ok = false;
              break;
            }
            ++next;
          }
          eqimpact::serve::ClientEvent event;
          if (!client.ReadEvent(&event, &error)) {
            local_ok = false;
            break;
          }
          if (event.event != "result" && event.event != "error") {
            continue;
          }
          auto found = inflight.find(event.id);
          if (found == inflight.end() || event.event == "error" ||
              event.payload != baseline[found->second.spec]) {
            local_ok = false;
            break;
          }
          local_latencies.push_back(
              SecondsSince(found->second.sent) * 1e3);
          inflight.erase(found);
          ++done;
        }
        std::lock_guard<std::mutex> lock(collect_mutex);
        if (!local_ok) ok = false;
        latencies_ms.insert(latencies_ms.end(), local_latencies.begin(),
                            local_latencies.end());
      });
    }
    for (std::thread& client : clients) client.join();
    point.wall_seconds = SecondsSince(start);
    point.payloads_match =
        ok && latencies_ms.size() == kTotalJobs;
    point.jobs_per_sec =
        point.wall_seconds > 0.0
            ? static_cast<double>(kTotalJobs) / point.wall_seconds
            : 0.0;
    std::sort(latencies_ms.begin(), latencies_ms.end());
    auto percentile = [&latencies_ms](double p) {
      if (latencies_ms.empty()) return 0.0;
      const size_t index = static_cast<size_t>(
          p * static_cast<double>(latencies_ms.size() - 1) + 0.5);
      return latencies_ms[index];
    };
    point.p50_latency_ms = percentile(0.5);
    point.p95_latency_ms = percentile(0.95);
    if (connections == 1) {
      section.cached_p50_within_floor =
          point.payloads_match && point.p50_latency_ms < kCachedP50FloorMs;
    }
    section.payloads_match =
        section.payloads_match && point.payloads_match;
    std::fprintf(stderr,
                 "  connection_sweep conns=%zu %zu jobs %.3fs "
                 "(%.1f jobs/s, p50 %.2fms, p95 %.2fms, payloads %s)\n",
                 connections, kTotalJobs, point.wall_seconds,
                 point.jobs_per_sec, point.p50_latency_ms, point.p95_latency_ms,
                 point.payloads_match ? "equal" : "MISMATCH");
    section.points.push_back(point);
  }
  server.Shutdown();
  if (!section.cached_p50_within_floor) {
    std::fprintf(stderr, "  connection_sweep: cached p50 not below %.1f ms\n",
                 kCachedP50FloorMs);
  }
  return section;
}

std::vector<size_t> ThreadCounts(size_t max_threads) {
  // 1, 2, 4, ... up to max_threads (always including max_threads itself).
  std::vector<size_t> counts;
  for (size_t t = 1; t < max_threads; t *= 2) counts.push_back(t);
  counts.push_back(max_threads);
  return counts;
}

void PrintScalingRuns(const std::vector<ScalingPoint>& scaling,
                      const char* rate_key) {
  std::printf("    \"runs\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalingPoint& p = scaling[i];
    std::printf(
        "      {\"num_threads\": %zu, \"wall_seconds\": %.6f, "
        "\"%s\": %.3f, \"speedup\": %.3f}%s\n",
        p.num_threads, p.seconds, rate_key, p.items_per_sec, p.speedup,
        i + 1 < scaling.size() ? "," : "");
  }
  std::printf("    ]\n");
}

bool AllDigestsEqual(const std::vector<ScalingPoint>& scaling) {
  for (const ScalingPoint& point : scaling) {
    if (point.digest != scaling.front().digest) return false;
  }
  return true;
}

// --- markov_scaling helpers. ------------------------------------------------

struct MarkovPoint {
  size_t num_cells = 0;
  size_t nonzeros = 0;
  double build_seconds = 0.0;
  double matvec_seconds = 0.0;  // per adjoint matvec
  double matvec_entries_per_sec = 0.0;
  int solver_iterations = 0;
  double spectral_gap = 0.0;
  uint64_t measure_digest = 0;
};

struct MarkovSection {
  size_t max_cells = 0;
  bool sparse_matches_dense = true;
  bool deterministic_across_thread_counts = true;
  bool stationary_converged = true;
  uint64_t digest = 0;
  std::vector<MarkovPoint> runs;
};

uint64_t DigestVector(const eqimpact::linalg::Vector& v) {
  Fnv1a digest;
  for (size_t i = 0; i < v.size(); ++i) digest.MixDouble(v[i]);
  return digest.hash();
}

uint64_t DigestSparseMatrix(const eqimpact::linalg::SparseMatrix& m) {
  Fnv1a digest;
  for (size_t offset : m.row_offsets()) digest.Mix(offset);
  for (size_t col : m.col_indices()) digest.Mix(col);
  for (double value : m.values()) digest.MixDouble(value);
  return digest.hash();
}

/// The markov_scaling section: the sparse Ulam engine on the biased
/// binary IFS {x/2 w.p. 0.6, x/2 + 1/2 w.p. 0.4} — the (0.6, 0.4)
/// Bernoulli measure on [0, 1], non-uniform so the stationary solver
/// iterates for real — swept over cell counts up to `max_cells`. The
/// dense UlamApproximation matrix — still built by the O(n^2) oracle
/// path — is the equality reference at the sizes where it is
/// affordable.
MarkovSection RunMarkovSuite(size_t max_cells) {
  namespace linalg = eqimpact::linalg;
  namespace markov = eqimpact::markov;
  MarkovSection section;
  section.max_cells = max_cells;
  const markov::AffineIfs ifs({markov::AffineMap::Scalar(0.5, 0.0),
                               markov::AffineMap::Scalar(0.5, 0.5)},
                              {0.6, 0.4});
  constexpr size_t kDenseOracleLimit = 1000;
  constexpr size_t kThreadSweep[] = {1, 2, 8};
  constexpr unsigned kPropagateSteps = 5;

  std::vector<size_t> sizes;
  for (size_t n :
       {size_t{100}, size_t{1000}, size_t{10000}, size_t{100000}}) {
    if (n <= max_cells) sizes.push_back(n);
  }
  if (sizes.empty()) sizes.push_back(max_cells);

  Fnv1a section_digest;
  for (size_t n : sizes) {
    MarkovPoint point;
    point.num_cells = n;
    point.build_seconds = TimeIt([&ifs, n] {
      markov::SparseUlamOperator scratch(ifs, 0.0, 1.0, n);
      (void)scratch;
    });
    const markov::SparseUlamOperator op(ifs, 0.0, 1.0, n);
    point.nonzeros = op.transition().nonzeros();

    // A tilted (non-uniform) probability vector: uniform would be the
    // fixed point and make the Propagate comparison vacuous.
    linalg::Vector x(n);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<double>(i % 7 + 1);
      total += x[i];
    }
    x /= total;

    const size_t reps =
        std::max<size_t>(1, 4000000 / std::max<size_t>(point.nonzeros, 1));
    linalg::Vector y(n);
    const double reps_seconds = TimeIt([&op, &x, &y, reps] {
      for (size_t rep = 0; rep < reps; ++rep) y = op.adjoint().Multiply(x);
    });
    point.matvec_seconds = reps_seconds / static_cast<double>(reps);
    point.matvec_entries_per_sec =
        point.matvec_seconds > 0.0
            ? static_cast<double>(point.nonzeros) / point.matvec_seconds
            : 0.0;

    const linalg::SparseStationaryResult stationary = op.StationarySolve();
    if (!stationary.converged || !stationary.distribution.has_value()) {
      std::fprintf(stderr,
                   "  ERROR: markov stationary solve failed at %zu cells\n",
                   n);
      section.stationary_converged = false;
      section.runs.push_back(point);
      continue;
    }
    point.solver_iterations = stationary.iterations;
    const linalg::Vector& pi = *stationary.distribution;
    point.measure_digest = DigestVector(pi);
    point.spectral_gap =
        linalg::SparseSubdominantModulus(op.transition(), pi).spectral_gap;

    // Dense-oracle gate: entry-for-entry matrix equality and bitwise
    // Propagate equality against the dense Ulam path.
    if (n <= kDenseOracleLimit) {
      const markov::UlamApproximation dense(ifs, 0.0, 1.0, n);
      const linalg::Matrix& reference = dense.chain().transition();
      bool matches = true;
      for (size_t r = 0; r < n && matches; ++r) {
        for (size_t c = 0; c < n; ++c) {
          if (op.transition().At(r, c) != reference(r, c)) {
            matches = false;
            break;
          }
        }
      }
      const linalg::Vector sparse_step = op.Propagate(x, kPropagateSteps);
      const linalg::Vector dense_step =
          dense.chain().Propagate(x, kPropagateSteps);
      matches = matches && std::memcmp(sparse_step.data().data(),
                                       dense_step.data().data(),
                                       n * sizeof(double)) == 0;
      const std::optional<linalg::Vector> dense_pi =
          dense.chain().StationaryDistribution();
      if (dense_pi.has_value()) {
        for (size_t i = 0; i < n; ++i) {
          if (std::fabs(pi[i] - (*dense_pi)[i]) > 1e-9) matches = false;
        }
      } else {
        matches = false;
      }
      if (!matches) {
        std::fprintf(stderr,
                     "  ERROR: sparse Ulam diverged from the dense oracle "
                     "at %zu cells\n",
                     n);
        section.sparse_matches_dense = false;
      }
    }

    // Thread-invariance gate: build, matvec and stationary solve must
    // reproduce the serial digests bit for bit at every thread count. A
    // small chunk size forces multi-chunk dispatch even at 100 cells.
    const uint64_t build_reference = DigestSparseMatrix(op.transition());
    const uint64_t matvec_reference = DigestVector(y);
    for (size_t threads : kThreadSweep) {
      markov::SparseUlamOptions build_options;
      build_options.num_threads = threads;
      const markov::SparseUlamOperator rebuilt(ifs, 0.0, 1.0, n,
                                               build_options);
      linalg::SparseProductOptions product;
      product.num_threads = threads;
      product.chunk_size = 64;
      linalg::SparseSolverOptions solver;
      solver.product = product;
      const linalg::SparseStationaryResult rerun =
          rebuilt.StationarySolve(solver);
      const bool invariant =
          DigestSparseMatrix(rebuilt.transition()) == build_reference &&
          DigestVector(rebuilt.adjoint().Multiply(x, product)) ==
              matvec_reference &&
          rerun.distribution.has_value() &&
          DigestVector(*rerun.distribution) == point.measure_digest;
      if (!invariant) {
        std::fprintf(stderr,
                     "  ERROR: markov digests moved at %zu cells, "
                     "%zu threads\n",
                     n, threads);
        section.deterministic_across_thread_counts = false;
      }
    }

    section_digest.Mix(point.num_cells);
    section_digest.Mix(point.nonzeros);
    section_digest.Mix(point.measure_digest);
    std::fprintf(stderr,
                 "  markov cells=%zu nnz=%zu build %.4fs matvec %.1fM "
                 "entries/s solve %d iters gap %.4f\n",
                 n, point.nonzeros, point.build_seconds,
                 point.matvec_entries_per_sec / 1e6, point.solver_iterations,
                 point.spectral_gap);
    section.runs.push_back(point);
  }
  section.digest = section_digest.hash();
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  long num_trials = 32;
  long num_users = 200;
  long max_threads =
      static_cast<long>(eqimpact::runtime::ThreadPool::HardwareConcurrency());
  long within_users = 1000000;
  long fit_rows = 12000000;
  if (argc > 1) num_trials = std::atol(argv[1]);
  if (argc > 2) num_users = std::atol(argv[2]);
  // Optional override of the sweep ceiling (e.g. to demonstrate
  // oversubscription or to pin CI to a fixed thread count).
  if (argc > 3) max_threads = std::atol(argv[3]);
  // Cohort size of the within-trial section; 0 skips it.
  if (argc > 4) within_users = std::atol(argv[4]);
  // Accumulated-history size of the fit_scaling section; 0 skips it.
  if (argc > 5) fit_rows = std::atol(argv[5]);
  // Largest Ulam discretisation of the markov_scaling section; 0 skips it.
  long markov_cells = 100000;
  if (argc > 6) markov_cells = std::atol(argv[6]);
  if (num_trials <= 0 || num_users <= 0 || max_threads <= 0 ||
      within_users < 0 || fit_rows < 0 || markov_cells < 0) {
    std::fprintf(
        stderr,
        "usage: bench_perf [num_trials] [num_users] [max_threads] "
        "[within_users] [fit_rows] [markov_cells]\n"
        "       the first three must be positive; the rest >= 0\n");
    return 2;
  }
  const size_t hw = static_cast<size_t>(max_threads);
  const std::vector<size_t> thread_counts = ThreadCounts(hw);

  // --- Section 1: multi-trial scaling (trial-level parallelism). -------
  eqimpact::sim::MultiTrialOptions options;
  options.num_trials = static_cast<size_t>(num_trials);
  options.loop.num_users = static_cast<size_t>(num_users);
  options.master_seed = 42;
  // Raw series stay on for this small workload so the digest covers the
  // exact per-user trajectories in addition to the streaming aggregate.
  options.keep_raw_series = true;

  std::vector<ScalingPoint> scaling;
  double sequential_seconds = 0.0;
  for (size_t threads : thread_counts) {
    options.num_threads = threads;
    eqimpact::sim::MultiTrialResult result;
    ScalingPoint point;
    point.num_threads = threads;
    point.seconds =
        TimeIt([&options, &result] { result = RunMultiTrial(options); });
    point.items_per_sec = static_cast<double>(num_trials) / point.seconds;
    point.digest = Digest(result);
    if (threads == 1) sequential_seconds = point.seconds;
    point.speedup =
        point.seconds > 0.0 ? sequential_seconds / point.seconds : 0.0;
    scaling.push_back(point);
    std::fprintf(stderr,
                 "  multi_trial threads=%zu %.3fs (%.2f trials/s, %.2fx)\n",
                 threads, point.seconds, point.items_per_sec, point.speedup);
  }
  const bool multi_deterministic = AllDigestsEqual(scaling);

  // --- Section 2: within-trial scaling (chunk-level parallelism). ------
  // One large-cohort trial, per-user series disabled; the per-year
  // cross-sections stream into an accumulator. One rep per thread count
  // (the cohort is large enough to swamp timer noise).
  std::vector<ScalingPoint> within;
  bool within_deterministic = true;
  size_t within_years = 0;
  if (within_users > 0) {
    eqimpact::credit::CreditLoopOptions loop_options;
    loop_options.num_users = static_cast<size_t>(within_users);
    loop_options.seed = 42;
    loop_options.keep_user_adr = false;
    within_years = static_cast<size_t>(loop_options.last_year -
                                       loop_options.first_year) +
                   1;
    const double user_years = static_cast<double>(within_users) *
                              static_cast<double>(within_years);
    double within_sequential = 0.0;
    for (size_t threads : thread_counts) {
      loop_options.num_threads = threads;
      eqimpact::credit::CreditScoringLoop loop(loop_options);
      eqimpact::stats::AdrAccumulator adr(eqimpact::credit::kNumRaces,
                                          within_years, 64);
      Clock::time_point start = Clock::now();
      eqimpact::credit::CreditLoopResult result = loop.Run(
          [&adr](const eqimpact::credit::YearSnapshot& snapshot) {
            adr.AddCrossSection(snapshot.step, snapshot.user_adr,
                                snapshot.race_ids);
          });
      ScalingPoint point;
      point.num_threads = threads;
      point.seconds = SecondsSince(start);
      point.items_per_sec = user_years / point.seconds;
      point.digest = Digest(result, adr);
      if (threads == 1) within_sequential = point.seconds;
      point.speedup =
          point.seconds > 0.0 ? within_sequential / point.seconds : 0.0;
      within.push_back(point);
      std::fprintf(
          stderr,
          "  within_trial threads=%zu %.3fs (%.0f user-years/s, %.2fx)\n",
          threads, point.seconds, point.items_per_sec, point.speedup);
      if (result.user_adr.empty() == false) {
        std::fprintf(stderr, "  ERROR: streaming run materialized series\n");
        return 2;
      }
    }
    within_deterministic = AllDigestsEqual(within);
  }
  // Sampled before fit_scaling materializes its raw baseline dataset, so
  // this reflects the streaming trial alone (getrusage peaks are
  // process-wide high-water marks).
  const double within_peak_rss = PeakRssMb();

  // --- Section 2b: shard scaling (population sharding). ----------------
  // The same within-trial workload, one thread, swept over shard counts:
  // sharding regroups execution (contiguous chunk ranges, shard-order
  // merge) and must never move a bit. A fourth leg checkpoints the
  // 4-shard trial mid-run and resumes it 2-sharded; the digest must
  // still match. Runs before fit_scaling allocates, so the per-shard
  // RSS high-water marks reflect the streaming trial alone.
  struct ShardPoint {
    size_t num_shards = 0;
    double seconds = 0.0;
    double items_per_sec = 0.0;
    double speedup = 1.0;
    uint64_t digest = 0;
    double peak_rss_mb = 0.0;
  };
  std::vector<ShardPoint> shard_runs;
  bool shard_matches_unsharded = true;
  bool shard_deterministic = true;
  bool checkpoint_resume_matches = true;
  if (within_users > 0) {
    eqimpact::credit::CreditLoopOptions loop_options;
    loop_options.num_users = static_cast<size_t>(within_users);
    loop_options.seed = 42;
    loop_options.keep_user_adr = false;
    loop_options.num_threads = 1;
    const double user_years = static_cast<double>(within_users) *
                              static_cast<double>(within_years);
    // Runs the trial streaming into `adr` (pre-seeded on the resume leg
    // with the checkpointed partial accumulator, mirroring the
    // experiment driver) and returns the digest over result + adr.
    auto run_digest = [&](const eqimpact::credit::CreditLoopOptions& options,
                          eqimpact::stats::AdrAccumulator* adr,
                          double* seconds) {
      eqimpact::credit::CreditScoringLoop loop(options);
      Clock::time_point start = Clock::now();
      eqimpact::credit::CreditLoopResult result = loop.Run(
          [adr](const eqimpact::credit::YearSnapshot& snapshot) {
            adr->AddCrossSection(snapshot.step, snapshot.user_adr,
                                 snapshot.race_ids);
          });
      if (seconds != nullptr) *seconds = SecondsSince(start);
      return Digest(result, *adr);
    };
    double shard_sequential = 0.0;
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      loop_options.num_shards = shards;
      ShardPoint point;
      point.num_shards = shards;
      eqimpact::stats::AdrAccumulator adr(eqimpact::credit::kNumRaces,
                                          within_years, 64);
      point.digest = run_digest(loop_options, &adr, &point.seconds);
      point.items_per_sec = user_years / point.seconds;
      point.peak_rss_mb = PeakRssMb();
      if (shards == 1) shard_sequential = point.seconds;
      point.speedup =
          point.seconds > 0.0 ? shard_sequential / point.seconds : 0.0;
      shard_runs.push_back(point);
      std::fprintf(
          stderr,
          "  shard_scaling shards=%zu %.3fs (%.0f user-years/s, rss %.1f "
          "MB)\n",
          shards, point.seconds, point.items_per_sec, point.peak_rss_mb);
    }
    for (const ShardPoint& point : shard_runs) {
      if (point.digest != shard_runs.front().digest) {
        shard_deterministic = false;
      }
    }
    // The unsharded reference: the within-trial section already ran this
    // exact workload unsharded at every thread count.
    if (!within.empty() && shard_runs.front().digest != within.front().digest) {
      shard_matches_unsharded = false;
    }
    if (!shard_deterministic) shard_matches_unsharded = false;

    // Checkpoint leg: capture the 4-shard trial's engine snapshot AND
    // the partial accumulator at mid-run (the same pair the experiment
    // driver persists), then resume 2-sharded — the snapshot format is
    // shard-agnostic (no RNG cursors, no shard state), so the digest
    // must not move.
    std::vector<uint8_t> mid_blob;
    std::vector<uint8_t> mid_adr_blob;
    const size_t capture_year = (within_years + 1) / 2;
    eqimpact::stats::AdrAccumulator ck_adr(eqimpact::credit::kNumRaces,
                                           within_years, 64);
    loop_options.num_shards = 4;
    loop_options.checkpoint_sink =
        [&mid_blob, &mid_adr_blob, &ck_adr, capture_year](
            size_t years_completed, const std::vector<uint8_t>& state) {
          if (years_completed != capture_year) return;
          mid_blob = state;
          eqimpact::base::BinaryWriter writer;
          ck_adr.Serialize(&writer);
          mid_adr_blob = writer.TakeBuffer();
        };
    const uint64_t checkpointed_digest =
        run_digest(loop_options, &ck_adr, nullptr);
    eqimpact::stats::AdrAccumulator resumed_adr(eqimpact::credit::kNumRaces,
                                                within_years, 64);
    eqimpact::base::BinaryReader reader(mid_adr_blob.data(),
                                        mid_adr_blob.size());
    const bool adr_restored = resumed_adr.Deserialize(&reader);
    loop_options.checkpoint_sink = nullptr;
    loop_options.num_shards = 2;
    loop_options.resume_state = &mid_blob;
    const uint64_t resumed_digest =
        run_digest(loop_options, &resumed_adr, nullptr);
    checkpoint_resume_matches =
        !mid_blob.empty() && adr_restored &&
        checkpointed_digest == shard_runs.front().digest &&
        resumed_digest == shard_runs.front().digest;
    std::fprintf(stderr,
                 "  shard_scaling checkpoint@year%zu resume 4->2 shards: %s\n",
                 capture_year,
                 checkpoint_resume_matches ? "digest equal" : "MISMATCH");
  }

  // --- Section 3: fit scaling (sufficient-statistics refit). -----------
  // The PR 2 baseline refit the scorecard by raw-row IRLS over the
  // accumulated history; here the same history collapses into weighted
  // (ADR, code) groups and the grouped fit sweeps thread counts. Thread
  // counts 2..8 are swept even on 1-core machines (oversubscribed): the
  // timing is then meaningless but the coefficient digest still proves
  // the ordered reduction's thread-count invariance.
  std::vector<ScalingPoint> fit_runs;
  bool fit_deterministic = true;
  size_t fit_groups = 0;
  int raw_fit_iterations = 0;
  double raw_fit_seconds = 0.0;
  double binned_build_seconds = 0.0;
  if (fit_rows > 0) {
    eqimpact::ml::Dataset raw =
        SyntheticLoopHistory(static_cast<size_t>(fit_rows), 2024);
    eqimpact::ml::LogisticRegressionOptions fit_options;
    raw_fit_seconds = TimeIt([&raw, &fit_options, &raw_fit_iterations] {
      eqimpact::ml::LogisticRegression model(fit_options);
      raw_fit_iterations = model.Fit(raw).iterations;
    });
    std::fprintf(stderr, "  fit_scaling raw %.3fs (%d iterations)\n",
                 raw_fit_seconds, raw_fit_iterations);

    eqimpact::ml::BinnedDataset binned(1);  // Replaced by the build below.
    binned_build_seconds = TimeIt([&raw, &binned] {
      binned = eqimpact::ml::BinnedDataset::FromDataset(raw);
    });
    fit_groups = binned.num_groups();
    std::fprintf(stderr, "  fit_scaling build %.3fs (%zu groups)\n",
                 binned_build_seconds, fit_groups);

    std::vector<size_t> fit_threads{1, 2, 4, 8};
    if (hw > 8) fit_threads.push_back(hw);
    // A chunk size far below the group count (a few hundred groups)
    // makes the sweep genuinely fan out: every multi-thread point runs a
    // real multi-chunk ordered reduction, so equal digests actually
    // prove the thread-count invariance.
    fit_options.rows_per_chunk = 8;
    double fit_sequential = 0.0;
    for (size_t threads : fit_threads) {
      fit_options.num_threads = threads;
      // One grouped fit is microseconds; time a batch of cold refits.
      constexpr int kReps = 2000;
      eqimpact::ml::LogisticRegression model(fit_options);
      ScalingPoint point;
      point.num_threads = threads;
      point.seconds = TimeIt([&binned, &fit_options] {
        for (int rep = 0; rep < kReps; ++rep) {
          eqimpact::ml::LogisticRegression cold(fit_options);
          cold.Fit(binned);
        }
      }) / kReps;
      model.Fit(binned);
      point.digest = CoefficientDigest(model);
      point.items_per_sec =
          point.seconds > 0.0 ? 1.0 / point.seconds : 0.0;
      if (threads == 1) fit_sequential = point.seconds;
      point.speedup =
          point.seconds > 0.0 ? fit_sequential / point.seconds : 0.0;
      fit_runs.push_back(point);
      std::fprintf(stderr,
                   "  fit_scaling threads=%zu %.6fs/fit (%.0f fits/s)\n",
                   threads, point.seconds, point.items_per_sec);
    }
    fit_deterministic = AllDigestsEqual(fit_runs);
  }

  // --- Section 4: market scaling (scenario API, trial parallelism). ----
  // The matching-market scenario through the generic experiment driver:
  // the trial-level parallelism (and determinism contract) the market
  // gained with the scenario API.
  constexpr size_t kMarketWorkers = 200;
  constexpr size_t kMarketRounds = 200;
  std::vector<ScalingPoint> market_runs;
  double market_sequential = 0.0;
  for (size_t threads : thread_counts) {
    eqimpact::sim::MatchingMarketScenarioOptions scenario_options;
    scenario_options.market.num_workers = kMarketWorkers;
    scenario_options.market.rounds = kMarketRounds;
    eqimpact::sim::MatchingMarketScenario scenario(scenario_options);
    eqimpact::sim::ExperimentOptions experiment_options;
    experiment_options.num_trials = static_cast<size_t>(num_trials);
    experiment_options.master_seed = 42;
    experiment_options.num_threads = threads;
    eqimpact::sim::ExperimentResult market_result;
    ScalingPoint point;
    point.num_threads = threads;
    point.seconds = TimeIt([&scenario, &experiment_options, &market_result] {
      market_result =
          eqimpact::sim::RunExperiment(&scenario, experiment_options);
    });
    point.items_per_sec = static_cast<double>(num_trials) / point.seconds;
    point.digest = eqimpact::sim::ExperimentDigest(market_result);
    if (threads == 1) market_sequential = point.seconds;
    point.speedup =
        point.seconds > 0.0 ? market_sequential / point.seconds : 0.0;
    market_runs.push_back(point);
    std::fprintf(stderr,
                 "  market threads=%zu %.3fs (%.2f trials/s, %.2fx)\n",
                 threads, point.seconds, point.items_per_sec, point.speedup);
  }
  const bool market_deterministic = AllDigestsEqual(market_runs);

  // --- Section 5: simd scaling (kernel layer scalar vs vector). --------
  const SimdSection simd_section = RunSimdSuite(1 << 16);

  // --- Section 6: phi + fold scaling (the PR 6 hot paths). -------------
  const PhiSection phi_section = RunPhiSuite(1 << 18);
  const FoldSection fold_section = RunFoldSuite();

  // --- Section 7: serving scaling (the experiment service, PR 8), ------
  // plus the connection-count sweep with per-point byte-equality gates
  // and the cached-latency floor.
  const ServingSection serving_section = RunServingSuite();
  const ConnectionSweepSection connection_sweep = RunConnectionSweep();

  // --- Section 8: markov scaling (the sparse Ulam engine, PR 9). -------
  MarkovSection markov_section;
  if (markov_cells > 0) {
    markov_section = RunMarkovSuite(static_cast<size_t>(markov_cells));
  }
  const bool markov_ok = markov_section.sparse_matches_dense &&
                         markov_section.deterministic_across_thread_counts &&
                         markov_section.stationary_converged;

  std::vector<MicroResult> micro = RunMicroSuite();

  const bool deterministic =
      multi_deterministic && within_deterministic && fit_deterministic &&
      market_deterministic && simd_section.vector_matches_scalar &&
      phi_section.vector_matches_scalar &&
      phi_section.max_ulp_vs_libm <= phi_section.ulp_bound &&
      fold_section.dense_matches_hashed && shard_matches_unsharded &&
      shard_deterministic && checkpoint_resume_matches &&
      serving_section.served_digest_matches_cli &&
      connection_sweep.payloads_match &&
      connection_sweep.cached_p50_within_floor && markov_ok;

  // Emit the JSON document on stdout.
  std::printf("{\n");
  std::printf("  \"benchmark\": \"bench_perf\",\n");
  std::printf("  \"hardware_concurrency\": %zu,\n",
              eqimpact::runtime::ThreadPool::HardwareConcurrency());
  std::printf("  \"max_threads_swept\": %zu,\n", hw);
  std::printf("  \"multi_trial_scaling\": {\n");
  std::printf("    \"num_trials\": %ld,\n", num_trials);
  std::printf("    \"num_users\": %ld,\n", num_users);
  std::printf("    \"deterministic_across_thread_counts\": %s,\n",
              multi_deterministic ? "true" : "false");
  std::printf("    \"digest\": \"%016" PRIx64 "\",\n",
              scaling.front().digest);
  PrintScalingRuns(scaling, "trials_per_sec");
  std::printf("  },\n");
  if (!within.empty()) {
    std::printf("  \"within_trial_scaling\": {\n");
    std::printf("    \"num_users\": %ld,\n", within_users);
    std::printf("    \"num_years\": %zu,\n", within_years);
    std::printf("    \"streaming\": true,\n");
    std::printf("    \"deterministic_across_thread_counts\": %s,\n",
                within_deterministic ? "true" : "false");
    std::printf("    \"digest\": \"%016" PRIx64 "\",\n",
                within.front().digest);
    std::printf("    \"peak_rss_mb\": %.1f,\n", within_peak_rss);
    PrintScalingRuns(within, "user_years_per_sec");
    std::printf("  },\n");
  }
  if (!shard_runs.empty()) {
    std::printf("  \"shard_scaling\": {\n");
    std::printf("    \"num_users\": %ld,\n", within_users);
    std::printf("    \"num_years\": %zu,\n", within_years);
    std::printf("    \"num_threads\": 1,\n");
    std::printf("    \"sharded_matches_unsharded\": %s,\n",
                shard_matches_unsharded ? "true" : "false");
    std::printf("    \"deterministic_across_shard_counts\": %s,\n",
                shard_deterministic ? "true" : "false");
    std::printf("    \"checkpoint_resume_matches\": %s,\n",
                checkpoint_resume_matches ? "true" : "false");
    std::printf("    \"digest\": \"%016" PRIx64 "\",\n",
                shard_runs.front().digest);
    std::printf("    \"runs\": [\n");
    for (size_t i = 0; i < shard_runs.size(); ++i) {
      const ShardPoint& p = shard_runs[i];
      // peak_rss_mb is the process high-water mark *after* this run —
      // monotone across runs by construction (getrusage semantics);
      // flat values across shard counts are the expected good outcome.
      std::printf(
          "      {\"num_shards\": %zu, \"wall_seconds\": %.6f, "
          "\"user_years_per_sec\": %.3f, \"speedup\": %.3f, "
          "\"peak_rss_mb\": %.1f}%s\n",
          p.num_shards, p.seconds, p.items_per_sec, p.speedup, p.peak_rss_mb,
          i + 1 < shard_runs.size() ? "," : "");
    }
    std::printf("    ]\n");
    std::printf("  },\n");
  }
  if (!fit_runs.empty()) {
    const double binned_fit_seconds = fit_runs.front().seconds;
    std::printf("  \"fit_scaling\": {\n");
    std::printf("    \"num_rows\": %ld,\n", fit_rows);
    std::printf("    \"num_groups\": %zu,\n", fit_groups);
    std::printf("    \"raw_fit_seconds\": %.6f,\n", raw_fit_seconds);
    std::printf("    \"raw_fit_iterations\": %d,\n", raw_fit_iterations);
    std::printf("    \"raw_rows_per_sec\": %.1f,\n",
                raw_fit_seconds > 0.0
                    ? static_cast<double>(fit_rows) / raw_fit_seconds
                    : 0.0);
    std::printf("    \"binned_build_seconds\": %.6f,\n",
                binned_build_seconds);
    std::printf("    \"binned_fit_seconds\": %.6f,\n", binned_fit_seconds);
    std::printf("    \"speedup_vs_raw\": %.1f,\n",
                binned_fit_seconds > 0.0
                    ? raw_fit_seconds / binned_fit_seconds
                    : 0.0);
    std::printf("    \"speedup_vs_raw_including_build\": %.1f,\n",
                binned_build_seconds + binned_fit_seconds > 0.0
                    ? raw_fit_seconds /
                          (binned_build_seconds + binned_fit_seconds)
                    : 0.0);
    std::printf("    \"deterministic_across_thread_counts\": %s,\n",
                fit_deterministic ? "true" : "false");
    std::printf("    \"digest\": \"%016" PRIx64 "\",\n",
                fit_runs.front().digest);
    PrintScalingRuns(fit_runs, "fits_per_sec");
    std::printf("  },\n");
  }
  std::printf("  \"market_scaling\": {\n");
  std::printf("    \"num_trials\": %ld,\n", num_trials);
  std::printf("    \"num_workers\": %zu,\n", kMarketWorkers);
  std::printf("    \"num_rounds\": %zu,\n", kMarketRounds);
  std::printf("    \"deterministic_across_thread_counts\": %s,\n",
              market_deterministic ? "true" : "false");
  std::printf("    \"digest\": \"%016" PRIx64 "\",\n",
              market_runs.front().digest);
  PrintScalingRuns(market_runs, "trials_per_sec");
  std::printf("  },\n");
  {
    namespace simd = eqimpact::runtime::simd;
    const simd::Backend active = simd::ActiveBackend();
    std::printf("  \"simd_scaling\": {\n");
    std::printf("    \"compiled_backend\": \"%s\",\n",
                simd::BackendName(simd::CompiledBackend()));
    std::printf("    \"active_backend\": \"%s\",\n",
                simd::BackendName(active));
    std::printf("    \"lanes\": %zu,\n", simd::LaneWidth(active));
    std::printf("    \"num_values\": %zu,\n", simd_section.num_values);
    std::printf("    \"vector_matches_scalar\": %s,\n",
                simd_section.vector_matches_scalar ? "true" : "false");
    std::printf("    \"digest\": \"%016" PRIx64 "\",\n",
                simd_section.digest);
    std::printf("    \"kernels\": [\n");
    for (size_t i = 0; i < simd_section.kernels.size(); ++i) {
      const SimdKernelPoint& point = simd_section.kernels[i];
      const double scalar_rate =
          point.scalar_seconds > 0.0
              ? static_cast<double>(simd_section.num_values) /
                    point.scalar_seconds
              : 0.0;
      const double simd_rate =
          point.simd_seconds > 0.0
              ? static_cast<double>(simd_section.num_values) /
                    point.simd_seconds
              : 0.0;
      std::printf(
          "      {\"name\": \"%s\", \"scalar_elems_per_sec\": %.1f, "
          "\"simd_elems_per_sec\": %.1f, \"speedup\": %.3f}%s\n",
          point.name.c_str(), scalar_rate, simd_rate,
          point.simd_seconds > 0.0
              ? point.scalar_seconds / point.simd_seconds
              : 0.0,
          i + 1 < simd_section.kernels.size() ? "," : "");
    }
    std::printf("    ]\n");
    std::printf("  },\n");
  }
  std::printf("  \"phi_scaling\": {\n");
  std::printf("    \"num_values\": %zu,\n", phi_section.num_values);
  std::printf("    \"vector_matches_scalar\": %s,\n",
              phi_section.vector_matches_scalar ? "true" : "false");
  std::printf("    \"max_ulp_vs_libm\": %" PRId64 ",\n",
              phi_section.max_ulp_vs_libm);
  std::printf("    \"ulp_bound\": %d,\n", phi_section.ulp_bound);
  std::printf("    \"scalar_elems_per_sec\": %.1f,\n",
              phi_section.scalar_rate);
  std::printf("    \"vector_elems_per_sec\": %.1f,\n",
              phi_section.vector_rate);
  std::printf("    \"libm_elems_per_sec\": %.1f,\n", phi_section.libm_rate);
  std::printf("    \"digest\": \"%016" PRIx64 "\"\n", phi_section.digest);
  std::printf("  },\n");
  std::printf("  \"fold_scaling\": {\n");
  std::printf("    \"num_users\": %zu,\n", fold_section.num_users);
  std::printf("    \"num_user_years\": %zu,\n", fold_section.num_user_years);
  std::printf("    \"dense_matches_hashed\": %s,\n",
              fold_section.dense_matches_hashed ? "true" : "false");
  std::printf("    \"hashed_user_years_per_sec\": %.1f,\n",
              fold_section.hashed_rate);
  std::printf("    \"dense_user_years_per_sec\": %.1f,\n",
              fold_section.dense_rate);
  std::printf("    \"digest\": \"%016" PRIx64 "\"\n", fold_section.digest);
  std::printf("  },\n");
  std::printf("  \"serving_scaling\": {\n");
  std::printf("    \"num_jobs\": %zu,\n", serving_section.num_jobs);
  std::printf("    \"num_distinct\": %zu,\n", serving_section.num_distinct);
  std::printf("    \"num_workers\": %zu,\n", serving_section.num_workers);
  std::printf("    \"num_connections\": %zu,\n",
              serving_section.num_connections);
  std::printf("    \"served_digest_matches_cli\": %s,\n",
              serving_section.served_digest_matches_cli ? "true" : "false");
  std::printf("    \"runs_started\": %zu,\n", serving_section.runs_started);
  std::printf("    \"cache_hit_rate\": %.3f,\n",
              serving_section.cache_hit_rate);
  std::printf("    \"wall_seconds\": %.6f,\n", serving_section.wall_seconds);
  std::printf("    \"jobs_per_sec\": %.3f,\n", serving_section.jobs_per_sec);
  std::printf("    \"p50_latency_ms\": %.3f,\n",
              serving_section.p50_latency_ms);
  std::printf("    \"p95_latency_ms\": %.3f,\n",
              serving_section.p95_latency_ms);
  // The connection-sweep fields are additive so the section's digest
  // comparability (num_jobs/num_distinct keyed) is untouched by them.
  std::printf("    \"connection_sweep\": [\n");
  for (size_t i = 0; i < connection_sweep.points.size(); ++i) {
    const ConnectionSweepPoint& p = connection_sweep.points[i];
    std::printf(
        "      {\"connections\": %zu, "
        "\"num_jobs\": %zu, \"wall_seconds\": %.6f, "
        "\"jobs_per_sec\": %.3f, \"p50_latency_ms\": %.3f, "
        "\"p95_latency_ms\": %.3f, \"payloads_match\": %s}%s\n",
        p.connections, p.num_jobs, p.wall_seconds, p.jobs_per_sec,
        p.p50_latency_ms, p.p95_latency_ms, p.payloads_match ? "true" : "false",
        i + 1 < connection_sweep.points.size() ? "," : "");
  }
  std::printf("    ],\n");
  std::printf("    \"connection_sweep_payloads_match\": %s,\n",
              connection_sweep.payloads_match ? "true" : "false");
  std::printf("    \"cached_p50_floor_ms\": %.1f,\n", kCachedP50FloorMs);
  std::printf("    \"cached_p50_within_floor\": %s,\n",
              connection_sweep.cached_p50_within_floor ? "true" : "false");
  std::printf("    \"digest\": \"%016" PRIx64 "\"\n",
              serving_section.digest);
  std::printf("  },\n");
  if (!markov_section.runs.empty()) {
    std::printf("  \"markov_scaling\": {\n");
    std::printf("    \"max_cells\": %zu,\n", markov_section.max_cells);
    std::printf("    \"num_maps\": 2,\n");
    std::printf("    \"sparse_matches_dense\": %s,\n",
                markov_section.sparse_matches_dense ? "true" : "false");
    std::printf(
        "    \"deterministic_across_thread_counts\": %s,\n",
        markov_section.deterministic_across_thread_counts ? "true" : "false");
    std::printf("    \"stationary_converged\": %s,\n",
                markov_section.stationary_converged ? "true" : "false");
    std::printf("    \"digest\": \"%016" PRIx64 "\",\n",
                markov_section.digest);
    std::printf("    \"runs\": [\n");
    for (size_t i = 0; i < markov_section.runs.size(); ++i) {
      const MarkovPoint& p = markov_section.runs[i];
      std::printf(
          "      {\"num_cells\": %zu, \"nonzeros\": %zu, "
          "\"build_seconds\": %.6f, \"matvec_entries_per_sec\": %.1f, "
          "\"solver_iterations\": %d, \"spectral_gap\": %.6f, "
          "\"measure_digest\": \"%016" PRIx64 "\"}%s\n",
          p.num_cells, p.nonzeros, p.build_seconds,
          p.matvec_entries_per_sec, p.solver_iterations, p.spectral_gap,
          p.measure_digest,
          i + 1 < markov_section.runs.size() ? "," : "");
    }
    std::printf("    ]\n");
    std::printf("  },\n");
  }
  std::printf("  \"micro\": [\n");
  for (size_t i = 0; i < micro.size(); ++i) {
    std::printf(
        "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
        "\"items_per_sec\": %.1f}%s\n",
        micro[i].name.c_str(), micro[i].seconds, micro[i].items_per_sec,
        i + 1 < micro.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return deterministic ? 0 : 1;
}
