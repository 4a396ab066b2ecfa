// credit_cohort: the paper's credit loop at population scale.
//
// Why this workload: a 10^6-user cohort over the paper's 19 years puts
// the rng fill, the runtime SIMD kernels, the credit engine and the dense
// ml refit fold on the critical path, and the serial stats cross-section
// sets the thread-scaling ceiling. serve, linalg and markov stay idle.
// Each round runs the same two trials at nproc within-trial threads and
// then at one thread, which both measures scaling and cross-checks
// determinism.
//
// User operation: one trial (10^6 users x 19 years) at nproc threads.

#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "credit/credit_loop.h"
#include "ml/binned_dataset.h"
#include "ml/logistic_regression.h"
#include "rng/random.h"
#include "runtime/kernels.h"
#include "runtime/parallel_for.h"
#include "runtime/seed_sequence.h"
#include "runtime/thread_pool.h"
#include "sim/credit_scenario.h"
#include "sim/experiment.h"
#include "sim/scenario_registry.h"
#include "stats/adr_accumulator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace eqimpact;

constexpr double kUsers = 1e6;
constexpr size_t kTrials = 2;
constexpr size_t kYears = 19;  // 2002-2020, the scenario default.
constexpr double kUserYearsPerTrial = kUsers * kYears;
constexpr size_t kChunk = 4096;  // CreditLoopOptions::users_per_chunk.
/// Set-up (scenario + pool start) takes tens of microseconds.
constexpr size_t kSetupRepeats = 3;
constexpr size_t kSetupBatch = 10;
/// ExperimentDigest of the round's two trials at kDefaultSeed.
constexpr uint64_t kPinnedDigest = 0xa33465f2bb208bfeULL;

std::unique_ptr<sim::Scenario> MakeCohort() {
  std::unique_ptr<sim::Scenario> scenario = sim::CreateScenario("credit");
  if (!scenario || !scenario->SetParameter("num_users", kUsers)) return nullptr;
  return scenario;
}

struct CohortRun {
  sim::ExperimentResult result;
  double wall = 0.0;
  std::vector<double> trial_seconds;
};

CohortRun RunCohort(sim::Scenario* cohort, uint64_t seed, size_t threads) {
  // Hand freed memory back first, so the process peak is one experiment's
  // working set rather than whatever the allocator kept from earlier ones.
  malloc_trim(0);
  sim::ExperimentOptions options;
  options.num_trials = kTrials;
  options.master_seed = seed;
  options.num_threads = 1;  // Sequential trials, parallel within.
  options.trial_threads = threads;
  CohortRun run;
  double last = NowSeconds();
  options.on_trial_complete = [&](size_t, const sim::TrialOutcome&, size_t,
                                  size_t) {
    const double now = NowSeconds();
    run.trial_seconds.push_back(now - last);
    last = now;
  };
  const double start = NowSeconds();
  last = start;
  run.result = sim::RunExperiment(cohort, options);
  run.wall = NowSeconds() - start;
  return run;
}

bool SameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double))) {
      return false;
    }
  }
  return true;
}

// One trial through credit::CreditScoringLoop::Run(observer), set up
// exactly as sim::CreditScenario::RunTrial sets it up, with the engine
// segments between observer calls and the observer itself as spans.
std::vector<std::vector<double>> TracedTrial(const sim::CreditScenario& cohort,
                                             uint64_t seed, size_t trial,
                                             size_t threads,
                                             runtime::ThreadPool* pool,
                                             const std::string& suffix,
                                             SpanRecorder* recorder) {
  credit::CreditLoopOptions options = cohort.options().loop;
  options.seed = runtime::SeedSequence(seed).Seed(trial);
  options.keep_user_adr = cohort.options().keep_raw_series;
  options.num_threads = threads;
  options.pool = pool;
  stats::AdrAccumulator impacts(cohort.GroupLabels().size(),
                                cohort.StepLabels().size(),
                                sim::ExperimentOptions().impact_bins,
                                cohort.impact_lo(), cohort.impact_hi());
  const uint64_t trial_span = recorder->Begin("credit.trial" + suffix, trial);
  double segment_start = NowSeconds();
  credit::CreditScoringLoop loop(options);
  credit::CreditLoopResult record =
      loop.Run([&](const credit::YearSnapshot& snapshot) {
        recorder->Record("credit.year" + suffix, segment_start, NowSeconds(),
                         trial_span, trial);
        {
          ScopedSpan span(recorder, "stats.cross_section" + suffix, trial);
          impacts.AddCrossSection(snapshot.step, snapshot.user_adr,
                                  snapshot.race_ids);
        }
        segment_start = NowSeconds();
      });
  recorder->Record("credit.finish" + suffix, segment_start, NowSeconds(),
                   trial_span, trial);
  recorder->End(trial_span);
  return record.race_adr;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

// Times `kernel` over the cohort-sized arrays and checks its output
// against `reference` bit for bit. Reports ns per value and the computed
// bytes moved per value.
template <typename Kernel, typename Reference>
void ReplayKernel(const std::string& name, double bytes_per_value,
                  const Kernel& kernel, const Reference& reference,
                  SpanRecorder* recorder, Report* report) {
  const double seconds = MedianSeconds(5, [&] {
    ScopedSpan span(recorder, "kernel." + name);
    kernel();
  });
  report->Count(reference(), name + " differs from its scalar reference");
  report->Set(name + "_ns", seconds * 1e9 / kUsers, "ns");
  report->Set(name + "_bytes", bytes_per_value, "B");
}

void ReplayKernels(const RunConfig& config, SpanRecorder* recorder,
                   Report* report) {
  namespace k = runtime::kernels;
  const size_t n = static_cast<size_t>(kUsers);
  std::vector<double> uniforms(n), income(n), adr(n), out(n), expect(n);
  std::vector<double> code(n), expect_code(n);
  std::vector<unsigned char> approved(n), expect_approved(n);
  const uint64_t stream = rng::DeriveSeed(config.seed, 7);

  ReplayKernel(
      "rng.fill_uniform", 8.0,
      [&] { rng::Random(stream).FillUniformDouble(uniforms.data(), n); },
      [&] {
        // The batch fill's head against the sequential stream.
        rng::Random sequential(stream);
        for (size_t i = 0; i < 4096; ++i) {
          if (uniforms[i] != sequential.UniformDouble()) return false;
        }
        return true;
      },
      recorder, report);
  rng::Random draws(rng::DeriveSeed(config.seed, 8));
  for (size_t i = 0; i < n; ++i) {
    income[i] = 5.0 + 60.0 * uniforms[i];
    adr[i] = draws.UniformDouble();
  }
  const auto same = [](const std::vector<double>& a,
                       const std::vector<double>& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };

  for (size_t i = 0; i < n; ++i) out[i] = 6.0 * uniforms[i] - 3.0;
  std::vector<double> x = out;
  ReplayKernel(
      "runtime.normal_cdf", 16.0, [&] { k::NormalCdfBatch(x.data(), n, out.data()); },
      [&] {
        k::NormalCdfBatchScalar(x.data(), n, expect.data());
        return same(out, expect);
      },
      recorder, report);

  for (size_t i = 0; i < n; ++i) x[i] = adr[i] - 0.1;  // Some den <= 0.
  ReplayKernel(
      "runtime.guarded_ratio", 24.0,
      [&] { k::GuardedRatio(uniforms.data(), x.data(), n, out.data()); },
      [&] {
        k::GuardedRatioScalar(uniforms.data(), x.data(), n, expect.data());
        return same(out, expect);
      },
      recorder, report);

  k::ScoreParams params;
  params.code_threshold = 15.0;
  params.adr_weight = -8.17;
  params.code_weight = 5.77;
  params.cutoff = 0.4;
  ReplayKernel(
      "runtime.score_sweep", 25.0,
      [&] {
        k::ScoreSweep(income.data(), adr.data(), n, params, code.data(),
                      approved.data());
      },
      [&] {
        k::ScoreSweepScalar(income.data(), adr.data(), n, params,
                            expect_code.data(), expect_approved.data());
        return same(code, expect_code) && approved == expect_approved;
      },
      recorder, report);

  ReplayKernel(
      "runtime.income_code", 16.0,
      [&] { k::IncomeCode(income.data(), n, 15.0, code.data()); },
      [&] {
        k::IncomeCodeScalar(income.data(), n, 15.0, expect_code.data());
        return same(code, expect_code);
      },
      recorder, report);
}

// The yearly scorecard refit: LogisticRegression::Fit on a BinnedDataset
// with the cohort's group count. Under the accumulating filter every ADR
// is a rational d/o with o <= 19, so the history collapses to the
// distinct (d/o, income code) pairs.
void ReplayRefit(SpanRecorder* recorder, Report* report) {
  ml::BinnedDataset history(2);
  for (size_t o = 1; o <= kYears; ++o) {
    for (size_t d = 0; d <= o; ++d) {
      for (double income_code : {0.0, 1.0}) {
        const double row[2] = {static_cast<double>(d) / o, income_code};
        const double p =
            ml::Sigmoid(-0.5 + 2.5 * row[0] - 1.5 * income_code);
        history.AddRow(row, 1.0, 100.0 * p);
        history.AddRow(row, 0.0, 100.0 * (1.0 - p));
      }
    }
  }
  ml::LogisticRegression reference;
  const ml::FitResult fit = reference.Fit(history);
  bool repeatable = fit.success && fit.converged;
  const double seconds = MedianSeconds(21, [&] {
    ScopedSpan span(recorder, "ml.refit");
    ml::LogisticRegression model;
    model.Fit(history);
    repeatable = repeatable && model.weights()[0] == reference.weights()[0] &&
                 model.weights()[1] == reference.weights()[1];
  });
  report->Count(repeatable, "refit did not converge to the same weights");
  report->Set("ml.refit_us", seconds * 1e6, "us");
}

// An empty ParallelForChunks over the cohort's chunks: the per-pass
// dispatch cost the engine pays twice a year.
void ReplayDispatch(size_t threads, SpanRecorder* recorder, Report* report) {
  const size_t n = static_cast<size_t>(kUsers);
  runtime::ThreadPool pool(threads);
  runtime::ParallelForOptions options;
  options.pool = &pool;
  const double seconds = MedianSeconds(201, [&] {
    runtime::ParallelForChunks(
        n, kChunk, [](size_t, size_t, size_t) {}, options);
  });
  {
    ScopedSpan span(recorder, "runtime.dispatch");
    runtime::ParallelForChunks(
        n, kChunk, [](size_t, size_t, size_t) {}, options);
  }
  report->Set("runtime.dispatch_us", seconds * 1e6, "us");
  report->Set("runtime.dispatch_chunks",
              static_cast<double>(runtime::NumChunks(n, kChunk)), "count");
}

void CheckDigests(const RunConfig& config, const CohortRun& wide,
                  const CohortRun& narrow, Report* report) {
  const uint64_t digest = sim::ExperimentDigest(wide.result);
  report->Count(digest == sim::ExperimentDigest(narrow.result),
                "1-thread digest differs from the nproc-thread digest");
  if (config.seed == kDefaultSeed) {
    char what[96];
    std::snprintf(what, sizeof(what),
                  "digest %016" PRIx64 " is not the pinned %016" PRIx64,
                  digest, kPinnedDigest);
    report->Count(digest == kPinnedDigest, what);
  }
}

}  // namespace

void RunCreditCohort(const RunConfig& config, SpanRecorder* recorder,
                     Report* report) {
  const size_t threads = config.nproc;
  const auto setup = [threads] {
    std::unique_ptr<sim::Scenario> cohort = MakeCohort();
    runtime::ThreadPool pool(threads);
  };
  std::vector<double> setups;
  SampleSetup(kSetupRepeats, kSetupBatch, setup, &setups);
  std::unique_ptr<sim::Scenario> cohort = MakeCohort();
  const auto* credit = dynamic_cast<const sim::CreditScenario*>(cohort.get());
  if (credit == nullptr) {
    report->Count(false, "credit scenario unavailable");
    return;
  }

  std::vector<double> trial_s, trial_s_1t, untraced_walls, traced_walls;
  std::unique_ptr<runtime::ThreadPool> pool;
  if (config.trace && threads > 1) pool.reset(new runtime::ThreadPool(threads));
  const double start = NowSeconds();
  do {
    CohortRun wide = RunCohort(cohort.get(), config.seed, threads);
    SampleSetup(kSetupRepeats, kSetupBatch, setup, &setups);
    if (!config.trace) {
      CohortRun narrow = RunCohort(cohort.get(), config.seed, 1);
      CheckDigests(config, wide, narrow, report);
      trial_s.insert(trial_s.end(), wide.trial_seconds.begin(),
                     wide.trial_seconds.end());
      trial_s_1t.insert(trial_s_1t.end(), narrow.trial_seconds.begin(),
                        narrow.trial_seconds.end());
      continue;
    }
    untraced_walls.push_back(wide.wall);
    const double traced_start = NowSeconds();
    for (size_t t = 0; t < kTrials; ++t) {
      report->Count(SameBits(TracedTrial(*credit, config.seed, t, threads,
                                         pool.get(), "", recorder),
                             wide.result.trials[t].group_impact),
                    "traced trial differs from RunExperiment's");
    }
    traced_walls.push_back(NowSeconds() - traced_start);
    for (size_t t = 0; t < kTrials; ++t) {
      report->Count(SameBits(TracedTrial(*credit, config.seed, t, 1, nullptr,
                                         "_1t", recorder),
                             wide.result.trials[t].group_impact),
                    "1-thread traced trial differs from RunExperiment's");
    }
  } while (NowSeconds() - start < config.seconds);

  report->Set("setup_s", Median(setups), "s");
  if (!config.trace) {
    const double trial = Median(trial_s);
    report->Set("rate_per_s", kUserYearsPerTrial / trial, "1/s");
    report->Set("op_p50_ms", trial * 1e3, "ms");
    report->Set("user_years_per_s", kUserYearsPerTrial / trial, "1/s");
    report->Set("user_years_per_s_1t", kUserYearsPerTrial / Median(trial_s_1t),
                "1/s");
    return;
  }

  const std::vector<double> trials = recorder->DurationsMs("credit.trial");
  const std::vector<double> trials_1t =
      recorder->DurationsMs("credit.trial_1t");
  const std::vector<double> cross =
      recorder->DurationsMs("stats.cross_section");
  report->Set("credit.year_ms", Median(recorder->DurationsMs("credit.year")),
              "ms");
  report->Set("credit.year_ms_1t",
              Median(recorder->DurationsMs("credit.year_1t")), "ms");
  report->Set("stats.cross_section_ms", Median(cross), "ms");
  report->Set("credit.serial_share", Sum(cross) / Sum(trials), "ratio");
  report->Set("credit.speedup", Median(trials_1t) / Median(trials), "ratio");
  report->Set("trace.overhead_share",
              OverheadShare(Median(traced_walls), Median(untraced_walls)),
              "ratio");

  ReplayDispatch(threads, recorder, report);
  ReplayKernels(config, recorder, report);
  ReplayRefit(recorder, report);
}

}  // namespace perfbench
