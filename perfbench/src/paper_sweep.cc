// paper_sweep: the paper's parameter studies at its own scale, N = 1000.
//
// Why this workload: every trial fits in one chunk, so chunk parallelism
// and SIMD width barely matter. The work is per-trial fixed cost, sweep
// dispatch across grid points, the market and ensemble engines, and the
// hashed ml fold (credit points with forgetting_factor < 1), which uses
// the credit and ml layers differently from credit_cohort. Each round
// runs the three grids at nproc point threads; after the window every
// grid is cross-checked against a one-point-thread run.
//
// User operation: one round, the three grid sweeps back to back. (The
// points' own latencies mix three grids of very different sizes, so their
// median jumps between modes; the traced run reports them.)

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ml/binned_dataset.h"
#include "rng/random.h"
#include "runtime/seed_sequence.h"
#include "sim/experiment.h"
#include "sim/scenario_registry.h"
#include "sim/sweep.h"
#include "stats/adr_accumulator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace eqimpact;

constexpr size_t kTrialsPerPoint = 3;
constexpr double kPaperUsers = 1000;
constexpr size_t kYears = 19;
/// Set-up (grid validation) takes microseconds.
constexpr size_t kSetupRepeats = 3;
constexpr size_t kSetupBatch = 1000;

struct Grid {
  const char* scenario;
  /// Set on every point: the paper's N = 1000 for the scenario's unit.
  std::vector<std::pair<const char*, double>> base;
  std::vector<sim::SweepParameter> axes;
};

const std::vector<Grid>& Grids() {
  static const std::vector<Grid> grids = {
      {"credit",
       {},  // The credit default is already N = 1000 users.
       {{"forgetting_factor", {0.8, 0.9, 0.95, 1.0}},
        {"cutoff", {0.3, 0.4, 0.5}}}},
      {"market",
       {{"num_workers", kPaperUsers}},
       {{"equalizer_strength", {0.0, 0.5, 1.0, 2.0}}}},
      {"ensemble",
       {{"num_agents", kPaperUsers}},
       {{"gain", {0.02, 0.05, 0.1, 0.2}}, {"controller", {0.0, 1.0}}}},
  };
  return grids;
}

std::unique_ptr<sim::Scenario> MakeScenario(const Grid& grid) {
  std::unique_ptr<sim::Scenario> scenario =
      sim::CreateScenario(grid.scenario);
  for (const auto& assignment : grid.base) {
    if (!scenario->SetParameter(assignment.first, assignment.second)) {
      return nullptr;
    }
  }
  return scenario;
}

size_t NumPoints(const Grid& grid) {
  size_t points = 1;
  for (const sim::SweepParameter& axis : grid.axes) {
    points *= axis.values.size();
  }
  return points;
}

// Start of the grid point running on this thread: RunSweep calls the
// factory on the worker that then runs the point and reports it.
thread_local double point_start = 0.0;

struct GridRun {
  uint64_t digest = 0;
  double wall = 0.0;
  std::vector<double> point_seconds;
};

GridRun RunGrid(const Grid& grid, uint64_t seed, size_t point_threads,
                uint64_t request, SpanRecorder* recorder) {
  sim::SweepOptions options;
  options.experiment.num_trials = kTrialsPerPoint;
  options.experiment.master_seed = seed;
  options.parameters = grid.axes;
  options.num_point_threads = point_threads;
  GridRun run;
  std::mutex mutex;
  const uint64_t grid_span =
      recorder->Begin(std::string("sim.sweep_") + grid.scenario, request);
  options.on_point_complete = [&](size_t, const sim::SweepPoint&, size_t,
                                  size_t) {
    const double now = NowSeconds();
    std::lock_guard<std::mutex> lock(mutex);
    run.point_seconds.push_back(now - point_start);
    recorder->Record("sim.point", point_start, now, grid_span, request);
  };
  const double start = NowSeconds();
  const sim::SweepResult result = sim::RunSweep(
      [&grid] {
        point_start = NowSeconds();
        return MakeScenario(grid);
      },
      options);
  run.wall = NowSeconds() - start;
  recorder->End(grid_span);
  run.digest = sim::SweepDigest(result);
  return run;
}

// One trial through Scenario::RunTrial, set up as RunExperiment sets it.
double TrialMs(sim::Scenario* scenario, uint64_t seed, const char* span_name,
               SpanRecorder* recorder) {
  scenario->BeginExperiment(1);
  sim::TrialContext context;
  context.trial_seed = runtime::SeedSequence(seed).Seed(0);
  context.num_threads = 1;
  return MedianSeconds(5, [&] {
           stats::AdrAccumulator impacts(
               scenario->GroupLabels().size(), scenario->StepLabels().size(),
               sim::ExperimentOptions().impact_bins, scenario->impact_lo(),
               scenario->impact_hi());
           ScopedSpan span(recorder, span_name);
           scenario->RunTrial(context, &impacts);
         }) *
         1e3;
}

void ReplayTrials(const RunConfig& config, SpanRecorder* recorder,
                  Report* report) {
  const std::vector<Grid>& grids = Grids();
  std::unique_ptr<sim::Scenario> dense = MakeScenario(grids[0]);
  std::unique_ptr<sim::Scenario> hashed = MakeScenario(grids[0]);
  std::unique_ptr<sim::Scenario> market = MakeScenario(grids[1]);
  std::unique_ptr<sim::Scenario> ensemble = MakeScenario(grids[2]);
  report->Count(dense && hashed && market && ensemble &&
                    hashed->SetParameter("forgetting_factor", 0.9),
                "trial replay scenarios unavailable");
  if (!(dense && hashed && market && ensemble)) return;
  report->Set("credit.trial_dense_ms",
              TrialMs(dense.get(), config.seed, "credit.trial_dense", recorder),
              "ms");
  report->Set("credit.trial_hashed_ms",
              TrialMs(hashed.get(), config.seed, "credit.trial_hashed",
                      recorder),
              "ms");
  report->Set("market.trial_ms",
              TrialMs(market.get(), config.seed, "market.trial", recorder),
              "ms");
  report->Set("ensemble.trial_ms",
              TrialMs(ensemble.get(), config.seed, "ensemble.trial", recorder),
              "ms");
}

// The hashed history fold of a forgetting-factor point: BinnedDataset
// AddRow with 2^-16 ADR bins over one trial's rows (1000 users x 19
// years of continuous EWMA ADRs).
void ReplayGroupFold(const RunConfig& config, SpanRecorder* recorder,
                     Report* report) {
  const size_t users = static_cast<size_t>(kPaperUsers);
  std::vector<double> rows;
  rows.reserve(users * kYears * 2);
  std::vector<double> labels;
  rng::Random random(rng::DeriveSeed(config.seed, 9));
  std::vector<double> adr(users, 0.0);
  for (size_t year = 0; year < kYears; ++year) {
    for (size_t u = 0; u < users; ++u) {
      const double defaulted = random.Bernoulli(0.3) ? 1.0 : 0.0;
      adr[u] = 0.9 * adr[u] + 0.1 * defaulted;
      rows.push_back(adr[u]);
      rows.push_back(random.Bernoulli(0.6) ? 1.0 : 0.0);
      labels.push_back(defaulted);
    }
  }
  ml::BinnedDatasetOptions options;
  options.bin_widths = {std::ldexp(1.0, -16), 0.0};
  size_t groups = 0;
  const double seconds = MedianSeconds(7, [&] {
    ScopedSpan span(recorder, "ml.group_fold");
    ml::BinnedDataset history(2, options);
    for (size_t i = 0; i < labels.size(); ++i) {
      history.AddRow(&rows[2 * i], labels[i]);
    }
    groups = history.num_groups();
  });
  report->Count(groups > 0, "group fold produced no groups");
  report->Set("ml.group_fold_ns", seconds * 1e9 / labels.size(), "ns");
}

}  // namespace

void RunPaperSweep(const RunConfig& config, SpanRecorder* recorder,
                   Report* report) {
  const std::vector<Grid>& grids = Grids();
  // Set-up validates every grid the way the service validates a served
  // sweep before admitting it: a probe scenario per grid, with a dry run
  // of every axis value.
  const auto validate_all = [&grids] {
    bool ok = true;
    for (const Grid& grid : grids) {
      std::unique_ptr<sim::Scenario> probe = MakeScenario(grid);
      if (probe == nullptr) return false;
      for (const sim::SweepParameter& axis : grid.axes) {
        for (double value : axis.values) {
          ok = ok && probe->SetParameter(axis.name, value);
        }
      }
    }
    return ok;
  };
  report->Count(validate_all(), "grid scenarios unavailable");
  std::vector<double> setups;
  SampleSetup(kSetupRepeats, kSetupBatch, validate_all, &setups);

  size_t trials_per_round = 0;
  for (const Grid& grid : grids) {
    trials_per_round += NumPoints(grid) * kTrialsPerPoint;
  }
  std::vector<uint64_t> digests(grids.size(), 0);
  std::vector<double> skews, untraced_walls, traced_walls;
  const double start = NowSeconds();
  uint64_t request = 0;
  do {
    // Traced runs alternate untraced and traced rounds of the same grids.
    for (bool traced : {false, true}) {
      if (traced && !config.trace) break;
      SpanRecorder off(false);
      SpanRecorder* spans = traced ? recorder : &off;
      double wall = 0.0;
      std::vector<double> round_points;
      for (size_t g = 0; g < grids.size(); ++g) {
        const GridRun run =
            RunGrid(grids[g], config.seed, config.nproc, ++request, spans);
        if (digests[g] == 0) digests[g] = run.digest;
        report->Count(run.digest == digests[g],
                      std::string(grids[g].scenario) +
                          " sweep digest changed between rounds");
        wall += run.wall;
        round_points.insert(round_points.end(), run.point_seconds.begin(),
                            run.point_seconds.end());
      }
      (traced ? traced_walls : untraced_walls).push_back(wall);
      SampleSetup(1, kSetupBatch, validate_all, &setups);
      if (traced) {
        skews.push_back(*std::max_element(round_points.begin(),
                                          round_points.end()) /
                        Median(round_points));
      }
    }
  } while (NowSeconds() - start < config.seconds);

  // The determinism gate: every grid equals its one-point-thread run.
  SpanRecorder off(false);
  for (size_t g = 0; g < grids.size(); ++g) {
    const uint64_t sequential = RunGrid(grids[g], config.seed, 1, 0, &off).digest;
    char what[128];
    std::snprintf(what, sizeof(what),
                  "%s sweep digest %016" PRIx64
                  " differs from the 1-point-thread run's %016" PRIx64,
                  grids[g].scenario, digests[g], sequential);
    report->Count(digests[g] == sequential, what);
  }

  report->Set("setup_s", Median(setups), "s");
  if (!config.trace) {
    const double round = Median(untraced_walls);
    report->Set("rate_per_s", trials_per_round / round, "1/s");
    report->Set("trials_per_s", trials_per_round / round, "1/s");
    report->Set("op_p50_ms", round * 1e3, "ms");
    return;
  }

  for (const Grid& grid : grids) {
    const std::string name = std::string("sim.sweep_") + grid.scenario;
    report->Set(name + "_s", Median(recorder->DurationsMs(name)) / 1e3, "s");
  }
  report->Set("sim.point_ms", Median(recorder->DurationsMs("sim.point")),
              "ms");
  report->Set("sim.point_skew", Median(skews), "ratio");
  report->Set("trace.overhead_share",
              OverheadShare(Median(traced_walls), Median(untraced_walls)),
              "ratio");
  report->Set("sim.scenario_create_us", MedianSeconds(31, [&] {
                ScopedSpan span(recorder, "sim.scenario_create");
                sim::CreateScenario("credit");
              }) * 1e6,
              "us");
  ReplayTrials(config, recorder, report);
  ReplayGroupFold(config, recorder, report);
}

}  // namespace perfbench
