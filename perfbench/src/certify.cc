// certify: the paper's stationary-measure certificate for every
// registered scenario, as `run_experiment --certify --cells=2000` does it.
//
// Why this workload: it is the simulation-free path to equal impact, and
// the only one that exercises linalg, markov and graph. The sparse
// stationary solve dominates it; the Ulam builds take milliseconds. Its
// inputs are the scenarios' closed-form surrogates, so they are fixed:
// the seed changes nothing and every measure digest is pinned.
//
// How it runs: in rounds of nproc passes side by side, one per thread, as
// that many users running `run_experiment --certify` at once. Each pass is
// single-threaded, as the CLI's is by default. On a shared host one
// core's speed steps between levels about 40% apart every few seconds,
// independently of the other cores, so the median of a single pass stream
// jumped with whichever level its core happened to hold (a 25% spread
// over ten runs); a round's mean pass time averages every core. 2000
// cells make a pass about 0.7 s, so a run times some thirty rounds, and
// keep the solver's working set (about 0.2 MB) well inside a core's L2.
//
// User operation: one certify pass (all certificates, rendered), timed as
// the mean over a round.

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "base/fnv1a.h"
#include "linalg/sparse_eigen.h"
#include "markov/sparse_ulam.h"
#include "sim/certify.h"
#include "sim/scenario_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace eqimpact;

constexpr size_t kCells = 2000;
/// Matvecs timed per scenario for the memory-bound inner loop rate.
constexpr size_t kMatvecs = 200;
/// Set-up (scenarios and their surrogates) takes microseconds.
constexpr size_t kSetupRepeats = 3;
constexpr size_t kSetupBatch = 1000;

/// measure_digest of each scenario's certificate at kCells cells.
const std::map<std::string, uint64_t>& PinnedDigests() {
  static const std::map<std::string, uint64_t> digests = {
      {"credit", 0x409d3d530380ad94ULL},
      {"ensemble", 0x7edb25a770d7c491ULL},
      {"market", 0x7edb25a770d7c491ULL},
  };
  return digests;
}

sim::ScenarioCertifyOptions Options() {
  sim::ScenarioCertifyOptions options;
  options.spectral.num_cells = kCells;
  return options;
}

void CheckCertificate(const sim::ScenarioCertificate& certificate,
                      Report* report) {
  const auto pinned = PinnedDigests().find(certificate.scenario);
  char what[160];
  std::snprintf(what, sizeof(what),
                "%s certificate: certified=%d digest %016" PRIx64
                " (pinned %016" PRIx64 ")",
                certificate.scenario.c_str(), certificate.spectral.certified,
                certificate.spectral.measure_digest,
                pinned == PinnedDigests().end() ? 0 : pinned->second);
  report->Count(pinned != PinnedDigests().end() &&
                    certificate.spectral.certified &&
                    certificate.spectral.measure_digest == pinned->second,
                what);
}

struct ReplayTotals {
  double ulam_build_ms = 0.0;
  double terminal_classes_ms = 0.0;
  double stationary_ms = 0.0;
  double subdominant_ms = 0.0;
  double iterations = 0.0;
  double matvec_seconds = 0.0;
  double matvec_entries = 0.0;
  double matvec_bytes = 0.0;  // Summed over operators, one matvec each.
  size_t matvec_operators = 0;
  double wall = 0.0;  // Without the extra matvec timing.
};

// CertifyIfsSpectral's calls for one scenario, one span each. Returns
// false when the replayed measure differs from the certificate's.
bool ReplayScenario(const std::string& name,
                    const sim::ScenarioCertifyOptions& options,
                    SpanRecorder* recorder, ReplayTotals* totals) {
  const core::SpectralCertificateOptions& spectral = options.spectral;
  std::unique_ptr<sim::Scenario> scenario = sim::CreateScenario(name);
  const std::optional<sim::ScenarioDynamics> model =
      scenario->DynamicsModel();
  if (!model) return false;
  const double start = NowSeconds();
  ScopedSpan certify_span(recorder, "sim.certify_scenario");

  double t = NowSeconds();
  markov::SparseUlamOptions build;
  build.num_threads = spectral.num_threads;
  std::unique_ptr<markov::SparseUlamOperator> op;
  {
    ScopedSpan span(recorder, "markov.ulam_build");
    op.reset(new markov::SparseUlamOperator(model->ifs, model->lo, model->hi,
                                            spectral.num_cells, build));
  }
  totals->ulam_build_ms += (NowSeconds() - t) * 1e3;

  t = NowSeconds();
  size_t terminal = 0;
  {
    ScopedSpan span(recorder, "graph.terminal_classes");
    terminal = linalg::TerminalClassCount(op->transition());
  }
  totals->terminal_classes_ms += (NowSeconds() - t) * 1e3;

  linalg::SparseSolverOptions solver;
  solver.max_iterations = spectral.max_iterations;
  solver.tolerance = spectral.tolerance;
  solver.product.num_threads = spectral.num_threads;
  t = NowSeconds();
  linalg::SparseStationaryResult stationary;
  {
    ScopedSpan span(recorder, "linalg.stationary");
    stationary = op->StationarySolve(solver);
  }
  totals->stationary_ms += (NowSeconds() - t) * 1e3;
  totals->iterations += stationary.iterations;
  if (terminal != 1 || !stationary.converged || !stationary.distribution) {
    return false;
  }
  const linalg::Vector& pi = *stationary.distribution;

  t = NowSeconds();
  {
    ScopedSpan span(recorder, "linalg.subdominant");
    linalg::SubdominantOptions subdominant;
    subdominant.subspace = spectral.arnoldi_subspace;
    subdominant.product.num_threads = spectral.num_threads;
    linalg::SparseSubdominantModulus(op->transition(), pi, subdominant);
  }
  totals->subdominant_ms += (NowSeconds() - t) * 1e3;
  totals->wall += NowSeconds() - start;

  // The solver's inner loop: y = (P^T) x over the materialised adjoint.
  const linalg::SparseMatrix& adjoint = op->adjoint();
  t = NowSeconds();
  {
    ScopedSpan span(recorder, "linalg.matvec");
    for (size_t i = 0; i < kMatvecs; ++i) {
      adjoint.Multiply(pi, solver.product);
    }
  }
  totals->matvec_seconds += NowSeconds() - t;
  const double nnz = static_cast<double>(adjoint.nonzeros());
  const double rows = static_cast<double>(adjoint.rows());
  totals->matvec_entries += nnz * kMatvecs;
  // Values and column indices once, row offsets once, one gathered x read
  // per entry and one y write per row.
  totals->matvec_bytes += nnz * (8.0 + 8.0 + 8.0) + (rows + 1.0) * 8.0 +
                          rows * 8.0;
  ++totals->matvec_operators;

  base::Fnv1a digest;
  for (size_t i = 0; i < pi.size(); ++i) digest.MixDouble(pi[i]);
  const auto pinned = PinnedDigests().find(name);
  return pinned != PinnedDigests().end() && digest.hash() == pinned->second;
}

double Mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace

void RunCertify(const RunConfig& config, SpanRecorder* recorder,
                Report* report) {
  const sim::ScenarioCertifyOptions options = Options();
  const std::vector<std::string> names = sim::RegisteredScenarioNames();
  const auto setup = [&names] {
    for (const std::string& name : names) {
      sim::CreateScenario(name)->DynamicsModel();
    }
  };
  std::vector<double> setups;
  SampleSetup(kSetupRepeats, kSetupBatch, setup, &setups);

  // A round starts one pass on each of nproc threads and waits for all.
  // Its time is the mean of those passes, which averages the cores' speeds
  // at that moment; op_p50_ms is the median round. The report is shared
  // under a lock.
  const size_t streams = config.nproc;
  std::vector<ReplayTotals> stream_totals(streams);
  std::mutex report_mutex;
  std::vector<double> rounds, replay_rounds;
  const double start = NowSeconds();
  do {
    std::vector<double> passes(streams), replay_walls(streams);
    const auto run_pass = [&](size_t stream) {
      double pass_start = NowSeconds();
      const std::vector<sim::ScenarioCertificate> certificates =
          sim::CertifyRegisteredScenarios(options);
      const std::string document = sim::RenderScenarioCertificatesJson(
          certificates, "\"provenance\": {}", options);
      passes[stream] = NowSeconds() - pass_start;
      {
        std::lock_guard<std::mutex> lock(report_mutex);
        report->Count(
            certificates.size() == names.size() && !document.empty(),
            "certify pass did not cover every scenario");
        for (const sim::ScenarioCertificate& certificate : certificates) {
          CheckCertificate(certificate, report);
        }
      }
      if (!config.trace) return;
      ReplayTotals* totals = &stream_totals[stream];
      const double before = totals->wall;
      for (const std::string& name : names) {
        const bool same = ReplayScenario(name, options, recorder, totals);
        std::lock_guard<std::mutex> lock(report_mutex);
        report->Count(same,
                      name + " replayed measure differs from the pinned one");
      }
      replay_walls[stream] = totals->wall - before;
    };
    std::vector<std::thread> threads;
    for (size_t s = 0; s < streams; ++s) threads.emplace_back(run_pass, s);
    for (std::thread& thread : threads) thread.join();
    rounds.push_back(Mean(passes));
    if (config.trace) replay_rounds.push_back(Mean(replay_walls));
    SampleSetup(kSetupRepeats, kSetupBatch, setup, &setups);
  } while (NowSeconds() - start < config.seconds);

  report->Set("setup_s", Median(setups), "s");
  if (!config.trace) {
    const double pass = Median(rounds);
    // Each of the streams completes names.size() certificates per pass.
    report->Set("rate_per_s",
                static_cast<double>(names.size() * streams) / pass, "1/s");
    report->Set("op_p50_ms", pass * 1e3, "ms");
    report->Set("time_to_certificates_s", pass, "s");
    return;
  }
  ReplayTotals totals;
  for (const ReplayTotals& stream : stream_totals) {
    totals.ulam_build_ms += stream.ulam_build_ms;
    totals.terminal_classes_ms += stream.terminal_classes_ms;
    totals.stationary_ms += stream.stationary_ms;
    totals.subdominant_ms += stream.subdominant_ms;
    totals.iterations += stream.iterations;
    totals.matvec_seconds += stream.matvec_seconds;
    totals.matvec_entries += stream.matvec_entries;
    totals.matvec_bytes += stream.matvec_bytes;
    totals.matvec_operators += stream.matvec_operators;
  }
  const double per = 1.0 / static_cast<double>(rounds.size() * streams);
  report->Set("markov.ulam_build_ms", totals.ulam_build_ms * per, "ms");
  report->Set("graph.terminal_classes_ms", totals.terminal_classes_ms * per,
              "ms");
  report->Set("linalg.stationary_ms", totals.stationary_ms * per, "ms");
  report->Set("linalg.stationary_iterations", totals.iterations * per,
              "count");
  report->Set("linalg.us_per_iteration",
              totals.stationary_ms * 1e3 / totals.iterations, "us");
  report->Set("linalg.subdominant_ms", totals.subdominant_ms * per, "ms");
  report->Set("linalg.matvec_entries_per_s",
              totals.matvec_entries / totals.matvec_seconds, "1/s");
  report->Set("linalg.matvec_bytes",
              totals.matvec_bytes / static_cast<double>(totals.matvec_operators),
              "B");
  report->Set("trace.overhead_share",
              OverheadShare(Median(replay_rounds), Median(rounds)), "ratio");
}

}  // namespace perfbench
