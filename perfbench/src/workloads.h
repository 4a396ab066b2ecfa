#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "trace.h"

namespace perfbench {

/// One benchmark run's settings, from the command line.
struct RunConfig {
  uint64_t seed = 42;
  /// Length of the measured window; whole rounds run until it is used up.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Worker budget: threads and connections never exceed it.
  size_t nproc = 1;
};

/// The default seed. Digests the workloads pin hold at this seed.
constexpr uint64_t kDefaultSeed = 42;

/// Each workload fills `report` with its end-to-end metrics (untraced) or
/// its per-layer metrics (traced, spans recorded into `recorder`), and
/// counts every operation it checks. End-to-end metrics are named
/// generically so that every workload reports every one of them:
///   setup_s      median set-up time
///   rate_per_s   user operations completed correctly per second
///   op_p50_ms    median latency of one user operation
/// The workload's doc comment names its operation.
void RunCreditCohort(const RunConfig& config, SpanRecorder* recorder,
                     Report* report);
void RunPaperSweep(const RunConfig& config, SpanRecorder* recorder,
                   Report* report);
void RunCertify(const RunConfig& config, SpanRecorder* recorder,
                Report* report);
void RunServeMix(const RunConfig& config, SpanRecorder* recorder,
                 Report* report);

/// Calls `body` `repeats` times and returns the median wall time of one
/// call in seconds. Set-up is timed this way too, because a single
/// start-up is too short to time steadily.
template <typename Body>
double MedianSeconds(size_t repeats, const Body& body) {
  std::vector<double> times;
  for (size_t i = 0; i < repeats; ++i) {
    const double start = NowSeconds();
    body();
    times.push_back(NowSeconds() - start);
  }
  return Median(times);
}

/// Times `repeats` batches of `batch` back-to-back set-ups and appends
/// each batch's time per set-up to `samples`. Short set-ups are batched so
/// each timing spans far more than the clock's resolution; the workloads
/// sample before their window and again after every round, because a
/// shared machine's speed over a few milliseconds varies far more than
/// over the whole run. setup_s is the median of the samples.
template <typename Setup>
void SampleSetup(size_t repeats, size_t batch, const Setup& setup,
                 std::vector<double>* samples) {
  for (size_t r = 0; r < repeats; ++r) {
    const double start = NowSeconds();
    for (size_t i = 0; i < batch; ++i) setup();
    samples->push_back((NowSeconds() - start) / static_cast<double>(batch));
  }
}

/// Relative cost of the traced pass over the untraced pass of the same
/// work: traced / untraced - 1.
inline double OverheadShare(double traced_seconds, double untraced_seconds) {
  return untraced_seconds > 0.0 ? traced_seconds / untraced_seconds - 1.0
                                : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
