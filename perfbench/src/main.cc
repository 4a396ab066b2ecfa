// The repository benchmark driver. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH]
//
// Workloads: credit_cohort, paper_sweep, certify, serve_mix (see
// README.md). Prints a human-readable report on stderr and, as the last
// line of stdout, one JSON object: correct, attempted, failed, metrics.
// --trace 1 reports per-layer metrics from a traced run and writes its
// spans as Chrome trace-event JSON to --trace-file. Exits 0 iff every
// correctness gate held, 1 on a failed gate, 2 on bad arguments.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "runtime/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;
using perfbench::SpanRecorder;

using Workload = void (*)(const RunConfig&, SpanRecorder*, Report*);

const std::map<std::string, Workload>& Workloads() {
  static const std::map<std::string, Workload> workloads = {
      {"credit_cohort", perfbench::RunCreditCohort},
      {"paper_sweep", perfbench::RunPaperSweep},
      {"certify", perfbench::RunCertify},
      {"serve_mix", perfbench::RunServeMix},
  };
  return workloads;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\nworkloads:");
  for (const auto& entry : Workloads()) {
    std::fprintf(stderr, " %s", entry.first.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text, &end);
  return end != text && *end == '\0';
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload, trace_file;
  double seed = -1.0, trace = -1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &seed) || seed < 0) return Usage();
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &config.seconds) || config.seconds <= 0) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (!ParseNumber(value, &trace) || (trace != 0 && trace != 1)) {
        return Usage();
      }
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return Usage();
    }
  }
  const auto entry = Workloads().find(workload);
  if (argc % 2 != 1 || entry == Workloads().end() || seed < 0 || trace < 0) {
    return Usage();
  }
  config.seed = static_cast<uint64_t>(seed);
  config.trace = trace == 1;
  config.nproc = eqimpact::runtime::ThreadPool::HardwareConcurrency();

  SpanRecorder recorder(config.trace);
  Report report;
  const double start = perfbench::NowSeconds();
  entry->second(config, &recorder, &report);
  const double wall = perfbench::NowSeconds() - start;
  if (config.trace) {
    report.Set("trace.spans", static_cast<double>(recorder.spans().size()),
               "count");
    std::fprintf(stderr, "self time by span (ms):\n");
    for (const auto& self : recorder.SelfTimeMsByName()) {
      std::fprintf(stderr, "  %-32s %12.3f\n", self.first.c_str(),
                   self.second);
    }
    if (!trace_file.empty() && !recorder.WriteChromeTrace(trace_file)) {
      report.Count(false, "cannot write the trace file " + trace_file);
    }
  } else {
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.Set("failed_share",
             report.attempted() ? static_cast<double>(report.failed()) /
                                      report.attempted()
                                : 1.0,
             "ratio");

  std::fprintf(stderr, "%s seed=%llu seconds=%g trace=%d nproc=%zu: %.1f s\n%s",
               workload.c_str(), static_cast<unsigned long long>(config.seed),
               config.seconds, config.trace ? 1 : 0, config.nproc, wall,
               report.Text().c_str());
  std::printf("%s\n", report.JsonLine().c_str());
  return report.correct() ? 0 : 1;
}
