#include "sim/experiment.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>

#include "base/check.h"
#include "base/fnv1a.h"
#include "base/serial.h"
#include "runtime/parallel_for.h"
#include "runtime/seed_sequence.h"
#include "runtime/thread_pool.h"

namespace eqimpact {
namespace sim {
namespace {

using base::SnapshotStatus;

// Experiment snapshot framing (base::BeginFrame): magic "EQXP", format
// version 2 (version 1 bound no scenario configuration). The engine-level
// trial blob travels inside, with its own frame.
constexpr uint32_t kExperimentSnapshotMagic = 0x50585145u;  // "EQXP"
constexpr uint32_t kExperimentSnapshotVersion = 2;

// The most observations a snapshot may hold in one cell, summed over its
// trials: 2^53, far above a real cohort's units times its trials. Then
// merging the decoded trials, or folding the resumed one on, overflows
// no count unless over 2^62 more values are folded.
constexpr int64_t kMaxDecodedCount = int64_t{1} << 53;

// Binds a snapshot to its job: the scenario and its configuration, the
// trial count, seed and bins, and the impact shape. Thread counts stay
// out, because they never move a bit. None for a scenario that cannot
// checkpoint.
std::optional<uint64_t> ExperimentFingerprint(
    const Scenario& scenario, const ExperimentOptions& options) {
  const std::optional<uint64_t> configuration =
      scenario.CheckpointFingerprint();
  if (!configuration) return std::nullopt;
  base::Fnv1a f;
  for (char ch : scenario.name()) f.Mix(static_cast<uint8_t>(ch));
  f.Mix(options.num_trials);
  f.Mix(options.master_seed);
  f.Mix(options.impact_bins);
  f.Mix(scenario.GroupLabels().size());
  f.Mix(scenario.StepLabels().size());
  f.MixDouble(scenario.impact_lo());
  f.MixDouble(scenario.impact_hi());
  f.Mix(*configuration);
  return f.hash();
}

TrialContext MakeTrialContext(const ExperimentOptions& options, size_t trial,
                              runtime::ThreadPool* pool) {
  TrialContext context;
  context.trial_index = trial;
  context.trial_seed = runtime::SeedSequence(options.master_seed).Seed(trial);
  context.num_threads = options.trial_threads;
  context.pool = pool;
  return context;
}

void WriteTrialOutcome(base::BinaryWriter* writer,
                       const TrialOutcome& outcome) {
  writer->WriteSize(outcome.group_impact.size());
  for (const std::vector<double>& series : outcome.group_impact) {
    writer->WriteDoubleVector(series);
  }
  writer->WriteDoubleVector(outcome.metrics);
}

// Reads a whole regular file into `bytes`; false for anything else (a
// directory, a device, a failed read). Takes ownership of `fd`.
bool ReadRegularFile(int fd, std::vector<uint8_t>* bytes) {
  if (fd < 0) return false;
  struct stat info;
  bool ok = fstat(fd, &info) == 0 && S_ISREG(info.st_mode);
  if (ok) bytes->resize(static_cast<size_t>(info.st_size));
  for (size_t done = 0; ok && done < bytes->size();) {
    const ssize_t n = read(fd, bytes->data() + done, bytes->size() - done);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    done += ok ? static_cast<size_t>(n) : 0;
  }
  close(fd);
  return ok;
}

// Crash-safe snapshot replacement: the bytes land in a temp file of
// their own in the snapshot's directory, reach disk (fsync) and only
// then take the snapshot's name via an atomic rename — a kill at any
// instant leaves either the old or the new snapshot, never a torn one,
// and two runs given one path never write into one temp file. The path
// was checked (CheckCheckpointWritable) before any work, so a failure
// here is the disk's, not the input's.
void AtomicWriteFile(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  std::string tmp = path + ".XXXXXX";
  const int fd = mkstemp(&tmp[0]);
  EQIMPACT_CHECK_GE(fd, 0);
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    EQIMPACT_CHECK_GT(n, 0);
    done += static_cast<size_t>(n);
  }
  EQIMPACT_CHECK_EQ(fsync(fd), 0);
  EQIMPACT_CHECK_EQ(close(fd), 0);
  EQIMPACT_CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
}

}  // namespace

SnapshotStatus DecodeExperimentSnapshot(const std::vector<uint8_t>& bytes,
                                        const Scenario& scenario,
                                        const ExperimentOptions& options,
                                        ExperimentSnapshot* snapshot) {
  *snapshot = ExperimentSnapshot();
  const std::optional<uint64_t> fingerprint =
      ExperimentFingerprint(scenario, options);
  if (!fingerprint) return SnapshotStatus::kFingerprint;
  base::BinaryReader reader(nullptr, 0);
  const SnapshotStatus frame =
      base::OpenFrame(bytes, kExperimentSnapshotMagic,
                      kExperimentSnapshotVersion, *fingerprint, &reader);
  if (frame != SnapshotStatus::kOk) return frame;

  // Every trial record and accumulator must have the experiment's own
  // shape, which the aggregation after the trials relies on.
  const size_t num_groups = scenario.GroupLabels().size();
  const size_t num_steps = scenario.StepLabels().size();
  const size_t num_metrics = scenario.MetricNames().size();
  const auto read_outcome = [&](TrialOutcome* outcome) {
    if (reader.ReadSize() != num_groups) return false;
    outcome->group_impact.resize(num_groups);
    for (std::vector<double>& series : outcome->group_impact) {
      series = reader.ReadDoubleVector();
      if (series.size() != num_steps) return false;
    }
    outcome->metrics = reader.ReadDoubleVector();
    return reader.ok() && outcome->metrics.size() == num_metrics;
  };
  std::vector<int64_t> decoded_counts;  // Per cell, over the trials.
  const auto read_impact = [&](stats::AdrAccumulator* impact) {
    if (!impact->Deserialize(&reader) || impact->num_groups() != num_groups ||
        impact->num_steps() != num_steps ||
        impact->num_bins() != options.impact_bins ||
        impact->lo() != scenario.impact_lo() ||
        impact->hi() != scenario.impact_hi()) {
      return false;
    }
    // Sized by the cells just read; Deserialize refused negative counts.
    decoded_counts.resize(num_groups * num_steps, 0);
    for (size_t k = 0; k < num_steps; ++k) {
      for (size_t g = 0; g < num_groups; ++g) {
        int64_t& total = decoded_counts[k * num_groups + g];
        if (impact->count(k, g) > kMaxDecodedCount - total) return false;
        total += impact->count(k, g);
      }
    }
    return true;
  };

  const size_t completed = reader.ReadSize();
  if (!reader.ok() || completed > options.num_trials) {
    return SnapshotStatus::kShape;
  }
  // Grown one decoded trial at a time, so the count alone never sizes an
  // allocation.
  for (size_t t = 0; t < completed; ++t) {
    snapshot->trials.emplace_back();
    snapshot->impacts.emplace_back();
    if (!read_outcome(&snapshot->trials.back()) ||
        !read_impact(&snapshot->impacts.back())) {
      return SnapshotStatus::kShape;
    }
  }
  if (reader.ReadBool()) {
    const size_t trial = reader.ReadSize();
    const size_t steps_completed = reader.ReadSize();
    if (!reader.ok() || trial != completed || completed == options.num_trials ||
        steps_completed == 0 || steps_completed > num_steps ||
        !read_impact(&snapshot->partial_impact)) {
      return SnapshotStatus::kShape;
    }
    snapshot->partial_state = reader.ReadU8Vector();
    if (!reader.AtEnd()) return SnapshotStatus::kShape;
    return scenario.CheckEngineState(
        MakeTrialContext(options, completed, nullptr),
        snapshot->partial_state);
  }
  return reader.AtEnd() ? SnapshotStatus::kOk : SnapshotStatus::kShape;
}

SnapshotStatus ReadExperimentSnapshot(const std::string& path,
                                      const Scenario& scenario,
                                      const ExperimentOptions& options,
                                      ExperimentSnapshot* snapshot) {
  *snapshot = ExperimentSnapshot();
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) {
    std::fprintf(stderr, "[experiment] no checkpoint at %s; starting fresh\n",
                 path.c_str());
    return SnapshotStatus::kOk;
  }
  std::vector<uint8_t> bytes;
  if (!ReadRegularFile(fd, &bytes)) return SnapshotStatus::kUnreadable;
  return DecodeExperimentSnapshot(bytes, scenario, options, snapshot);
}

SnapshotStatus CheckCheckpointWritable(const std::string& path) {
  struct stat info;
  if (stat(path.c_str(), &info) == 0 && !S_ISREG(info.st_mode)) {
    return SnapshotStatus::kUnwritable;
  }
  std::string tmp = path + ".XXXXXX";
  const int fd = mkstemp(&tmp[0]);
  if (fd < 0) return SnapshotStatus::kUnwritable;
  close(fd);
  unlink(tmp.c_str());
  return SnapshotStatus::kOk;
}

ExperimentResult RunExperiment(Scenario* scenario,
                               const ExperimentOptions& options) {
  EQIMPACT_CHECK(scenario != nullptr);
  EQIMPACT_CHECK_GT(options.num_trials, 0u);
  EQIMPACT_CHECK_GT(options.impact_bins, 0u);

  ExperimentResult result;
  result.scenario = scenario->name();
  result.group_labels = scenario->GroupLabels();
  result.step_labels = scenario->StepLabels();
  result.metric_names = scenario->MetricNames();
  const size_t num_groups = result.group_labels.size();
  const size_t num_steps = result.step_labels.size();
  EQIMPACT_CHECK_GT(num_groups, 0u);
  EQIMPACT_CHECK_GT(num_steps, 0u);

  scenario->BeginExperiment(options.num_trials);

  // Trials are embarrassingly parallel: each gets its own seed stream
  // derived from the trial index, writes into its own preallocated slot,
  // and streams its cross-sections into its own accumulator, so parallel
  // output is bitwise-identical to sequential.
  result.trials.resize(options.num_trials);
  std::vector<stats::AdrAccumulator> trial_impact(
      options.num_trials,
      stats::AdrAccumulator(num_groups, num_steps, options.impact_bins,
                            scenario->impact_lo(), scenario->impact_hi()));
  const bool checkpointing = !options.checkpoint_path.empty();
  runtime::ParallelForOptions dispatch;
  dispatch.num_threads = options.num_threads;
  std::optional<uint64_t> fingerprint;
  if (checkpointing) {
    // Checkpoints linearize trial progress (the snapshot is "trials
    // [0, t) complete, trial t at step s"), so trial dispatch goes
    // sequential; within-trial parallelism (trial_threads) is
    // unaffected — and neither dispatch mode moves a bit of output.
    fingerprint = ExperimentFingerprint(*scenario, options);
    EQIMPACT_CHECK(fingerprint.has_value());
    dispatch.num_threads = 1;
  }
  // Concurrent trials may not share a pool, but under sequential trial
  // dispatch with an explicit within-trial budget a single persistent
  // pool serves every trial's inner fan-out.
  std::unique_ptr<runtime::ThreadPool> trial_pool;
  if (runtime::EffectiveNumThreads(dispatch) == 1 &&
      options.trial_threads > 1) {
    trial_pool.reset(new runtime::ThreadPool(options.trial_threads));
  }

  // A resumed experiment takes its completed trials from the snapshot
  // and resumes the in-flight one from its engine blob.
  size_t completed_trials = 0;
  const std::vector<uint8_t>* partial_state = nullptr;
  if (options.resume != nullptr) {
    const ExperimentSnapshot& resume = *options.resume;
    completed_trials = resume.trials.size();
    EQIMPACT_CHECK_EQ(resume.impacts.size(), completed_trials);
    EQIMPACT_CHECK_LE(completed_trials, options.num_trials);
    std::copy(resume.trials.begin(), resume.trials.end(),
              result.trials.begin());
    std::copy(resume.impacts.begin(), resume.impacts.end(),
              trial_impact.begin());
    if (!resume.partial_state.empty()) {
      EQIMPACT_CHECK_LT(completed_trials, options.num_trials);
      trial_impact[completed_trials] = resume.partial_impact;
      partial_state = &resume.partial_state;
    }
  }

  // Rewrites the snapshot file: trials [0, trials_done) complete, plus
  // (optionally) the in-flight trial's accumulator and engine blob as
  // of `steps_completed` steps.
  const auto write_snapshot = [&](size_t trials_done, bool has_partial,
                                  size_t steps_completed,
                                  const std::vector<uint8_t>& engine_blob) {
    base::BinaryWriter writer;
    base::BeginFrame(kExperimentSnapshotMagic, kExperimentSnapshotVersion,
                     *fingerprint, &writer);
    writer.WriteSize(trials_done);
    for (size_t t = 0; t < trials_done; ++t) {
      WriteTrialOutcome(&writer, result.trials[t]);
      trial_impact[t].Serialize(&writer);
    }
    writer.WriteBool(has_partial);
    if (has_partial) {
      writer.WriteSize(trials_done);
      writer.WriteSize(steps_completed);
      trial_impact[trials_done].Serialize(&writer);
      writer.WriteU8Vector(engine_blob);
    }
    base::SealFrame(&writer);
    AtomicWriteFile(options.checkpoint_path, writer.buffer());
  };

  // Progress observation is serialized and counted under one mutex so
  // the observer sees a monotone completed count without locking of its
  // own; it never touches the trial slots, so output bits are
  // unaffected.
  std::mutex progress_mutex;
  size_t trials_completed = completed_trials;
  runtime::ParallelFor(
      options.num_trials - completed_trials,
      [&](size_t i) {
        const size_t t = completed_trials + i;
        TrialContext context = MakeTrialContext(options, t, trial_pool.get());
        if (checkpointing) {
          context.checkpoint_sink = [&write_snapshot, t](
                                        size_t steps_completed,
                                        const std::vector<uint8_t>& state) {
            write_snapshot(t, true, steps_completed, state);
          };
        }
        if (i == 0) context.resume_state = partial_state;
        result.trials[t] = scenario->RunTrial(context, &trial_impact[t]);
        if (checkpointing) write_snapshot(t + 1, false, 0, {});
        if (options.on_trial_complete) {
          std::lock_guard<std::mutex> lock(progress_mutex);
          options.on_trial_complete(t, result.trials[t], ++trials_completed,
                                    options.num_trials);
        }
      },
      dispatch);

  // Aggregation happens strictly after the join, in trial-slot order.
  for (stats::AdrAccumulator& impact : trial_impact) {
    result.pooled_impact.Merge(impact);
  }

  // Per-group across-trial envelopes of the group impact series.
  result.group_envelopes.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<std::vector<double>> across_trials;
    across_trials.reserve(options.num_trials);
    for (const TrialOutcome& trial : result.trials) {
      EQIMPACT_CHECK_EQ(trial.group_impact.size(), num_groups);
      EQIMPACT_CHECK_EQ(trial.group_impact[g].size(), num_steps);
      across_trials.push_back(trial.group_impact[g]);
    }
    result.group_envelopes.push_back(stats::AggregateEnvelope(across_trials));
  }

  // Across-trial metric moments.
  result.metric_stats.assign(result.metric_names.size(),
                             stats::RunningStats());
  for (const TrialOutcome& trial : result.trials) {
    EQIMPACT_CHECK_EQ(trial.metrics.size(), result.metric_names.size());
    for (size_t m = 0; m < trial.metrics.size(); ++m) {
      result.metric_stats[m].Add(trial.metrics[m]);
    }
  }

  // Final-step equal-impact diagnostics.
  const size_t last = num_steps - 1;
  double lo = 0.0, hi = 0.0;
  bool any_group = false;
  stats::RunningStats pooled;
  for (size_t g = 0; g < num_groups; ++g) {
    pooled.Merge(result.pooled_impact.stats(last, g));
    if (result.pooled_impact.count(last, g) == 0) continue;  // Empty class.
    const double mean = result.group_envelopes[g].mean[last];
    if (!any_group) {
      lo = hi = mean;
      any_group = true;
    } else {
      lo = std::min(lo, mean);
      hi = std::max(hi, mean);
    }
  }
  result.summary.group_gap = any_group ? hi - lo : 0.0;
  result.summary.pooled_std = pooled.StdDev();
  result.summary.pooled_mean = pooled.Mean();
  return result;
}

void MixAccumulator(base::Fnv1a* digest, const stats::AdrAccumulator& impact) {
  for (size_t k = 0; k < impact.num_steps(); ++k) {
    for (size_t g = 0; g < impact.num_groups(); ++g) {
      const stats::RunningStats& stats = impact.stats(k, g);
      digest->Mix(static_cast<uint64_t>(stats.count()));
      digest->MixDouble(stats.Mean());
      digest->MixDouble(stats.Variance());
      for (size_t b = 0; b < impact.num_bins(); ++b) {
        digest->Mix(static_cast<uint64_t>(impact.bin_count(k, g, b)));
      }
    }
  }
}

uint64_t ExperimentDigest(const ExperimentResult& result) {
  base::Fnv1a digest;
  for (const stats::SeriesEnvelope& envelope : result.group_envelopes) {
    digest.MixSeries(envelope.mean);
    digest.MixSeries(envelope.std_dev);
  }
  for (const TrialOutcome& trial : result.trials) {
    for (const std::vector<double>& series : trial.group_impact) {
      digest.MixSeries(series);
    }
    digest.MixSeries(trial.metrics);
  }
  MixAccumulator(&digest, result.pooled_impact);
  digest.MixDouble(result.summary.group_gap);
  digest.MixDouble(result.summary.pooled_std);
  digest.MixDouble(result.summary.pooled_mean);
  return digest.hash();
}

}  // namespace sim
}  // namespace eqimpact
