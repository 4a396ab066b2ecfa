// Tests for the sharded population engine and its checkpoint/resume
// layer (runtime::MakeShardPlan, the credit loop's thread-scaled shard
// walk and checkpoint_sink / resume_state options, and the experiment
// driver's snapshot file): sharding and checkpointing regroup execution
// and persistence, and must never move a bit of simulated output. The
// refusals of bad snapshots are checkpoint_test's.

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv1a.h"
#include "base/serial.h"
#include "credit/credit_loop.h"
#include "runtime/shard.h"
#include "sim/credit_scenario.h"
#include "sim/experiment.h"
#include "stats/adr_accumulator.h"

namespace eqimpact {
namespace {

// --- Shard plan geometry. --------------------------------------------------

TEST(ShardPlanTest, EvenSplitOwnsContiguousChunkRanges) {
  runtime::ShardPlan plan = runtime::MakeShardPlan(1000, 100, 5);
  EXPECT_EQ(plan.num_chunks, 10u);
  ASSERT_EQ(plan.num_shards(), 5u);
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    const runtime::ShardRange& range = plan.shards[s];
    EXPECT_EQ(range.num_chunks(), 2u);
    EXPECT_EQ(range.chunk_begin, 2 * s);
    EXPECT_EQ(range.user_begin, 200 * s);
    EXPECT_EQ(range.user_end, 200 * (s + 1));
  }
}

TEST(ShardPlanTest, RemainderChunksGoToLeadingShards) {
  // 11 chunks over 4 shards: 3 + 3 + 3 + 2.
  runtime::ShardPlan plan = runtime::MakeShardPlan(1100, 100, 4);
  EXPECT_EQ(plan.num_chunks, 11u);
  ASSERT_EQ(plan.num_shards(), 4u);
  EXPECT_EQ(plan.shards[0].num_chunks(), 3u);
  EXPECT_EQ(plan.shards[1].num_chunks(), 3u);
  EXPECT_EQ(plan.shards[2].num_chunks(), 3u);
  EXPECT_EQ(plan.shards[3].num_chunks(), 2u);
  // Contiguous cover of [0, num_chunks).
  size_t next_chunk = 0;
  for (const runtime::ShardRange& range : plan.shards) {
    EXPECT_EQ(range.chunk_begin, next_chunk);
    next_chunk = range.chunk_end;
  }
  EXPECT_EQ(next_chunk, plan.num_chunks);
}

TEST(ShardPlanTest, RequestBeyondChunkCountClamps) {
  // 250 users in 100-chunks -> 3 chunks; 8 requested shards clamp to 3,
  // and the tail shard's user range ends at the cohort size, not the
  // chunk boundary.
  runtime::ShardPlan plan = runtime::MakeShardPlan(250, 100, 8);
  EXPECT_EQ(plan.num_chunks, 3u);
  ASSERT_EQ(plan.num_shards(), 3u);
  EXPECT_EQ(plan.shards.back().user_end, 250u);
}

TEST(ShardPlanTest, ZeroAndOneRequestsMeanUnsharded) {
  for (size_t requested : {size_t{0}, size_t{1}}) {
    runtime::ShardPlan plan = runtime::MakeShardPlan(777, 64, requested);
    ASSERT_EQ(plan.num_shards(), 1u);
    EXPECT_EQ(plan.shards[0].chunk_begin, 0u);
    EXPECT_EQ(plan.shards[0].chunk_end, plan.num_chunks);
    EXPECT_EQ(plan.shards[0].user_begin, 0u);
    EXPECT_EQ(plan.shards[0].user_end, 777u);
  }
}

TEST(ShardBudgetTest, SplitsThreadsAcrossAndWithinShards) {
  // More threads than shards: the surplus goes to within-shard workers.
  runtime::ThreadBudget budget = runtime::SplitBudget(8, 2);
  EXPECT_EQ(budget.outer, 2u);
  EXPECT_EQ(budget.inner, 4u);
  // Fewer threads than shards: shard-level workers only.
  budget = runtime::SplitBudget(3, 5);
  EXPECT_EQ(budget.outer, 3u);
  EXPECT_EQ(budget.inner, 1u);
  // One thread: everything sequential.
  budget = runtime::SplitBudget(1, 4);
  EXPECT_EQ(budget.outer, 1u);
  EXPECT_EQ(budget.inner, 1u);
}

// --- Sharded credit loop determinism. --------------------------------------

/// Order-dependent digest over everything a trial reports (bitwise:
/// equal digests here mean equal doubles, bit for bit).
uint64_t LoopDigest(const credit::CreditLoopResult& result) {
  base::Fnv1a digest;
  for (const auto& series : result.user_adr) digest.MixSeries(series);
  for (const auto& series : result.race_adr) digest.MixSeries(series);
  for (const auto& series : result.race_approval) digest.MixSeries(series);
  digest.MixSeries(result.overall_adr);
  for (const auto& card : result.scorecards) {
    digest.Mix(static_cast<uint64_t>(card.year));
    digest.MixDouble(card.history_weight);
    digest.MixDouble(card.income_weight);
    digest.MixDouble(card.intercept);
  }
  return digest.hash();
}

credit::CreditLoopOptions SmallLoopOptions() {
  credit::CreditLoopOptions options;
  options.num_users = 777;        // 13 chunks of 64 with a ragged tail.
  options.users_per_chunk = 64;
  options.seed = 29;
  options.keep_user_adr = true;
  return options;
}

TEST(ShardedLoopTest, DigestInvariantAcrossThreadCounts) {
  // 49 chunks of 16: the engine walks four shards per worker, so 1, 2, 3
  // and 8 threads cut the year into 4, 8, 12 and 32 shards.
  credit::CreditLoopOptions options = SmallLoopOptions();
  options.users_per_chunk = 16;
  const uint64_t reference =
      LoopDigest(credit::CreditScoringLoop(options).Run());
  for (size_t threads : {size_t{2}, size_t{3}, size_t{8}}) {
    options.num_threads = threads;
    EXPECT_EQ(LoopDigest(credit::CreditScoringLoop(options).Run()), reference)
        << "threads=" << threads;
  }
}

TEST(ShardedLoopTest, CheckpointResumeIsBitwiseAtEveryYear) {
  credit::CreditLoopOptions options = SmallLoopOptions();
  options.num_threads = 2;
  // Capture every yearly snapshot.
  std::vector<std::vector<uint8_t>> snapshots;
  options.checkpoint_sink = [&snapshots](size_t years_completed,
                                         const std::vector<uint8_t>& state) {
    EXPECT_EQ(years_completed, snapshots.size() + 1);
    snapshots.push_back(state);
  };
  const uint64_t reference =
      LoopDigest(credit::CreditScoringLoop(options).Run());
  const size_t num_years =
      static_cast<size_t>(options.last_year - options.first_year) + 1;
  ASSERT_EQ(snapshots.size(), num_years);

  options.checkpoint_sink = nullptr;
  for (size_t resume_year : {size_t{1}, num_years / 2, num_years - 1}) {
    // Resume under a different thread count, and so shard count, than
    // the checkpointing run: snapshots carry no shard (or RNG-cursor)
    // state by design.
    options.num_threads = resume_year % 2 == 0 ? 1 : 3;
    options.resume_state = &snapshots[resume_year - 1];
    ASSERT_EQ(credit::CheckLoopSnapshot(options, *options.resume_state),
              base::SnapshotStatus::kOk);
    size_t first_observed_step = num_years;
    credit::CreditLoopResult resumed =
        credit::CreditScoringLoop(options).Run(
            [&first_observed_step](const credit::YearSnapshot& snapshot) {
              if (snapshot.step < first_observed_step) {
                first_observed_step = snapshot.step;
              }
            });
    // Only the unfinished years re-run...
    EXPECT_EQ(first_observed_step, resume_year);
    // ...yet the completed record is bitwise the uninterrupted one.
    EXPECT_EQ(LoopDigest(resumed), reference)
        << "resumed from year " << resume_year;
  }
}

// --- Experiment-level checkpoint/resume. -----------------------------------

sim::CreditScenarioOptions SmallScenarioOptions() {
  sim::CreditScenarioOptions options;
  options.loop.num_users = 300;
  options.loop.users_per_chunk = 64;
  options.loop.last_year = 2010;  // 9 steps: keeps the test quick.
  return options;
}

sim::ExperimentOptions SmallExperimentOptions() {
  sim::ExperimentOptions options;
  options.num_trials = 3;
  options.master_seed = 11;
  return options;
}

/// Reads the snapshot at options.checkpoint_path for `scenario` and runs
/// the experiment on from it; returns the result's digest.
uint64_t ResumedDigest(sim::Scenario* scenario,
                       sim::ExperimentOptions options) {
  sim::ExperimentSnapshot snapshot;
  EXPECT_EQ(sim::ReadExperimentSnapshot(options.checkpoint_path, *scenario,
                                        options, &snapshot),
            base::SnapshotStatus::kOk);
  options.resume = &snapshot;
  return sim::ExperimentDigest(sim::RunExperiment(scenario, options));
}

TEST(ExperimentCheckpointTest, UninterruptedCheckpointedRunMatchesPlain) {
  sim::CreditScenario plain_scenario(SmallScenarioOptions());
  const uint64_t reference = sim::ExperimentDigest(
      sim::RunExperiment(&plain_scenario, SmallExperimentOptions()));

  const std::string path = testing::TempDir() + "/eqimpact_ck_plain.bin";
  std::remove(path.c_str());
  sim::CreditScenario scenario(SmallScenarioOptions());
  sim::ExperimentOptions options = SmallExperimentOptions();
  options.checkpoint_path = path;
  EXPECT_EQ(sim::ExperimentDigest(sim::RunExperiment(&scenario, options)),
            reference);
  // The final snapshot (all trials complete) is left on disk.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  std::remove(path.c_str());
}

TEST(ExperimentCheckpointTest, ResumeWithoutSnapshotStartsFresh) {
  sim::CreditScenario plain_scenario(SmallScenarioOptions());
  const uint64_t reference = sim::ExperimentDigest(
      sim::RunExperiment(&plain_scenario, SmallExperimentOptions()));

  const std::string path = testing::TempDir() + "/eqimpact_ck_missing.bin";
  std::remove(path.c_str());
  sim::CreditScenario scenario(SmallScenarioOptions());
  sim::ExperimentOptions options = SmallExperimentOptions();
  options.checkpoint_path = path;
  // Nothing to resume from: an empty snapshot, a plain fresh run.
  EXPECT_EQ(ResumedDigest(&scenario, options), reference);
  std::remove(path.c_str());
}

/// Thrown by the aborting scenario below to simulate a crash: unlike a
/// SIGKILL it unwinds cleanly through the driver, which must leave the
/// snapshot file in a resumable state either way (it is rewritten
/// atomically before the sink returns).
struct InjectedCrash : std::runtime_error {
  InjectedCrash() : std::runtime_error("injected crash") {}
};

/// CreditScenario that dies mid-trial: after `fatal_call` engine
/// checkpoints have been persisted, the next one throws.
class CrashingCreditScenario : public sim::CreditScenario {
 public:
  CrashingCreditScenario(sim::CreditScenarioOptions options, int fatal_call)
      : sim::CreditScenario(std::move(options)), remaining_(fatal_call) {}

  sim::TrialOutcome RunTrial(const sim::TrialContext& context,
                             stats::AdrAccumulator* impacts) override {
    sim::TrialContext wrapped = context;
    if (context.checkpoint_sink) {
      const sim::TrialCheckpointSink inner = context.checkpoint_sink;
      int* remaining = &remaining_;
      wrapped.checkpoint_sink = [inner, remaining](
                                    size_t steps_completed,
                                    const std::vector<uint8_t>& state) {
        inner(steps_completed, state);  // Snapshot reaches disk first.
        if (--*remaining == 0) throw InjectedCrash();
      };
    }
    return sim::CreditScenario::RunTrial(wrapped, impacts);
  }

 private:
  int remaining_;
};

TEST(ExperimentCheckpointTest, ResumeAfterMidTrialCrashIsBitwise) {
  sim::CreditScenario plain_scenario(SmallScenarioOptions());
  const uint64_t reference = sim::ExperimentDigest(
      sim::RunExperiment(&plain_scenario, SmallExperimentOptions()));

  const std::string path = testing::TempDir() + "/eqimpact_ck_crash.bin";
  // 9 steps per trial: dying on the 13th engine checkpoint kills the
  // run after year 4 of trial 1 — mid-trial, past the trial boundary.
  std::remove(path.c_str());
  CrashingCreditScenario crashing(SmallScenarioOptions(), 13);
  sim::ExperimentOptions options = SmallExperimentOptions();
  options.checkpoint_path = path;
  EXPECT_THROW(sim::RunExperiment(&crashing, options), InjectedCrash);

  // A fresh scenario + driver resumes from the snapshot and must finish
  // with the uninterrupted run's exact aggregates. The resumed trial 1
  // replays years 5..9 only; trial 0's outcome comes from the snapshot.
  sim::CreditScenario resumed_scenario(SmallScenarioOptions());
  EXPECT_EQ(ResumedDigest(&resumed_scenario, options), reference);
  std::remove(path.c_str());
}

TEST(ExperimentCheckpointTest, ResumeUnderDifferentTrialThreadsIsBitwise) {
  sim::CreditScenario plain_scenario(SmallScenarioOptions());
  const uint64_t reference = sim::ExperimentDigest(
      sim::RunExperiment(&plain_scenario, SmallExperimentOptions()));

  const std::string path = testing::TempDir() + "/eqimpact_ck_threads.bin";
  std::remove(path.c_str());
  // Crash a run mid-trial at 4 trial threads, resume at 2: the snapshot
  // carries no thread or shard state, and the job fingerprint leaves
  // thread counts out, so the digest must not move.
  CrashingCreditScenario crashing(SmallScenarioOptions(), 6);
  sim::ExperimentOptions options = SmallExperimentOptions();
  options.checkpoint_path = path;
  options.trial_threads = 4;
  EXPECT_THROW(sim::RunExperiment(&crashing, options), InjectedCrash);

  sim::CreditScenario resumed_scenario(SmallScenarioOptions());
  options.trial_threads = 2;
  EXPECT_EQ(ResumedDigest(&resumed_scenario, options), reference);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eqimpact
