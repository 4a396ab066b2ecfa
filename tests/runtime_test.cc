// Unit tests for the runtime layer: thread pool, parallel_for, chunk
// stages, seed sequence, and the parallel-vs-sequential determinism
// contract of the credit trials sim::RunExperiment runs.

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "credit/credit_loop.h"
#include "rng/random.h"
#include "runtime/chunk_stages.h"
#include "runtime/parallel_for.h"
#include "runtime/seed_sequence.h"
#include "runtime/thread_pool.h"
#include "sim/credit_scenario.h"
#include "sim/ensemble_control.h"
#include "sim/experiment.h"

namespace eqimpact {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  runtime::ThreadPool pool(4);
  std::atomic<int> counter(0);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  runtime::ThreadPool pool(2);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, IsReusableAcrossWaves) {
  runtime::ThreadPool pool(3);
  std::atomic<int> counter(0);
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, PropagatesTaskException) {
  runtime::ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The exception is cleared: the pool keeps working afterwards.
  std::atomic<int> counter(0);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(runtime::ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    std::vector<int> visits(1000, 0);
    runtime::ParallelForOptions options;
    options.num_threads = threads;
    runtime::ParallelFor(
        visits.size(), [&visits](size_t i) { visits[i] += 1; }, options);
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 1000)
        << "threads=" << threads;
    for (int v : visits) EXPECT_EQ(v, 1);
  }
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  std::atomic<int> counter(0);
  runtime::ParallelFor(0, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ParallelForTest, SlotWritesAreDeterministic) {
  auto run = [](size_t threads) {
    std::vector<uint64_t> out(200);
    runtime::ParallelForOptions options;
    options.num_threads = threads;
    runtime::ParallelFor(
        out.size(),
        [&out](size_t i) {
          rng::Random random(runtime::SeedSequence(7).Seed(i));
          out[i] = random.UniformInt(1u << 30);
        },
        options);
    return out;
  };
  std::vector<uint64_t> sequential = run(1);
  EXPECT_EQ(run(2), sequential);
  EXPECT_EQ(run(8), sequential);
}

TEST(ParallelForTest, PropagatesBodyException) {
  runtime::ParallelForOptions options;
  options.num_threads = 4;
  EXPECT_THROW(runtime::ParallelFor(
                   100,
                   [](size_t i) {
                     if (i == 42) throw std::runtime_error("bad index");
                   },
                   options),
               std::runtime_error);
}

TEST(ParallelForTest, SequentialPathPropagatesException) {
  runtime::ParallelForOptions options;
  options.num_threads = 1;
  EXPECT_THROW(runtime::ParallelFor(
                   10,
                   [](size_t i) {
                     if (i == 3) throw std::logic_error("sequential");
                   },
                   options),
               std::logic_error);
}

TEST(ParallelForTest, ReusesCallerOwnedPoolAcrossCalls) {
  runtime::ThreadPool pool(3);
  runtime::ParallelForOptions options;
  options.pool = &pool;
  EXPECT_EQ(runtime::EffectiveNumThreads(options), 3u);
  std::atomic<int> counter(0);
  for (int wave = 0; wave < 4; ++wave) {
    runtime::ParallelFor(
        50, [&counter](size_t) { counter.fetch_add(1); }, options);
  }
  EXPECT_EQ(counter.load(), 200);
  // The pool is idle afterwards and still usable directly.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 201);
}

TEST(ParallelForTest, CallerOwnedPoolPropagatesException) {
  runtime::ThreadPool pool(2);
  runtime::ParallelForOptions options;
  options.pool = &pool;
  EXPECT_THROW(runtime::ParallelFor(
                   100,
                   [](size_t i) {
                     if (i == 7) throw std::runtime_error("pooled");
                   },
                   options),
               std::runtime_error);
  // The pool survives the failed dispatch.
  std::atomic<int> counter(0);
  runtime::ParallelFor(
      10, [&counter](size_t) { counter.fetch_add(1); }, options);
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForChunksTest, NumChunksCoversTheRange) {
  EXPECT_EQ(runtime::NumChunks(0, 10), 0u);
  EXPECT_EQ(runtime::NumChunks(1, 10), 1u);
  EXPECT_EQ(runtime::NumChunks(10, 10), 1u);
  EXPECT_EQ(runtime::NumChunks(11, 10), 2u);
  EXPECT_EQ(runtime::NumChunks(100, 7), 15u);
}

TEST(ParallelForChunksTest, ChunksPartitionTheRange) {
  for (size_t threads : {1u, 2u, 8u}) {
    std::vector<int> visits(103, 0);
    std::vector<int> chunk_of(103, -1);
    runtime::ParallelForOptions options;
    options.num_threads = threads;
    runtime::ParallelForChunks(
        visits.size(), 10,
        [&](size_t chunk, size_t begin, size_t end) {
          EXPECT_EQ(begin, chunk * 10);
          EXPECT_LE(end, visits.size());
          EXPECT_LE(end - begin, 10u);
          for (size_t i = begin; i < end; ++i) {
            visits[i] += 1;
            chunk_of[i] = static_cast<int>(chunk);
          }
        },
        options);
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i], 1) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(chunk_of[i], static_cast<int>(i / 10));
    }
  }
}

TEST(ParallelForChunksTest, OrderedReductionIsThreadCountInvariant) {
  // The reduction recipe the ml fit and the credit engine rely on:
  // per-chunk partial sums folded in chunk order are bitwise-identical
  // at every thread count, because the chunk layout and both summation
  // orders are fixed by (count, chunk_size) alone.
  std::vector<double> values(10007);
  rng::Random random(99);
  for (double& v : values) v = random.UniformDouble(-1.0, 1.0);

  auto reduce = [&values](size_t threads) {
    constexpr size_t kChunk = 64;
    std::vector<double> partials(runtime::NumChunks(values.size(), kChunk));
    runtime::ParallelForOptions options;
    options.num_threads = threads;
    runtime::ParallelForChunks(
        values.size(), kChunk,
        [&](size_t chunk, size_t begin, size_t end) {
          double local = 0.0;
          for (size_t i = begin; i < end; ++i) local += values[i];
          partials[chunk] = local;
        },
        options);
    double total = 0.0;
    for (double partial : partials) total += partial;
    return total;
  };
  const double sequential = reduce(1);
  EXPECT_EQ(reduce(2), sequential);   // Bitwise, not approximate.
  EXPECT_EQ(reduce(8), sequential);
}

TEST(ChunkStagesTest, EveryStageTakesEveryChunkOnceInChunkOrder) {
  // Chunks finish in a shuffled order, each after a different amount of
  // work; three stages must each take chunk 0, 1, 2, ... exactly once,
  // never two at a time, and only after the chunk's own write.
  constexpr size_t kChunks = 97;
  constexpr size_t kStages = 3;
  std::vector<size_t> finish_order(kChunks);
  std::iota(finish_order.begin(), finish_order.end(), size_t{0});
  rng::Random(5).Shuffle(&finish_order);
  for (const size_t workers : {1u, 2u, 3u, 8u}) {
    std::vector<size_t> produced(kChunks, 0);
    std::vector<std::vector<size_t>> taken(kStages);
    std::vector<std::atomic<int>> running(kStages);
    std::atomic<bool> overlapped(false);
    std::vector<runtime::ChunkStages::Stage> stages;
    for (size_t s = 0; s < kStages; ++s) {
      stages.push_back([&, s](size_t c) {
        if (running[s].fetch_add(1) != 0) overlapped = true;
        EXPECT_EQ(produced[c], c + 1);
        taken[s].push_back(c);
        if (running[s].fetch_sub(1) != 1) overlapped = true;
      });
    }
    runtime::ChunkStages chunk_stages(kChunks, std::move(stages));
    runtime::ParallelForOptions options;
    options.num_threads = workers;
    runtime::ParallelFor(
        kChunks,
        [&](size_t i) {
          const size_t c = finish_order[i];
          volatile double spin = 0.0;
          for (size_t j = 0; j < 200 * (c % 7); ++j) spin = spin + 1.0;
          produced[c] = c + 1;
          chunk_stages.Done(c);
        },
        options);
    EXPECT_FALSE(overlapped) << "workers=" << workers;
    std::vector<size_t> in_order(kChunks);
    std::iota(in_order.begin(), in_order.end(), size_t{0});
    for (size_t s = 0; s < kStages; ++s) {
      EXPECT_EQ(taken[s], in_order)
          << "workers=" << workers << " stage=" << s;
    }
  }
}

TEST(ChunkStagesTest, HolderTakesAChunkDoneWhileItHeldTheStage) {
  // Thread A finishes chunk 0 and holds the stage; chunk 1 is marked done
  // while A is inside it, so that Done call returns without running the
  // stage, and A's re-check after releasing it must take chunk 1.
  std::atomic<bool> entered(false), release(false);
  std::vector<size_t> taken;
  std::vector<std::thread::id> takers;
  std::vector<runtime::ChunkStages::Stage> stages;
  stages.push_back([&](size_t c) {
    taken.push_back(c);
    takers.push_back(std::this_thread::get_id());
    if (c != 0) return;
    entered = true;
    while (!release) std::this_thread::yield();
  });
  runtime::ChunkStages chunk_stages(2, std::move(stages));
  std::thread::id holder;
  std::thread a([&] {
    holder = std::this_thread::get_id();
    chunk_stages.Done(0);
  });
  while (!entered) std::this_thread::yield();
  chunk_stages.Done(1);
  release = true;
  a.join();
  ASSERT_EQ(taken, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(takers[0], holder);
  EXPECT_EQ(takers[1], holder);
}

TEST(SeedSequenceTest, MatchesDeriveSeedConvention) {
  runtime::SeedSequence seeds(42);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(seeds.Seed(i), rng::DeriveSeed(42, i));
  }
}

TEST(SeedSequenceTest, ChildrenAreDistinct) {
  runtime::SeedSequence seeds(123);
  std::set<uint64_t> unique;
  for (uint64_t i = 0; i < 1000; ++i) unique.insert(seeds.Seed(i));
  EXPECT_EQ(unique.size(), 1000u);
}

TEST(SeedSequenceTest, ChildOpensNestedNamespace) {
  runtime::SeedSequence seeds(9);
  runtime::SeedSequence child = seeds.Child(3);
  EXPECT_EQ(child.master(), seeds.Seed(3));
  // A child's streams differ from the parent's.
  EXPECT_NE(child.Seed(0), seeds.Seed(0));
}

// The within-trial contract: the credit engine's chunked passes give the
// same trial at 1, 2 and 8 intra-trial threads. A small chunk size makes
// the 500-user cohort span 8 chunks so multi-chunk scheduling is
// genuinely exercised.
TEST(MultiTrialParallelTest, WithinTrialBitwiseIdenticalAcrossThreadCounts) {
  credit::CreditLoopOptions options;
  options.num_users = 500;
  options.users_per_chunk = 64;
  options.seed = 11;

  options.num_threads = 1;
  credit::CreditLoopResult sequential =
      credit::CreditScoringLoop(options).Run();

  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    credit::CreditLoopResult parallel =
        credit::CreditScoringLoop(options).Run();
    EXPECT_EQ(parallel.user_adr, sequential.user_adr)
        << "threads " << threads;
    EXPECT_EQ(parallel.race_adr, sequential.race_adr);
    EXPECT_EQ(parallel.race_approval, sequential.race_approval);
    EXPECT_EQ(parallel.overall_adr, sequential.overall_adr);
    EXPECT_EQ(parallel.races, sequential.races);
    ASSERT_EQ(parallel.scorecards.size(), sequential.scorecards.size());
    for (size_t s = 0; s < sequential.scorecards.size(); ++s) {
      EXPECT_EQ(parallel.scorecards[s].history_weight,
                sequential.scorecards[s].history_weight);
      EXPECT_EQ(parallel.scorecards[s].income_weight,
                sequential.scorecards[s].income_weight);
    }
  }
}

// Trial-level and within-trial parallelism compose without breaking the
// contract: 2 trial workers x 2 intra-trial workers equals sequential.
TEST(MultiTrialParallelTest, NestedParallelismStaysDeterministic) {
  const auto run = [](size_t threads,
                      std::vector<credit::CreditLoopResult>* records) {
    sim::CreditScenarioOptions scenario_options;
    scenario_options.loop.num_users = 300;
    scenario_options.loop.users_per_chunk = 64;
    scenario_options.loop.num_threads = threads;
    scenario_options.keep_raw_series = true;
    sim::CreditScenario scenario(scenario_options);
    scenario.set_collect_trial_records(true);
    sim::ExperimentOptions options;
    options.num_trials = 3;
    options.master_seed = 5;
    options.num_threads = threads;
    const uint64_t digest =
        sim::ExperimentDigest(sim::RunExperiment(&scenario, options));
    *records = scenario.TakeTrialRecords();
    return digest;
  };
  std::vector<credit::CreditLoopResult> sequential, nested;
  const uint64_t reference = run(1, &sequential);
  EXPECT_EQ(run(2, &nested), reference);
  ASSERT_EQ(nested.size(), sequential.size());
  for (size_t t = 0; t < sequential.size(); ++t) {
    EXPECT_EQ(nested[t].user_adr, sequential[t].user_adr) << "trial " << t;
  }
}

TEST(EnsembleStudyTest, BitwiseIdenticalAcrossThreadCounts) {
  std::vector<sim::EnsembleStudySpec> specs;
  for (int i = 0; i < 6; ++i) {
    sim::EnsembleStudySpec spec;
    spec.kind = (i % 2 == 0) ? sim::EnsembleControllerKind::kStableRandomized
                             : sim::EnsembleControllerKind::kIntegralHysteresis;
    spec.initial_on.assign(10, false);
    for (int j = 0; j < i; ++j) spec.initial_on[j] = true;
    specs.push_back(spec);
  }
  sim::EnsembleStudyOptions options;
  options.ensemble.steps = 500;
  options.ensemble.burn_in = 100;
  options.master_seed = 7;

  options.num_threads = 1;
  std::vector<sim::EnsembleRunResult> sequential =
      sim::RunEnsembleStudy(specs, options);
  options.num_threads = 4;
  std::vector<sim::EnsembleRunResult> parallel =
      sim::RunEnsembleStudy(specs, options);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i].per_agent_average, sequential[i].per_agent_average);
    EXPECT_EQ(parallel[i].aggregate_fraction,
              sequential[i].aggregate_fraction);
    EXPECT_EQ(parallel[i].aggregate_average, sequential[i].aggregate_average);
    EXPECT_EQ(parallel[i].final_signal, sequential[i].final_signal);
  }
}

}  // namespace
}  // namespace eqimpact
