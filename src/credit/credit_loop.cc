#include "credit/credit_loop.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "base/check.h"
#include "base/fnv1a.h"
#include "base/serial.h"
#include "credit/population.h"
#include "ml/binned_dataset.h"
#include "ml/scorecard.h"
#include "rng/random.h"
#include "runtime/kernels.h"
#include "runtime/parallel_for.h"
#include "runtime/seed_sequence.h"
#include "runtime/shard.h"
#include "runtime/thread_pool.h"

namespace eqimpact {
namespace credit {
namespace {

// Independent RNG stream indices derived from the master seed, so that
// e.g. changing the repayment draws does not perturb the sampled cohort.
// The race stream seeds one sequential generator (sampling the cohort is
// a one-time cost); the income and repayment streams are roots of nested
// per-(year, chunk) sub-streams — see the chunk passes below. Shards own
// whole chunk ranges, so they inherit their chunks' sub-streams and need
// no streams of their own; a checkpoint consequently stores no RNG
// cursors at all — the streams are re-derived from (seed, year, chunk).
enum StreamIndex : uint64_t {
  kRaceStream = 0,
  kIncomeStream = 1,
  kRepaymentStream = 2,
};

// Scorecard factor templates in feature order [adr, income_code],
// mirroring the rows of the paper's Table I.
std::vector<ml::ScorecardFactor> TableOneTemplates() {
  return {
      {"History", "x Average Default Rate", 0.0},
      {"Income", "> $15K (income code)", 0.0},
  };
}

// What one chunk of the scoring sweep yields: per-race offer counts and
// the approved users' training examples, in user-index order. Merged
// sequentially in chunk order, so the folded history is identical at
// every thread count. The examples travel in one of two forms: raw
// (adr, code) rows + labels for the generic hashed fold, or, on the
// dense-fold fast path, a per-slot label tally over the (offers,
// defaults, code) slots the ADR is the exact ratio of (see DenseSlot).
struct ChunkYield {
  std::array<size_t, kNumRaces> race_offers = {0, 0, 0};
  std::vector<double> rows;    // (adr, income code) pairs, row-major.
  std::vector<double> labels;  // 1 repaid, 0 default.
  ml::SlotCounts counts;       // Dense-fold form.

  void Clear() {
    race_offers = {0, 0, 0};
    rows.clear();
    labels.clear();
    counts.Clear();
  }
};

// Longest horizon the dense fold tallies: every chunk holds a tally of
// DenseSlot(num_years, 0, 0) slots, 8 * num_years^2 bytes. Longer runs
// take the hashed fold, which gives the same bits.
constexpr size_t kMaxDenseYears = 64;

// Index into the dense (offers, defaults, code) slot space: pairs with
// defaults <= offers enumerate triangularly, the code is the low bit.
// offers here is the pre-update counter, <= year index < num_years.
inline size_t DenseSlot(uint32_t offers, uint32_t defaults, uint32_t code) {
  return (static_cast<size_t>(offers) * (offers + 1) / 2 + defaults) * 2 +
         code;
}

// Shards of an unsharded run per worker. ParallelFor hands the shards
// out dynamically, so a worker on a slower core takes fewer of them: on
// a shared 4-core host, one shard per worker ran the credit year 10%
// slower than handing out single chunks, four per worker matched it.
constexpr size_t kShardsPerWorker = 4;

// Scratch of the kernel passes, index-aligned within the chunk being
// run. Owned by a shard (a few per worker) rather than by a chunk, and
// kept across years, so steady-state years run the vector kernels over
// warm buffers without a single allocation.
struct ChunkScratch {
  std::vector<double> income_uniforms;  // 2 pre-drawn draws per user.
  std::vector<double> adr;              // Trailing ADR features.
  std::vector<double> code;             // Income codes.
  std::vector<unsigned char> approved;  // Score-test outcomes.
  std::vector<uint32_t> indices;        // Approved users' chunk offsets.
  std::vector<double> dense_income;     // Approved incomes, compacted.
  std::vector<double> shares;           // Surplus shares (CDF scratch).
  std::vector<double> probability;      // Repayment probabilities.
};

// Loop snapshot framing: magic ("EQCK"), format version, and a trailing
// FNV-1a checksum over every preceding byte. The options fingerprint
// binds a snapshot to the run configuration that can reproduce its bits;
// it covers exactly the output-affecting options — never num_shards,
// num_threads, pool or the checkpoint knobs themselves, which are
// bitwise-neutral by the engine's determinism contract, so a trial
// checkpointed unsharded may be resumed sharded (and vice versa).
constexpr uint32_t kLoopSnapshotMagic = 0x4b435145u;  // "EQCK"
constexpr uint32_t kLoopSnapshotVersion = 1;

uint64_t HashBytes(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t LoopOptionsFingerprint(const CreditLoopOptions& o) {
  base::Fnv1a f;
  f.Mix(o.num_users);
  f.Mix(static_cast<uint64_t>(static_cast<int64_t>(o.first_year)));
  f.Mix(static_cast<uint64_t>(static_cast<int64_t>(o.last_year)));
  f.Mix(o.warmup_steps);
  f.MixDouble(o.cutoff);
  f.MixDouble(o.income_code_threshold);
  f.MixDouble(o.forgetting_factor);
  f.Mix(o.accumulate_history ? 1 : 0);
  f.MixDouble(o.history_adr_bin_width);
  f.MixDouble(o.repayment.income_multiple);
  f.MixDouble(o.repayment.annual_rate);
  f.MixDouble(o.repayment.living_cost);
  f.MixDouble(o.repayment.sensitivity);
  f.Mix(o.logistic.fit_intercept ? 1 : 0);
  f.MixDouble(o.logistic.l2_penalty);
  f.Mix(static_cast<uint64_t>(static_cast<int64_t>(o.logistic.max_iterations)));
  f.MixDouble(o.logistic.tolerance);
  f.Mix(o.logistic.gradient_fallback ? 1 : 0);
  f.Mix(static_cast<uint64_t>(
      static_cast<int64_t>(o.logistic.gradient_iterations)));
  f.MixDouble(o.logistic.learning_rate);
  f.Mix(o.logistic.rows_per_chunk);
  f.Mix(o.seed);
  f.Mix(o.users_per_chunk);
  f.Mix(o.keep_user_adr ? 1 : 0);
  return f.hash();
}

}  // namespace

CreditScoringLoop::CreditScoringLoop(CreditLoopOptions options)
    : options_(options) {
  EQIMPACT_CHECK_GT(options_.num_users, 0u);
  EQIMPACT_CHECK_LE(options_.first_year, options_.last_year);
  EQIMPACT_CHECK_GE(options_.warmup_steps, 1u);
  EQIMPACT_CHECK_GT(options_.users_per_chunk, 0u);
}

CreditLoopResult CreditScoringLoop::Run() const { return Run(YearObserver()); }

CreditLoopResult CreditScoringLoop::Run(const YearObserver& observer) const {
  const size_t num_users = options_.num_users;
  const size_t num_years =
      static_cast<size_t>(options_.last_year - options_.first_year) + 1;
  const size_t chunk_size = options_.users_per_chunk;
  const size_t num_chunks = runtime::NumChunks(num_users, chunk_size);

  const runtime::SeedSequence seeds(options_.seed);
  const runtime::SeedSequence income_streams = seeds.Child(kIncomeStream);
  const runtime::SeedSequence repayment_streams =
      seeds.Child(kRepaymentStream);

  // Resume: validate the snapshot's framing up front (checksum over
  // every byte before the trailer, then magic / version / options
  // fingerprint), then read its fields in lockstep with the engine-state
  // construction below — the blob layout is exactly the construction
  // order.
  const uint64_t fingerprint = LoopOptionsFingerprint(options_);
  std::optional<base::BinaryReader> resume;
  size_t start_step = 0;
  if (options_.resume_state != nullptr) {
    const std::vector<uint8_t>& blob = *options_.resume_state;
    EQIMPACT_CHECK_GT(blob.size(), sizeof(uint64_t));
    const size_t body_size = blob.size() - sizeof(uint64_t);
    base::BinaryReader trailer(blob.data() + body_size, sizeof(uint64_t));
    EQIMPACT_CHECK_EQ(trailer.ReadU64(), HashBytes(blob.data(), body_size));
    resume.emplace(blob.data(), body_size);
    EQIMPACT_CHECK_EQ(resume->ReadU32(), kLoopSnapshotMagic);
    EQIMPACT_CHECK_EQ(resume->ReadU32(), kLoopSnapshotVersion);
    EQIMPACT_CHECK_EQ(resume->ReadU64(), fingerprint);
    start_step = resume->ReadSize();
    EQIMPACT_CHECK(resume->ok());
    EQIMPACT_CHECK_LE(start_step, num_years);
  }

  const IncomeModel income_model;
  std::optional<Population> population_storage;
  if (resume) {
    std::vector<uint8_t> race_ids = resume->ReadU8Vector();
    EQIMPACT_CHECK(resume->ok());
    EQIMPACT_CHECK_EQ(race_ids.size(), num_users);
    population_storage.emplace(std::move(race_ids));
  } else {
    rng::Random race_rng(seeds.Seed(kRaceStream));
    population_storage.emplace(num_users, &race_rng);
  }
  Population& population = *population_storage;
  const RepaymentModel repayment(options_.repayment);
  AdrFilter filter(population.races(), options_.forgetting_factor);
  if (resume) {
    std::vector<double> offer_weight = resume->ReadDoubleVector();
    std::vector<double> default_weight = resume->ReadDoubleVector();
    std::vector<int64_t> offer_count = resume->ReadI64Vector();
    EQIMPACT_CHECK(resume->ok());
    filter.RestoreState(std::move(offer_weight), std::move(default_weight),
                        std::move(offer_count));
  }
  const std::vector<uint8_t>& race_ids = population.race_ids();

  // Within-trial dispatch: one persistent pool for the whole trial (the
  // per-year passes are far too fine-grained to spawn threads per call).
  // A caller-owned pool (options().pool) replaces the engine's own, so
  // sequential multi-trial drivers amortize one pool across trials; the
  // worker count never affects the output. A one-chunk trial runs
  // everything inline on this thread, even when handed a pool, and so
  // does every observer that fans out over YearSnapshot::dispatch.
  runtime::ParallelForOptions dispatch;
  dispatch.num_threads = 1;
  std::unique_ptr<runtime::ThreadPool> pool;
  if (num_chunks > 1 && options_.pool != nullptr) {
    dispatch.pool = options_.pool;
  } else if (num_chunks > 1) {
    runtime::ParallelForOptions requested;
    requested.num_threads = options_.num_threads;
    const size_t workers =
        std::min(runtime::EffectiveNumThreads(requested), num_chunks);
    if (workers > 1) {
      pool = std::make_unique<runtime::ThreadPool>(workers);
      dispatch.pool = pool.get();
    }
  }
  const size_t num_workers = runtime::EffectiveNumThreads(dispatch);

  // Chunk dispatch: the population is cut into shards of whole,
  // contiguous chunks — options().num_shards of them, or
  // kShardsPerWorker per worker when unsharded — and each shard is one
  // ParallelFor iteration walking its chunks in order. Every
  // configuration executes exactly the same chunk bodies on exactly the
  // same (chunk, begin, end) triples — sharding regroups execution,
  // never the work. A shard runs on one worker at a time, so it picks
  // the kernel scratch, never an output.
  const runtime::ShardPlan plan = runtime::MakeShardPlan(
      num_users, chunk_size,
      options_.num_shards > 1 ? options_.num_shards
                              : kShardsPerWorker * num_workers);
  const auto for_each_chunk =
      [&](const std::function<void(size_t, size_t, size_t, size_t)>&
              chunk_body) {
        runtime::ParallelFor(
            plan.num_shards(),
            [&](size_t s) {
              const runtime::ShardRange& shard = plan.shards[s];
              for (size_t c = shard.chunk_begin; c < shard.chunk_end; ++c) {
                const size_t begin = c * chunk_size;
                const size_t end = std::min(begin + chunk_size, num_users);
                chunk_body(s, c, begin, end);
              }
            },
            dispatch);
      };

  CreditLoopResult result;
  result.years.reserve(num_years);
  result.races = population.races();
  if (options_.keep_user_adr) {
    result.user_adr.assign(num_users, {});
    for (auto& series : result.user_adr) series.reserve(num_years);
  }
  result.race_adr.assign(kNumRaces, {});
  result.race_approval.assign(kNumRaces, {});
  for (size_t r = 0; r < kNumRaces; ++r) {
    result.race_adr[r].reserve(num_years);
    result.race_approval[r].reserve(num_years);
  }
  result.overall_adr.reserve(num_years);

  // Training examples accumulated by the loop's filter block: features
  // [ADR_i(k-1), income code at k] with label y_i(k), recorded only for
  // offered mortgages (repayment is unobservable otherwise). The history
  // is held as sufficient statistics — weighted unique (ADR, code)
  // groups — so its size is O(groups) (a few hundred under the paper's
  // accumulating filter), never O(num_users x num_years).
  ml::BinnedDatasetOptions history_options;
  double adr_bin_width = options_.history_adr_bin_width;
  if (adr_bin_width < 0.0) {
    adr_bin_width =
        options_.forgetting_factor == 1.0 ? 0.0 : 0x1.0p-16;
  }
  history_options.bin_widths = {adr_bin_width, 0.0};
  ml::BinnedDataset history(2, history_options);
  // Dense-fold fast path: under the paper's accumulating filter every
  // ADR is the exact ratio of two small integer counters, so each chunk
  // tallies its examples per (counters, code) slot, and the year's fold
  // is one BinnedDataset::AddCounts per chunk, in chunk order, instead of
  // a row per example. slot_rows holds each slot's (adr, code) row, the
  // same IEEE division AdrInto's guarded ratio performs, and
  // dense_groups caches slot -> group across years. Only valid while
  // the counters are exact integers (forgetting factor 1, exact ADR
  // grouping) and group ids are never invalidated (accumulated history
  // — Clear would orphan the cache).
  const bool dense_fold =
      options_.dense_history_fold && options_.forgetting_factor == 1.0 &&
      adr_bin_width == 0.0 && options_.accumulate_history &&
      num_years <= kMaxDenseYears;
  const uint32_t dense_years =
      dense_fold ? static_cast<uint32_t>(num_years) : 0;
  const size_t dense_slots = DenseSlot(dense_years, 0, 0);
  std::vector<double> slot_rows(2 * dense_slots);
  for (uint32_t offers = 0; offers < dense_years; ++offers) {
    for (uint32_t defaults = 0; defaults <= offers; ++defaults) {
      for (uint32_t code = 0; code < 2; ++code) {
        double* row = &slot_rows[2 * DenseSlot(offers, defaults, code)];
        row[0] = offers == 0 ? 0.0
                             : static_cast<double>(defaults) /
                                   static_cast<double>(offers);
        row[1] = code;
      }
    }
  }
  std::vector<uint32_t> dense_groups(dense_slots,
                                     ml::BinnedDataset::kNoSlotGroup);
  if (resume) {
    EQIMPACT_CHECK(history.Deserialize(&*resume));
    // dense_groups deliberately stays cold: it is a pure cache (a slot
    // miss re-derives the group by key, finding the existing group), so
    // resumed bits never depend on it.
  }
  std::optional<ml::Scorecard> current_scorecard;
  const std::vector<ml::ScorecardFactor> factor_templates =
      TableOneTemplates();
  // One trainer for the whole trial: the yearly refit warm-starts from
  // last year's weights, which on the slowly growing history cuts the
  // Newton iterations to a couple per year, and its chunked
  // gradient/Hessian reduction follows the loop's thread budget on the
  // same persistent pool as the per-year passes.
  ml::LogisticRegressionOptions trainer_options = options_.logistic;
  trainer_options.warm_start = true;
  trainer_options.num_threads = num_workers;
  trainer_options.pool = dispatch.pool;
  ml::LogisticRegression trainer(trainer_options);
  if (resume) {
    const bool fitted = resume->ReadBool();
    std::vector<double> weights = resume->ReadDoubleVector();
    const double intercept = resume->ReadDouble();
    const bool has_scorecard = resume->ReadBool();
    EQIMPACT_CHECK(resume->ok());
    if (fitted) trainer.RestoreFit(linalg::Vector(std::move(weights)),
                                   intercept);
    // Every in-force scorecard equals FromModel of the trainer's latest
    // successful fit (a failed refit leaves both untouched), so the
    // snapshot stores only the flag and rebuilds the card here.
    if (has_scorecard) {
      current_scorecard = ml::Scorecard::FromModel(trainer, factor_templates,
                                                   options_.cutoff);
    }
  }

  // Hot-path scalars hoisted out of the sweep.
  const double code_threshold = options_.income_code_threshold;

  // Reused per-year buffers. The snapshot (every user's post-update
  // ADR) is written chunk by chunk in pass 2, only when someone reads it.
  std::vector<double> uniforms(num_users);
  std::vector<ChunkYield> yields(num_chunks);
  if (dense_fold) {
    for (ChunkYield& yield : yields) yield.counts = ml::SlotCounts(dense_slots);
  }
  std::vector<ChunkScratch> scratches(plan.num_shards());
  const bool snapshot_users = options_.keep_user_adr || observer != nullptr;
  std::vector<double> adr_snapshot(snapshot_users ? num_users : 0);
  const std::vector<double>& incomes = population.incomes();

  if (resume) {
    for (size_t r = 0; r < kNumRaces; ++r) {
      result.race_adr[r] = resume->ReadDoubleVector();
      EQIMPACT_CHECK_EQ(result.race_adr[r].size(), start_step);
    }
    for (size_t r = 0; r < kNumRaces; ++r) {
      result.race_approval[r] = resume->ReadDoubleVector();
      EQIMPACT_CHECK_EQ(result.race_approval[r].size(), start_step);
    }
    result.overall_adr = resume->ReadDoubleVector();
    EQIMPACT_CHECK_EQ(result.overall_adr.size(), start_step);
    const size_t num_scorecards = resume->ReadSize();
    EQIMPACT_CHECK(resume->ok());
    result.scorecards.reserve(num_scorecards);
    for (size_t i = 0; i < num_scorecards; ++i) {
      ScorecardSnapshot snapshot;
      snapshot.year = static_cast<int>(resume->ReadI64());
      snapshot.history_weight = resume->ReadDouble();
      snapshot.income_weight = resume->ReadDouble();
      snapshot.intercept = resume->ReadDouble();
      result.scorecards.push_back(snapshot);
    }
    if (options_.keep_user_adr) {
      std::vector<double> flat = resume->ReadDoubleVector();
      EQIMPACT_CHECK_EQ(flat.size(), num_users * start_step);
      for (size_t i = 0; i < num_users; ++i) {
        result.user_adr[i].assign(flat.begin() + i * start_step,
                                  flat.begin() + (i + 1) * start_step);
        result.user_adr[i].reserve(num_years);
      }
    }
    EQIMPACT_CHECK(resume->AtEnd());
    for (size_t k = 0; k < start_step; ++k) {
      result.years.push_back(options_.first_year + static_cast<int>(k));
    }
  }

  // Serializes the complete loop state after `years_completed` years, in
  // the exact field order the resume path consumes above, framed by
  // magic/version/fingerprint and sealed with a byte checksum.
  const auto write_checkpoint = [&](size_t years_completed) {
    base::BinaryWriter writer;
    writer.WriteU32(kLoopSnapshotMagic);
    writer.WriteU32(kLoopSnapshotVersion);
    writer.WriteU64(fingerprint);
    writer.WriteSize(years_completed);
    writer.WriteU8Vector(race_ids);
    writer.WriteDoubleVector(filter.offer_weights());
    writer.WriteDoubleVector(filter.default_weights());
    writer.WriteI64Vector(filter.offer_counts());
    history.Serialize(&writer);
    writer.WriteBool(trainer.fitted());
    writer.WriteDoubleVector(trainer.weights().data());
    writer.WriteDouble(trainer.intercept());
    writer.WriteBool(current_scorecard.has_value());
    for (size_t r = 0; r < kNumRaces; ++r) {
      writer.WriteDoubleVector(result.race_adr[r]);
    }
    for (size_t r = 0; r < kNumRaces; ++r) {
      writer.WriteDoubleVector(result.race_approval[r]);
    }
    writer.WriteDoubleVector(result.overall_adr);
    writer.WriteSize(result.scorecards.size());
    for (const ScorecardSnapshot& snapshot : result.scorecards) {
      writer.WriteI64(snapshot.year);
      writer.WriteDouble(snapshot.history_weight);
      writer.WriteDouble(snapshot.income_weight);
      writer.WriteDouble(snapshot.intercept);
    }
    if (options_.keep_user_adr) {
      std::vector<double> flat;
      flat.reserve(num_users * years_completed);
      for (size_t i = 0; i < num_users; ++i) {
        flat.insert(flat.end(), result.user_adr[i].begin(),
                    result.user_adr[i].end());
      }
      writer.WriteDoubleVector(flat);
    }
    writer.WriteU64(HashBytes(writer.buffer().data(), writer.size()));
    options_.checkpoint_sink(years_completed, writer.buffer());
  };

  for (size_t k = start_step; k < num_years; ++k) {
    const int year = options_.first_year + static_cast<int>(k);
    result.years.push_back(year);

    // Pass 1 — pre-draw: resample every income for this year and draw one
    // repayment uniform per user, chunk by chunk. Each chunk owns RNG
    // streams derived from (stream root, year, chunk index), so the
    // filled arrays depend only on (seed, users_per_chunk), never on
    // which worker ran the chunk. Drawing the uniform unconditionally
    // (the legacy path drew only for approved users with positive
    // repayment probability) is what decouples the draws from the
    // decisions and makes the scoring sweep embarrassingly parallel.
    // Every draw goes through the generator's multi-stream batch fill
    // (bit-for-bit the sequential stream): one FillUniformDouble for the
    // chunk's 2-per-user income draws, transformed by the year sampler,
    // and one for its repayment uniforms.
    const YearIncomeSampler sampler(income_model, year);
    const runtime::SeedSequence income_year = income_streams.Child(k);
    const runtime::SeedSequence repayment_year = repayment_streams.Child(k);
    for_each_chunk([&](size_t s, size_t c, size_t begin, size_t end) {
      rng::Random income_rng(income_year.Seed(c));
      rng::Random repayment_rng(repayment_year.Seed(c));
      ChunkScratch& scratch = scratches[s];
      const size_t count = end - begin;
      scratch.income_uniforms.resize(2 * count);
      income_rng.FillUniformDouble(scratch.income_uniforms.data(),
                                   2 * count);
      population.ResampleIncomesFromUniforms(
          sampler, begin, end, scratch.income_uniforms.data());
      repayment_rng.FillUniformDouble(&uniforms[begin], count);
    });

    // Retrain the AI system once the warm-up has produced data. If the
    // fit is impossible (single-class history) or fails, the previous
    // scorecard — or the warm-up policy if none exists — stays in force.
    if (k >= options_.warmup_steps && history.HasBothClasses()) {
      ml::FitResult fit = trainer.Fit(history);
      if (fit.success) {
        current_scorecard = ml::Scorecard::FromModel(trainer, factor_templates,
                                                     options_.cutoff);
        result.scorecards.push_back(ScorecardSnapshot{
            year, trainer.weights()[0], trainer.weights()[1],
            trainer.intercept()});
      }
    }

    // The year's policy, reduced to scalars: during warm-up (or before
    // the first successful fit) everyone is approved; afterwards the
    // scorecard test s(x) > cutoff runs inline. Both policies size the
    // mortgage at income_multiple x income, and neither consults
    // has_defaulted, so the sweep needs no default-history array.
    const bool use_scorecard =
        k >= options_.warmup_steps && current_scorecard.has_value();
    runtime::kernels::ScoreParams score_params;
    score_params.code_threshold = code_threshold;
    score_params.base_points =
        use_scorecard ? current_scorecard->base_points() : 0.0;
    score_params.adr_weight =
        use_scorecard ? current_scorecard->factor(0).score : 0.0;
    score_params.code_weight =
        use_scorecard ? current_scorecard->factor(1).score : 0.0;
    score_params.cutoff = options_.cutoff;

    // Pass 2 — scoring sweep: decide, act, filter. Each user touches only
    // their own filter slots, each chunk writes only its own yield and
    // snapshot range, and the kernel scratch belongs to the shard running
    // the chunk, so chunks run concurrently; the pre-drawn uniform makes
    // the repayment action a pure function of (income, uniform). The
    // per-user work is staged through the vector kernels: trailing ADRs
    // and the code/score/cut-off test sweep branch-free over the SoA
    // arrays (ScoreSweep replicates Scorecard::Score's evaluation order,
    // pinned to ScorecardPolicy::Decide by
    // CreditLoopTest.InlineApprovalRuleMatchesScorecardPolicy; NaN
    // scores decline, like the legacy !(score > cutoff) test), approved
    // incomes are compacted so the expensive normal CDF runs only for
    // them, and a final scalar loop applies the repayment action and
    // filter update in user order. The chunk then writes its users'
    // post-update ADRs into the year's snapshot.
    for_each_chunk([&](size_t s, size_t c, size_t begin, size_t end) {
      ChunkYield& yield = yields[c];
      ChunkScratch& scratch = scratches[s];
      yield.Clear();
      const size_t count = end - begin;
      scratch.adr.resize(count);
      scratch.code.resize(count);
      scratch.indices.resize(count);
      scratch.dense_income.resize(count);
      filter.AdrInto(begin, end, scratch.adr.data());
      size_t approved_count = 0;
      if (use_scorecard) {
        scratch.approved.resize(count);
        runtime::kernels::ScoreSweep(
            incomes.data() + begin, scratch.adr.data(), count,
            score_params, scratch.code.data(), scratch.approved.data());
        for (size_t j = 0; j < count; ++j) {
          if (scratch.approved[j]) {  // Declined users' ADRs freeze.
            scratch.indices[approved_count] = static_cast<uint32_t>(j);
            scratch.dense_income[approved_count] = incomes[begin + j];
            ++approved_count;
          }
        }
      } else {
        runtime::kernels::IncomeCode(incomes.data() + begin, count,
                                     code_threshold,
                                     scratch.code.data());
        for (size_t j = 0; j < count; ++j) {
          scratch.indices[j] = static_cast<uint32_t>(j);
          scratch.dense_income[j] = incomes[begin + j];
        }
        approved_count = count;
      }
      scratch.shares.resize(count);
      scratch.probability.resize(count);
      repayment.ProbabilityBatch(scratch.dense_income.data(),
                                 approved_count, scratch.shares.data(),
                                 scratch.probability.data());
      for (size_t t = 0; t < approved_count; ++t) {
        const size_t j = scratch.indices[t];
        const size_t i = begin + j;
        const double p = scratch.probability[t];
        const bool repaid = p > 0.0 && uniforms[i] < p;
        if (dense_fold) {
          // Tally under the pre-update integer counters whose guarded
          // ratio is exactly scratch.adr[j].
          yield.counts.Add(
              DenseSlot(static_cast<uint32_t>(filter.UserOfferWeight(i)),
                        static_cast<uint32_t>(filter.UserDefaultWeight(i)),
                        scratch.code[j] != 0.0 ? 1u : 0u),
              repaid);
        } else {
          yield.rows.push_back(scratch.adr[j]);
          yield.rows.push_back(scratch.code[j]);
          yield.labels.push_back(repaid ? 1.0 : 0.0);
        }
        filter.Update(i, true, repaid);
        ++yield.race_offers[race_ids[i]];
      }
      if (snapshot_users) {
        filter.AdrInto(begin, end, &adr_snapshot[begin]);
        if (options_.keep_user_adr) {
          for (size_t i = begin; i < end; ++i) {
            result.user_adr[i].push_back(adr_snapshot[i]);
          }
        }
      }
    });

    // Merge the chunk yields in chunk (= user) order, folding this
    // year's observations into the grouped history. The fold order is the
    // trial order (chunk 0, 1, ...), so group indices — and with them the
    // fit's accumulation order — are identical at every thread and shard
    // count.
    std::array<size_t, kNumRaces> race_offers = {0, 0, 0};
    if (!options_.accumulate_history) history.Clear();
    for (const ChunkYield& yield : yields) {
      for (size_t r = 0; r < kNumRaces; ++r) {
        race_offers[r] += yield.race_offers[r];
      }
      if (dense_fold) {
        history.AddCounts(yield.counts, slot_rows.data(), &dense_groups);
      } else {
        history.AddBatch(yield.rows.data(), yield.labels.data(),
                         yield.labels.size());
      }
    }

    // Record the year's aggregates — one fused pass over the filter.
    const AdrFilter::Summary summary = filter.Summarize();
    for (size_t r = 0; r < kNumRaces; ++r) {
      result.race_adr[r].push_back(summary.race_adr[r]);
      const size_t members = population.CountRace(static_cast<Race>(r));
      result.race_approval[r].push_back(
          members == 0 ? 0.0
                       : static_cast<double>(race_offers[r]) /
                             static_cast<double>(members));
    }
    result.overall_adr.push_back(summary.overall_adr);

    if (observer) {
      observer(YearSnapshot{k, year, adr_snapshot, result.races, race_ids,
                            dispatch});
    }

    if (options_.checkpoint_sink) write_checkpoint(k + 1);
  }
  return result;
}

}  // namespace credit
}  // namespace eqimpact
