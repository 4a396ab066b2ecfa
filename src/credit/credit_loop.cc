#include "credit/credit_loop.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
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
#include "runtime/chunk_stages.h"
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

// Shards of whole chunks per worker. ParallelFor hands the shards
// out dynamically, so a worker on a slower core takes fewer of them: on
// a shared 4-core host, one shard per worker ran the credit year 10%
// slower than handing out single chunks, four per worker matched it.
constexpr size_t kShardsPerWorker = 4;

// Scratch of the kernel pass, index-aligned within the chunk being
// run. Owned by a shard (a few per worker) rather than by a chunk, and
// kept across years, so steady-state years run the vector kernels over
// warm buffers without a single allocation.
struct ChunkScratch {
  std::vector<double> income_uniforms;     // 2 pre-drawn draws per user.
  std::vector<double> repayment_uniforms;  // 1 pre-drawn draw per user.
  std::vector<double> adr;  // Trailing ADR features, then updated ADRs.
  std::vector<double> code;             // Income codes.
  std::vector<unsigned char> approved;  // Score-test outcomes.
  std::vector<uint32_t> indices;        // Approved users' chunk offsets.
  std::vector<double> dense_income;     // Approved incomes, compacted.
  std::vector<double> shares;           // Surplus shares (CDF scratch).
  std::vector<double> probability;      // Repayment probabilities.
};

// Loop snapshot framing (base::BeginFrame): magic "EQCK" and format
// version 1. The options fingerprint binds a snapshot to the run
// configuration that can reproduce its bits; it covers exactly the
// output-affecting options — never num_threads, pool or the checkpoint
// knobs themselves, which are bitwise-neutral by the engine's
// determinism contract, so a trial checkpointed at one thread count may
// be resumed at another.
constexpr uint32_t kLoopSnapshotMagic = 0x4b435145u;  // "EQCK"
constexpr uint32_t kLoopSnapshotVersion = 1;

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

size_t NumYears(const CreditLoopOptions& options) {
  return static_cast<size_t>(options.last_year - options.first_year) + 1;
}

// The refit history's grouping: exact income codes, and the ADR feature
// at history_adr_bin_width, whose negative default means exact under
// the accumulating filter and 2^-16 otherwise.
ml::BinnedDatasetOptions HistoryOptions(const CreditLoopOptions& options) {
  double adr_bin_width = options.history_adr_bin_width;
  if (adr_bin_width < 0.0) {
    adr_bin_width = options.forgetting_factor == 1.0 ? 0.0 : 0x1.0p-16;
  }
  ml::BinnedDatasetOptions history_options;
  history_options.bin_widths = {adr_bin_width, 0.0};
  return history_options;
}

// Dense-fold fast path: under the paper's accumulating filter every
// ADR is the exact ratio of two small integer counters, so each chunk
// tallies its examples per (counters, code) slot, and the year's fold
// is one BinnedDataset::AddCounts per chunk, in chunk order, instead of
// a row per example. Only valid while the counters are exact integers
// (forgetting factor 1, exact ADR grouping) and group ids are never
// invalidated (accumulated history — Clear would orphan the cache).
bool DenseFold(const CreditLoopOptions& options) {
  return options.dense_history_fold && options.forgetting_factor == 1.0 &&
         HistoryOptions(options).bin_widths[0] == 0.0 &&
         options.accumulate_history && NumYears(options) <= kMaxDenseYears;
}

// The trainer of the yearly refit, which warm-starts from last year's
// weights (on the slowly growing history that cuts the Newton
// iterations to a couple per year) and reduces its chunked
// gradient/Hessian on the loop's own dispatch.
ml::LogisticRegressionOptions TrainerOptions(
    const CreditLoopOptions& options,
    const runtime::ParallelForOptions& dispatch) {
  ml::LogisticRegressionOptions trainer_options = options.logistic;
  trainer_options.warm_start = true;
  trainer_options.num_threads = runtime::EffectiveNumThreads(dispatch);
  trainer_options.pool = dispatch.pool;
  return trainer_options;
}

// Appends a zeroed record, padding bytes included, so that records with
// equal fields compare equal bytewise.
ScorecardSnapshot& AppendScorecard(std::vector<ScorecardSnapshot>* cards) {
  ScorecardSnapshot& card = cards->emplace_back();
  std::memset(static_cast<void*>(&card), 0, sizeof(card));
  return card;
}

// The trial after `years_completed` years: everything a checkpoint
// carries and nothing else. Run gets one, fresh (FreshTrial) or decoded
// (DecodeTrialState), and StepYear advances it a year at a time;
// EncodeTrialState writes it.
struct TrialState {
  TrialState(const CreditLoopOptions& options, Population cohort,
             const ml::LogisticRegressionOptions& trainer_options);

  size_t years_completed = 0;
  // Races are sampled once; incomes are redrawn every year, so the
  // snapshot stores the race ids alone.
  Population population;
  AdrFilter filter;
  // Training examples accumulated by the loop's filter block: features
  // [ADR_i(k-1), income code at k] with label y_i(k), recorded only for
  // offered mortgages (repayment is unobservable otherwise). The history
  // is held as sufficient statistics — weighted unique (ADR, code)
  // groups — so its size is O(groups) (a few hundred under the paper's
  // accumulating filter), never O(num_users x num_years).
  ml::BinnedDataset history;
  ml::LogisticRegression trainer;
  // Every in-force scorecard equals FromModel of the trainer's latest
  // successful fit (a failed refit leaves both untouched), so the
  // snapshot stores only whether one is in force.
  std::optional<ml::Scorecard> scorecard;
  // The per-year series so far.
  CreditLoopResult result;
};

TrialState::TrialState(const CreditLoopOptions& options, Population cohort,
                       const ml::LogisticRegressionOptions& trainer_options)
    : population(std::move(cohort)),
      filter(population.size(), options.forgetting_factor),
      history(2, HistoryOptions(options)),
      trainer(trainer_options) {
  const size_t num_years = NumYears(options);
  result.years.reserve(num_years);
  result.races = population.races();
  if (options.keep_user_adr) {
    result.user_adr.assign(population.size(), {});
    for (auto& series : result.user_adr) series.reserve(num_years);
  }
  result.race_adr.assign(kNumRaces, {});
  result.race_approval.assign(kNumRaces, {});
  for (size_t r = 0; r < kNumRaces; ++r) {
    result.race_adr[r].reserve(num_years);
    result.race_approval[r].reserve(num_years);
  }
  result.overall_adr.reserve(num_years);
}

TrialState FreshTrial(const CreditLoopOptions& options,
                      const ml::LogisticRegressionOptions& trainer_options) {
  rng::Random race_rng(runtime::SeedSequence(options.seed).Seed(kRaceStream));
  return TrialState(options, Population(options.num_users, &race_rng),
                    trainer_options);
}

// The snapshot of `state`, framed and sealed. DecodeTrialState reads
// these fields back in this order.
std::vector<uint8_t> EncodeTrialState(const CreditLoopOptions& options,
                                      const TrialState& state) {
  base::BinaryWriter writer;
  base::BeginFrame(kLoopSnapshotMagic, kLoopSnapshotVersion,
                   LoopOptionsFingerprint(options), &writer);
  writer.WriteSize(state.years_completed);
  writer.WriteU8Vector(state.population.race_ids());
  writer.WriteDoubleVector(state.filter.offer_weights());
  writer.WriteDoubleVector(state.filter.default_weights());
  writer.WriteI64Vector(state.filter.offer_counts());
  state.history.Serialize(&writer);
  writer.WriteBool(state.trainer.fitted());
  writer.WriteDoubleVector(state.trainer.weights().data());
  writer.WriteDouble(state.trainer.intercept());
  writer.WriteBool(state.scorecard.has_value());
  const CreditLoopResult& result = state.result;
  for (const auto& series : result.race_adr) writer.WriteDoubleVector(series);
  for (const auto& series : result.race_approval) {
    writer.WriteDoubleVector(series);
  }
  writer.WriteDoubleVector(result.overall_adr);
  writer.WriteSize(result.scorecards.size());
  for (const ScorecardSnapshot& card : result.scorecards) {
    writer.WriteI64(card.year);
    writer.WriteDouble(card.history_weight);
    writer.WriteDouble(card.income_weight);
    writer.WriteDouble(card.intercept);
  }
  if (options.keep_user_adr) {
    std::vector<double> flat;
    flat.reserve(result.user_adr.size() * state.years_completed);
    for (const auto& series : result.user_adr) {
      flat.insert(flat.end(), series.begin(), series.end());
    }
    writer.WriteDoubleVector(flat);
  }
  base::SealFrame(&writer);
  return writer.TakeBuffer();
}

// Reads an EncodeTrialState snapshot for `options`, field for field. It
// never aborts: before anything is built from a field, the field must be
// one the engine could have written under these options, including
// every value later code CHECKs or indexes by. Anything else is kShape.
base::SnapshotStatus DecodeTrialState(
    const CreditLoopOptions& options, const std::vector<uint8_t>& snapshot,
    const ml::LogisticRegressionOptions& trainer_options,
    std::optional<TrialState>* state) {
  using base::SnapshotStatus;
  base::BinaryReader reader(nullptr, 0);
  const SnapshotStatus frame =
      base::OpenFrame(snapshot, kLoopSnapshotMagic, kLoopSnapshotVersion,
                      LoopOptionsFingerprint(options), &reader);
  if (frame != SnapshotStatus::kOk) return frame;
  const size_t num_users = options.num_users;
  const size_t years = reader.ReadSize();
  std::vector<uint8_t> race_ids = reader.ReadU8Vector();
  std::vector<double> offer_weight = reader.ReadDoubleVector();
  std::vector<double> default_weight = reader.ReadDoubleVector();
  std::vector<int64_t> offer_count = reader.ReadI64Vector();
  if (!reader.ok() || years > NumYears(options) || race_ids.empty() ||
      race_ids.size() != num_users || offer_weight.size() != num_users ||
      default_weight.size() != num_users || offer_count.size() != num_users) {
    return SnapshotStatus::kShape;
  }
  for (const uint8_t id : race_ids) {
    if (id >= kNumRaces) return SnapshotStatus::kShape;
  }
  if (DenseFold(options)) {
    // DenseSlot and SlotCounts::Add index by the counters: whole
    // numbers with 0 <= defaults <= offers <= years completed.
    for (size_t i = 0; i < num_users; ++i) {
      const double offers = offer_weight[i];
      const double defaults = default_weight[i];
      if (!(0.0 <= defaults && defaults <= offers &&
            offers <= static_cast<double>(years) &&
            offers == std::floor(offers) &&
            defaults == std::floor(defaults))) {
        return SnapshotStatus::kShape;
      }
    }
  }
  state->emplace(options, Population(std::move(race_ids)), trainer_options);
  TrialState& trial = **state;
  trial.years_completed = years;
  trial.filter.RestoreState(std::move(offer_weight), std::move(default_weight),
                            std::move(offer_count));
  if (!trial.history.Deserialize(&reader)) return SnapshotStatus::kShape;
  const bool fitted = reader.ReadBool();
  std::vector<double> weights = reader.ReadDoubleVector();
  const double intercept = reader.ReadDouble();
  const bool has_scorecard = reader.ReadBool();
  // Unfitted, the trainer has no weights; fitted, one per feature. Only
  // a fit backs a scorecard.
  if (!reader.ok() || weights.size() != (fitted ? 2u : 0u) ||
      (has_scorecard && !fitted)) {
    return SnapshotStatus::kShape;
  }
  if (fitted) {
    trial.trainer.RestoreFit(linalg::Vector(std::move(weights)), intercept);
  }
  if (has_scorecard) {
    trial.scorecard = ml::Scorecard::FromModel(
        trial.trainer, TableOneTemplates(), options.cutoff);
  }
  CreditLoopResult& result = trial.result;
  const auto read_series = [&reader, years](std::vector<double>* series) {
    *series = reader.ReadDoubleVector();
    return reader.ok() && series->size() == years;
  };
  for (auto& series : result.race_adr) {
    if (!read_series(&series)) return SnapshotStatus::kShape;
  }
  for (auto& series : result.race_approval) {
    if (!read_series(&series)) return SnapshotStatus::kShape;
  }
  if (!read_series(&result.overall_adr)) return SnapshotStatus::kShape;
  const size_t num_scorecards = reader.ReadSize();
  if (!reader.ok() || num_scorecards > years) return SnapshotStatus::kShape;
  for (size_t i = 0; i < num_scorecards; ++i) {
    ScorecardSnapshot& card = AppendScorecard(&result.scorecards);
    card.year = static_cast<int>(reader.ReadI64());
    card.history_weight = reader.ReadDouble();
    card.income_weight = reader.ReadDouble();
    card.intercept = reader.ReadDouble();
  }
  if (options.keep_user_adr) {
    const std::vector<double> flat = reader.ReadDoubleVector();
    if (flat.size() != num_users * years) return SnapshotStatus::kShape;
    for (size_t i = 0; i < num_users; ++i) {
      result.user_adr[i].assign(flat.begin() + i * years,
                                flat.begin() + (i + 1) * years);
    }
  }
  if (!reader.AtEnd()) return SnapshotStatus::kShape;
  for (size_t k = 0; k < years; ++k) {
    result.years.push_back(options.first_year + static_cast<int>(k));
  }
  return SnapshotStatus::kOk;
}

// What Run builds once and keeps across years: the dispatch and its
// pool, the shard plan, per-chunk yields, per-shard kernel scratch, the
// year's ADR snapshot and race-grouped ADRs, and the dense fold's slot
// rows and cache. None of it is checkpointed; a resumed trial rebuilds
// it from the options and the cohort, so a snapshot never depends on
// the thread count.
struct Workspace {
  using ChunkBody = std::function<void(size_t, size_t, size_t, size_t)>;

  Workspace(const CreditLoopOptions& options, bool observed);

  // Lays the race-grouped ADR buffer out for `race_ids`: chunk c's
  // users, race 0's first, then race 1's, ..., each in user order.
  void GroupByRace(const std::vector<uint8_t>& race_ids);

  // Runs chunk_body(shard, chunk, begin, end) over every chunk, then
  // stages->Done(chunk): the population is cut into kShardsPerWorker
  // shards per worker of whole, contiguous chunks, and each shard is one
  // ParallelFor iteration walking its chunks in order. Every thread
  // count executes exactly the same chunk bodies on exactly the same
  // (chunk, begin, end) triples — sharding regroups execution, never
  // the work. A shard runs on one worker at a time, so it picks the
  // kernel scratch, never an output.
  void ForEachChunk(const ChunkBody& chunk_body,
                    runtime::ChunkStages* stages) const {
    runtime::ParallelFor(
        plan.num_shards(),
        [&](size_t s) {
          const runtime::ShardRange& shard = plan.shards[s];
          for (size_t c = shard.chunk_begin; c < shard.chunk_end; ++c) {
            chunk_body(s, c, ChunkBegin(c), ChunkEnd(c));
            stages->Done(c);
          }
        },
        dispatch);
  }

  size_t ChunkBegin(size_t c) const { return c * chunk_size; }
  size_t ChunkEnd(size_t c) const {
    return std::min(ChunkBegin(c) + chunk_size, num_users);
  }

  const CreditLoopOptions& options;
  const size_t num_users;
  const size_t num_years;
  const size_t chunk_size;
  const size_t num_chunks;
  const runtime::SeedSequence income_streams;
  const runtime::SeedSequence repayment_streams;
  const IncomeModel income_model;
  const RepaymentModel repayment;
  const std::vector<ml::ScorecardFactor> factor_templates;
  // Within-trial dispatch: one persistent pool for the whole trial (the
  // per-year pass is far too fine-grained to spawn threads per call).
  runtime::ParallelForOptions dispatch;
  std::unique_ptr<runtime::ThreadPool> pool;
  runtime::ShardPlan plan;
  // The dense fold (DenseFold): slot_rows holds each slot's (adr, code)
  // row, the same IEEE division AdrInto's guarded ratio performs, and
  // dense_groups caches slot -> history group across years. The cache
  // starts cold on resume: a slot miss re-derives the group by key,
  // finding the existing group, so resumed bits never depend on it.
  const bool dense_fold;
  std::vector<double> slot_rows;
  std::vector<uint32_t> dense_groups;
  // Reused per-year buffers. The snapshot (every user's post-update
  // ADR) is written chunk by chunk, only when someone reads it.
  std::vector<ChunkYield> yields;
  std::vector<ChunkScratch> scratches;
  const bool snapshot_users;
  std::vector<double> adr_snapshot;
  // With options.impacts: the post-update ADRs grouped by race within
  // each chunk; race r's run of chunk c starts at race_starts[(kNumRaces
  // + 1) * c + r] and ends where race r + 1's starts.
  std::vector<double> by_race;
  std::vector<size_t> race_starts;
};

Workspace::Workspace(const CreditLoopOptions& options, bool observed)
    : options(options),
      num_users(options.num_users),
      num_years(NumYears(options)),
      chunk_size(options.users_per_chunk),
      num_chunks(runtime::NumChunks(num_users, chunk_size)),
      income_streams(runtime::SeedSequence(options.seed).Child(kIncomeStream)),
      repayment_streams(
          runtime::SeedSequence(options.seed).Child(kRepaymentStream)),
      repayment(options.repayment),
      factor_templates(TableOneTemplates()),
      dense_fold(DenseFold(options)),
      snapshot_users(options.keep_user_adr || observed) {
  // A caller-owned pool (options.pool) replaces the engine's own, so
  // sequential multi-trial drivers amortize one pool across trials; the
  // worker count never affects the output. A one-chunk trial runs
  // everything inline on this thread, its stages too, even when handed
  // a pool.
  dispatch.num_threads = 1;
  if (num_chunks > 1 && options.pool != nullptr) {
    dispatch.pool = options.pool;
  } else if (num_chunks > 1) {
    runtime::ParallelForOptions requested;
    requested.num_threads = options.num_threads;
    const size_t workers =
        std::min(runtime::EffectiveNumThreads(requested), num_chunks);
    if (workers > 1) {
      pool = std::make_unique<runtime::ThreadPool>(workers);
      dispatch.pool = pool.get();
    }
  }
  plan = runtime::MakeShardPlan(
      num_users, chunk_size,
      kShardsPerWorker * runtime::EffectiveNumThreads(dispatch));

  const uint32_t dense_years =
      dense_fold ? static_cast<uint32_t>(num_years) : 0;
  const size_t dense_slots = DenseSlot(dense_years, 0, 0);
  slot_rows.resize(2 * dense_slots);
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
  dense_groups.assign(dense_slots, ml::BinnedDataset::kNoSlotGroup);

  yields.resize(num_chunks);
  if (dense_fold) {
    for (ChunkYield& yield : yields) yield.counts = ml::SlotCounts(dense_slots);
  }
  scratches.resize(plan.num_shards());
  adr_snapshot.resize(snapshot_users ? num_users : 0);
}

void Workspace::GroupByRace(const std::vector<uint8_t>& race_ids) {
  by_race.resize(num_users);
  race_starts.assign((kNumRaces + 1) * num_chunks, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t* starts = &race_starts[(kNumRaces + 1) * c];
    for (size_t i = ChunkBegin(c); i < ChunkEnd(c); ++i) {
      ++starts[race_ids[i] + 1];
    }
    starts[0] = ChunkBegin(c);
    for (size_t r = 0; r < kNumRaces; ++r) starts[r + 1] += starts[r];
  }
}

// Simulates year years_completed of `state` on `workspace`, folding its
// cross-section into options.impacts when set, and hands the observer
// its cross-section.
void StepYear(TrialState* state, Workspace* workspace,
              const YearObserver& observer) {
  const CreditLoopOptions& options = workspace->options;
  const size_t k = state->years_completed;
  const int year = options.first_year + static_cast<int>(k);
  CreditLoopResult& result = state->result;
  Population& population = state->population;
  AdrFilter& filter = state->filter;
  ml::BinnedDataset& history = state->history;
  const RepaymentModel& repayment = workspace->repayment;
  const std::vector<uint8_t>& race_ids = population.race_ids();
  const std::vector<double>& incomes = population.incomes();
  std::vector<ChunkYield>& yields = workspace->yields;
  std::vector<ChunkScratch>& scratches = workspace->scratches;
  std::vector<double>& adr_snapshot = workspace->adr_snapshot;
  const bool dense_fold = workspace->dense_fold;
  const bool snapshot_users = workspace->snapshot_users;
  stats::AdrAccumulator* const impacts = options.impacts;
  result.years.push_back(year);

  // Retrain the AI system once the warm-up has produced data. If the
  // fit is impossible (single-class history) or fails, the previous
  // scorecard — or the warm-up policy if none exists — stays in force.
  // The fit reads only the history of earlier years, so it runs before
  // the year's pass.
  if (k >= options.warmup_steps && history.HasBothClasses()) {
    ml::FitResult fit = state->trainer.Fit(history);
    if (fit.success) {
      state->scorecard = ml::Scorecard::FromModel(
          state->trainer, workspace->factor_templates, options.cutoff);
      ScorecardSnapshot& card = AppendScorecard(&result.scorecards);
      card.year = year;
      card.history_weight = state->trainer.weights()[0];
      card.income_weight = state->trainer.weights()[1];
      card.intercept = state->trainer.intercept();
    }
  }
  if (!options.accumulate_history) history.Clear();

  // The year's policy, reduced to scalars: during warm-up (or before
  // the first successful fit) everyone is approved; afterwards the
  // scorecard test s(x) > cutoff runs inline. Both policies size the
  // mortgage at income_multiple x income, and neither consults
  // has_defaulted, so the sweep needs no default-history array.
  const bool use_scorecard =
      k >= options.warmup_steps && state->scorecard.has_value();
  const double code_threshold = options.income_code_threshold;
  runtime::kernels::ScoreParams score_params;
  score_params.code_threshold = code_threshold;
  score_params.base_points =
      use_scorecard ? state->scorecard->base_points() : 0.0;
  score_params.adr_weight =
      use_scorecard ? state->scorecard->factor(0).score : 0.0;
  score_params.code_weight =
      use_scorecard ? state->scorecard->factor(1).score : 0.0;
  score_params.cutoff = options.cutoff;

  // The stages, chains in user order that take each chunk once it is
  // done. Stage 0 folds the chunk's tally into the grouped history in
  // chunk order, so group indices, and with them the fit's order, are
  // the same at every thread count, and adds the chunk's offers and
  // ADRs to the year's sums in user order. Each race's register adds
  // +0.0 for other races' users, which moves no bit: every ADR is >= +0,
  // so no sum is ever -0.0. One stage per race folds its run of the
  // chunk into cell (k, race).
  std::array<size_t, kNumRaces> race_offers = {0, 0, 0};
  std::array<double, kNumRaces> race_sum = {0.0, 0.0, 0.0};
  double overall_sum = 0.0;
  std::vector<runtime::ChunkStages::Stage> stages;
  stages.push_back([&](size_t c) {
    const ChunkYield& yield = yields[c];
    for (size_t r = 0; r < kNumRaces; ++r) {
      race_offers[r] += yield.race_offers[r];
    }
    if (dense_fold) {
      history.AddCounts(yield.counts, workspace->slot_rows.data(),
                        &workspace->dense_groups);
    } else {
      history.AddBatch(yield.rows.data(), yield.labels.data(),
                       yield.labels.size());
    }
    static_assert(kNumRaces == 3);
    // Locals, so that the chains stay in registers.
    auto [sum0, sum1, sum2] = race_sum;
    double overall = overall_sum;
    for (size_t i = workspace->ChunkBegin(c); i < workspace->ChunkEnd(c);
         ++i) {
      const double adr = filter.UserAdr(i);
      sum0 += race_ids[i] == 0 ? adr : 0.0;
      sum1 += race_ids[i] == 1 ? adr : 0.0;
      sum2 += race_ids[i] == 2 ? adr : 0.0;
      overall += adr;
    }
    race_sum = {sum0, sum1, sum2};
    overall_sum = overall;
  });
  for (size_t r = 0; impacts != nullptr && r < kNumRaces; ++r) {
    stages.push_back([workspace, impacts, k, r](size_t c) {
      const size_t* starts = &workspace->race_starts[(kNumRaces + 1) * c];
      impacts->AddRun(k, r, workspace->by_race.data() + starts[r],
                      starts[r + 1] - starts[r]);
    });
  }
  runtime::ChunkStages chunk_stages(workspace->num_chunks, std::move(stages));

  // The pass. Each chunk first resamples its users' incomes and draws
  // one repayment uniform per user, unconditionally (which decouples the
  // draws from the decisions), through the generator's batch fill from
  // streams derived from (stream root, year, chunk index): the draws
  // depend on (seed, users_per_chunk), never on the worker. Then it
  // decides, acts and filters. Each user touches only their own filter
  // slots, each chunk writes only its own yield, snapshot and race
  // ranges, and the scratch belongs to the shard running the chunk, so
  // chunks run concurrently. Trailing ADRs and the code/score/cut-off
  // test sweep branch-free over the SoA arrays (ScoreSweep replicates
  // Scorecard::Score's evaluation order, pinned to
  // ScorecardPolicy::Decide by
  // CreditLoopTest.InlineApprovalRuleMatchesScorecardPolicy; NaN scores
  // decline), approved incomes are compacted so the normal CDF runs
  // only for them, and a scalar loop applies the repayment action and
  // filter update in user order. Last, the chunk writes its users'
  // post-update ADRs into the snapshot and, race by race, into by_race.
  const YearIncomeSampler sampler(workspace->income_model, year);
  const runtime::SeedSequence income_year = workspace->income_streams.Child(k);
  const runtime::SeedSequence repayment_year =
      workspace->repayment_streams.Child(k);
  const auto chunk_body = [&](size_t s, size_t c, size_t begin, size_t end) {
    ChunkScratch& scratch = scratches[s];
    ChunkYield& yield = yields[c];
    yield.Clear();
    const size_t count = end - begin;
    rng::Random income_rng(income_year.Seed(c));
    rng::Random repayment_rng(repayment_year.Seed(c));
    scratch.income_uniforms.resize(2 * count);
    income_rng.FillUniformDouble(scratch.income_uniforms.data(), 2 * count);
    population.ResampleIncomesFromUniforms(sampler, begin, end,
                                           scratch.income_uniforms.data());
    scratch.repayment_uniforms.resize(count);
    repayment_rng.FillUniformDouble(scratch.repayment_uniforms.data(), count);

    scratch.adr.resize(count);
    scratch.code.resize(count);
    scratch.indices.resize(count);
    scratch.dense_income.resize(count);
    filter.AdrInto(begin, end, scratch.adr.data());
    size_t approved_count = 0;
    if (use_scorecard) {
      scratch.approved.resize(count);
      runtime::kernels::ScoreSweep(incomes.data() + begin, scratch.adr.data(),
                                   count, score_params, scratch.code.data(),
                                   scratch.approved.data());
      for (size_t j = 0; j < count; ++j) {
        if (scratch.approved[j]) {  // Declined users' ADRs freeze.
          scratch.indices[approved_count] = static_cast<uint32_t>(j);
          scratch.dense_income[approved_count] = incomes[begin + j];
          ++approved_count;
        }
      }
    } else {
      runtime::kernels::IncomeCode(incomes.data() + begin, count,
                                   code_threshold, scratch.code.data());
      for (size_t j = 0; j < count; ++j) {
        scratch.indices[j] = static_cast<uint32_t>(j);
        scratch.dense_income[j] = incomes[begin + j];
      }
      approved_count = count;
    }
    scratch.shares.resize(count);
    scratch.probability.resize(count);
    repayment.ProbabilityBatch(scratch.dense_income.data(), approved_count,
                               scratch.shares.data(),
                               scratch.probability.data());
    for (size_t t = 0; t < approved_count; ++t) {
      const size_t j = scratch.indices[t];
      const size_t i = begin + j;
      const double p = scratch.probability[t];
      const bool repaid = p > 0.0 && scratch.repayment_uniforms[j] < p;
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
    if (!snapshot_users && impacts == nullptr) return;
    double* const updated =
        snapshot_users ? &adr_snapshot[begin] : scratch.adr.data();
    filter.AdrInto(begin, end, updated);
    if (options.keep_user_adr) {
      for (size_t i = begin; i < end; ++i) {
        result.user_adr[i].push_back(adr_snapshot[i]);
      }
    }
    if (impacts != nullptr) {
      const size_t* starts = &workspace->race_starts[(kNumRaces + 1) * c];
      double* next[kNumRaces];
      for (size_t r = 0; r < kNumRaces; ++r) {
        next[r] = workspace->by_race.data() + starts[r];
      }
      for (size_t j = 0; j < count; ++j) {
        *next[race_ids[begin + j]]++ = updated[j];
      }
    }
  };
  workspace->ForEachChunk(chunk_body, &chunk_stages);

  // Record the year's aggregates from the stages' sums, as the filter's
  // per-race and overall means.
  for (size_t r = 0; r < kNumRaces; ++r) {
    const size_t members = population.CountRace(static_cast<Race>(r));
    result.race_adr[r].push_back(
        members == 0 ? 0.0 : race_sum[r] / static_cast<double>(members));
    result.race_approval[r].push_back(
        members == 0 ? 0.0
                     : static_cast<double>(race_offers[r]) /
                           static_cast<double>(members));
  }
  result.overall_adr.push_back(overall_sum /
                               static_cast<double>(population.size()));

  if (observer) {
    observer(YearSnapshot{k, year, adr_snapshot, result.races, race_ids});
  }
  state->years_completed = k + 1;
}

}  // namespace

uint64_t LoopConfigFingerprint(const CreditLoopOptions& options) {
  CreditLoopOptions unseeded = options;
  unseeded.seed = 0;
  return LoopOptionsFingerprint(unseeded);
}

base::SnapshotStatus CheckLoopSnapshot(const CreditLoopOptions& options,
                                       const std::vector<uint8_t>& snapshot) {
  runtime::ParallelForOptions sequential;
  sequential.num_threads = 1;
  std::optional<TrialState> state;
  return DecodeTrialState(options, snapshot,
                          TrainerOptions(options, sequential), &state);
}

CreditScoringLoop::CreditScoringLoop(CreditLoopOptions options)
    : options_(options) {
  EQIMPACT_CHECK_GT(options_.num_users, 0u);
  EQIMPACT_CHECK_LE(options_.first_year, options_.last_year);
  EQIMPACT_CHECK_GE(options_.warmup_steps, 1u);
  EQIMPACT_CHECK_GT(options_.users_per_chunk, 0u);
}

CreditLoopResult CreditScoringLoop::Run() const { return Run(YearObserver()); }

CreditLoopResult CreditScoringLoop::Run(const YearObserver& observer) const {
  Workspace workspace(options_, observer != nullptr);
  const ml::LogisticRegressionOptions trainer_options =
      TrainerOptions(options_, workspace.dispatch);
  std::optional<TrialState> state;
  if (options_.resume_state == nullptr) {
    state.emplace(FreshTrial(options_, trainer_options));
  } else {
    // resume_state's contract: a snapshot CheckLoopSnapshot accepts.
    EQIMPACT_CHECK(DecodeTrialState(options_, *options_.resume_state,
                                    trainer_options, &state) ==
                   base::SnapshotStatus::kOk);
  }
  if (options_.impacts != nullptr) {
    EQIMPACT_CHECK_EQ(options_.impacts->num_groups(), kNumRaces);
    EQIMPACT_CHECK_EQ(options_.impacts->num_steps(), workspace.num_years);
    workspace.GroupByRace(state->population.race_ids());
  }
  while (state->years_completed < workspace.num_years) {
    StepYear(&*state, &workspace, observer);
    if (options_.checkpoint_sink) {
      options_.checkpoint_sink(state->years_completed,
                               EncodeTrialState(options_, *state));
    }
  }
  return std::move(state->result);
}

}  // namespace credit
}  // namespace eqimpact
