// Typed refusals of bad checkpoints: the shared snapshot frame's
// reasons, the binding of an experiment snapshot to its job, file-level
// errors caught before any work, and a corruption sweep over a small
// in-flight snapshot in which every input gets a typed reason or a
// snapshot that resumes, never an abort, and never an allocation larger
// than the input.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv1a.h"
#include "base/serial.h"
#include "serve/json.h"
#include "serve/render_json.h"
#include "sim/credit_scenario.h"
#include "sim/experiment.h"

// --- Allocation probe. -----------------------------------------------------
//
// This suite replaces the global operator new: while the probe is armed,
// it records the largest single request.

namespace {
std::atomic<bool> g_probe_armed{false};
std::atomic<size_t> g_largest_request{0};
}  // namespace

void* operator new(size_t size) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_request.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest_request.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free with a new
// expression it can see.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace eqimpact {
namespace {

using base::SnapshotStatus;

// --- The frame. ------------------------------------------------------------

std::vector<uint8_t> Frame(uint32_t magic, uint32_t version,
                           uint64_t fingerprint) {
  base::BinaryWriter writer;
  base::BeginFrame(magic, version, fingerprint, &writer);
  writer.WriteDouble(0.25);
  base::SealFrame(&writer);
  return writer.TakeBuffer();
}

SnapshotStatus Open(const std::vector<uint8_t>& bytes) {
  base::BinaryReader body(nullptr, 0);
  return base::OpenFrame(bytes, 7, 2, 99, &body);
}

TEST(SnapshotFrameTest, EveryHeaderFieldHasItsReason) {
  const std::vector<uint8_t> frame = Frame(7, 2, 99);
  base::BinaryReader body(nullptr, 0);
  ASSERT_EQ(base::OpenFrame(frame, 7, 2, 99, &body), SnapshotStatus::kOk);
  EXPECT_EQ(body.ReadDouble(), 0.25);
  EXPECT_TRUE(body.AtEnd());
  EXPECT_EQ(Open(Frame(8, 2, 99)), SnapshotStatus::kMagic);
  EXPECT_EQ(Open(Frame(7, 1, 99)), SnapshotStatus::kVersion);
  EXPECT_EQ(Open(Frame(7, 2, 98)), SnapshotStatus::kFingerprint);
  std::vector<uint8_t> flipped = Frame(7, 2, 99);
  flipped[17] ^= 0x40;  // Inside the body.
  EXPECT_EQ(Open(flipped), SnapshotStatus::kChecksum);
  for (size_t size = 0; size < 24; ++size) {
    EXPECT_EQ(Open(std::vector<uint8_t>(size, 0)), SnapshotStatus::kTruncated)
        << size;
  }
}

TEST(SnapshotFrameTest, TrailerIsTheByteStringFnv1a) {
  const std::vector<uint8_t> frame = Frame(7, 2, 99);
  base::Fnv1a bytes;
  for (size_t i = 0; i + 8 < frame.size(); ++i) bytes.Mix(frame[i]);
  uint64_t trailer = 0;
  std::memcpy(&trailer, frame.data() + frame.size() - 8, 8);
  EXPECT_EQ(trailer, bytes.hash());
}

TEST(SnapshotFrameTest, ReasonsHaveNames) {
  EXPECT_STREQ(base::SnapshotStatusName(SnapshotStatus::kTruncated),
               "truncated");
  EXPECT_STREQ(base::SnapshotStatusName(SnapshotStatus::kFingerprint),
               "fingerprint");
  EXPECT_STREQ(base::SnapshotStatusName(SnapshotStatus::kShape), "shape");
  EXPECT_STREQ(base::SnapshotStatusName(SnapshotStatus::kUnwritable),
               "unwritable");
}

// --- Shared fixtures. ------------------------------------------------------

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  uint8_t buffer[4096];
  for (size_t n; (n = std::fread(buffer, 1, sizeof(buffer), file)) > 0;) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(file);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), file);
  std::fclose(file);
}

/// A fresh empty directory under the test temp dir.
std::string MakeTempDir() {
  std::string pattern = testing::TempDir() + "/eqimpact_ck_XXXXXX";
  EXPECT_NE(mkdtemp(&pattern[0]), nullptr);
  return pattern;
}

std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) return names;
  while (const dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  closedir(handle);
  std::sort(names.begin(), names.end());
  return names;
}

// --- The job binding. ------------------------------------------------------

TEST(CheckpointBindingTest, AnotherScenarioConfigurationIsRefused) {
  // A finished checkpoint of a 2-trial, 200-user job. Resumed under
  // another cohort size or cut-off it must be refused, never answered
  // with the stored result of the other job.
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/ck.bin";
  sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 200;
  sim::ExperimentOptions options;
  options.num_trials = 2;
  options.master_seed = 3;
  options.checkpoint_path = path;
  sim::CreditScenario writer(scenario_options);
  const uint64_t digest =
      sim::ExperimentDigest(sim::RunExperiment(&writer, options));

  sim::ExperimentSnapshot snapshot;
  const std::pair<const char*, double> kOtherJobs[] = {{"num_users", 300.0},
                                                       {"cutoff", 0.5}};
  for (const auto& other : kOtherJobs) {
    sim::CreditScenario scenario(scenario_options);
    ASSERT_TRUE(scenario.SetParameter(other.first, other.second));
    EXPECT_EQ(sim::ReadExperimentSnapshot(path, scenario, options, &snapshot),
              SnapshotStatus::kFingerprint)
        << other.first;
  }
  sim::ExperimentOptions other_seed = options;
  other_seed.master_seed = 4;
  EXPECT_EQ(
      sim::ReadExperimentSnapshot(path, writer, other_seed, &snapshot),
      SnapshotStatus::kFingerprint);

  // The same job under other thread counts reads back and reproduces the
  // stored result.
  sim::CreditScenario same(scenario_options);
  options.num_threads = 1;
  options.trial_threads = 3;
  ASSERT_EQ(sim::ReadExperimentSnapshot(path, same, options, &snapshot),
            SnapshotStatus::kOk);
  EXPECT_EQ(snapshot.trials.size(), 2u);
  options.resume = &snapshot;
  EXPECT_EQ(sim::ExperimentDigest(sim::RunExperiment(&same, options)), digest);
  std::remove(path.c_str());
  rmdir(dir.c_str());
}

// --- File-level errors. ----------------------------------------------------

TEST(CheckpointFileTest, PathsAreCheckedBeforeAnyWork) {
  const std::string dir = MakeTempDir();
  sim::CreditScenario scenario;
  const sim::ExperimentOptions options;
  sim::ExperimentSnapshot snapshot;

  // A directory is not a snapshot, and cannot take one.
  EXPECT_EQ(sim::ReadExperimentSnapshot(dir, scenario, options, &snapshot),
            SnapshotStatus::kUnreadable);
  EXPECT_EQ(sim::CheckCheckpointWritable(dir), SnapshotStatus::kUnwritable);
  // Neither can a directory that does not exist.
  EXPECT_EQ(sim::CheckCheckpointWritable(dir + "/missing/ck.bin"),
            SnapshotStatus::kUnwritable);

  // A zero-byte file is a truncated snapshot, not a fresh start.
  const std::string empty = dir + "/empty.bin";
  WriteFile(empty, {});
  EXPECT_EQ(sim::ReadExperimentSnapshot(empty, scenario, options, &snapshot),
            SnapshotStatus::kTruncated);
  std::remove(empty.c_str());

  // A missing file is a fresh start, and a good path passes the probe
  // without leaving its temp file behind.
  const std::string path = dir + "/ck.bin";
  snapshot.trials.resize(1);
  EXPECT_EQ(sim::ReadExperimentSnapshot(path, scenario, options, &snapshot),
            SnapshotStatus::kOk);
  EXPECT_TRUE(snapshot.trials.empty());
  EXPECT_TRUE(snapshot.partial_state.empty());
  EXPECT_EQ(sim::CheckCheckpointWritable(path), SnapshotStatus::kOk);
  EXPECT_TRUE(DirEntries(dir).empty());
  rmdir(dir.c_str());
}

TEST(CheckpointFileTest, WritesLeaveOnlyTheSnapshot) {
  // Every rewrite goes through a temp file of its own and renames it
  // over the snapshot, so a finished run leaves exactly one file.
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/ck.bin";
  sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 64;
  scenario_options.loop.last_year = scenario_options.loop.first_year + 3;
  sim::CreditScenario scenario(scenario_options);
  sim::ExperimentOptions options;
  options.num_trials = 2;
  options.checkpoint_path = path;
  sim::RunExperiment(&scenario, options);
  EXPECT_EQ(DirEntries(dir), std::vector<std::string>{"ck.bin"});
  std::remove(path.c_str());
  rmdir(dir.c_str());
}

// --- Corruption sweep. -----------------------------------------------------

/// CreditScenario that copies the snapshot file out after its
/// `capture_at`-th engine checkpoint has reached disk.
class CapturingCreditScenario : public sim::CreditScenario {
 public:
  CapturingCreditScenario(sim::CreditScenarioOptions options,
                          std::string path, int capture_at)
      : sim::CreditScenario(std::move(options)),
        path_(std::move(path)),
        remaining_(capture_at) {}

  sim::TrialOutcome RunTrial(const sim::TrialContext& context,
                             stats::AdrAccumulator* impacts) override {
    sim::TrialContext wrapped = context;
    const sim::TrialCheckpointSink inner = context.checkpoint_sink;
    wrapped.checkpoint_sink = [this, inner](size_t steps_completed,
                                            const std::vector<uint8_t>& state) {
      inner(steps_completed, state);
      if (--remaining_ == 0) {
        file = ReadFile(path_);
        engine_blob = state;
      }
    };
    return sim::CreditScenario::RunTrial(wrapped, impacts);
  }

  std::vector<uint8_t> file;
  std::vector<uint8_t> engine_blob;

 private:
  std::string path_;
  int remaining_;
};

class CorruptionSweepTest : public testing::Test {
 protected:
  // 64 users, a 4-year horizon and 4 bins keep the snapshot a few KB.
  static sim::CreditScenarioOptions ScenarioOptions() {
    sim::CreditScenarioOptions options;
    options.loop.num_users = kUsers;
    options.loop.last_year = options.loop.first_year + 3;
    return options;
  }

  static sim::ExperimentOptions Options() {
    sim::ExperimentOptions options;
    options.num_trials = 2;
    options.master_seed = 5;
    options.impact_bins = 4;
    options.num_threads = 1;
    return options;
  }

  static void SetUpTestSuite() {
    // Captured after year 3 of trial 1: trial 0 complete, trial 1 in
    // flight, so the snapshot holds an engine blob, and a resume runs
    // one year.
    const std::string dir = MakeTempDir();
    const std::string path = dir + "/ck.bin";
    CapturingCreditScenario capturing(ScenarioOptions(), path,
                                      4 + kYearsCompleted);
    sim::ExperimentOptions options = Options();
    options.checkpoint_path = path;
    sim::CreditScenario plain(ScenarioOptions());
    reference_ = new uint64_t(
        sim::ExperimentDigest(sim::RunExperiment(&plain, Options())));
    sim::RunExperiment(&capturing, options);
    file_ = new std::vector<uint8_t>(capturing.file);
    blob_ = new std::vector<uint8_t>(capturing.engine_blob);
    std::remove(path.c_str());
    rmdir(dir.c_str());
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete file_;
    delete blob_;
  }

  /// Where the engine blob sits in the snapshot: just before the outer
  /// trailer.
  static size_t BlobBegin() { return file_->size() - 8 - blob_->size(); }

  /// Recomputes the trailer of the frame occupying [begin, end).
  static void Reseal(std::vector<uint8_t>* bytes, size_t begin, size_t end) {
    base::Fnv1a checksum;
    checksum.MixBytes(bytes->data() + begin, end - begin - 8);
    const uint64_t trailer = checksum.hash();
    std::memcpy(bytes->data() + end - 8, &trailer, 8);
  }

  /// Reseals the engine blob's frame and then the outer one.
  static void ResealBoth(std::vector<uint8_t>* bytes) {
    Reseal(bytes, BlobBegin(), BlobBegin() + blob_->size());
    Reseal(bytes, 0, bytes->size());
  }

  /// Decodes `bytes` with the allocation probe armed. The only
  /// allocations not sized by the input are the scenario's label lists
  /// and the 64-user trial state, well under 4 KB.
  static SnapshotStatus Decode(const std::vector<uint8_t>& bytes,
                               sim::ExperimentSnapshot* snapshot) {
    sim::CreditScenario scenario(ScenarioOptions());
    g_largest_request = 0;
    g_probe_armed = true;
    const SnapshotStatus status =
        sim::DecodeExperimentSnapshot(bytes, scenario, Options(), snapshot);
    g_probe_armed = false;
    EXPECT_LE(g_largest_request.load(), std::max<size_t>(bytes.size(), 4096))
        << base::SnapshotStatusName(status);
    return status;
  }

  /// Resumes the experiment from a snapshot that decoded: it must run to
  /// the end, whatever values the snapshot holds.
  static uint64_t Resume(const sim::ExperimentSnapshot& snapshot) {
    sim::CreditScenario scenario(ScenarioOptions());
    sim::ExperimentOptions options = Options();
    options.resume = &snapshot;
    return sim::ExperimentDigest(sim::RunExperiment(&scenario, options));
  }

  static constexpr size_t kUsers = 64;
  static constexpr int kYearsCompleted = 3;
  // Engine blob layout: the 16-byte frame header, years completed, then
  // the race ids and the filter arrays, each behind its length.
  static constexpr size_t kRaceIds = 16 + 8 + 8;
  static constexpr size_t kOfferWeights = kRaceIds + kUsers + 8;
  static constexpr size_t kDefaultWeights = kOfferWeights + 8 * kUsers + 8;

  static uint64_t* reference_;
  static std::vector<uint8_t>* file_;
  static std::vector<uint8_t>* blob_;
};

uint64_t* CorruptionSweepTest::reference_ = nullptr;
std::vector<uint8_t>* CorruptionSweepTest::file_ = nullptr;
std::vector<uint8_t>* CorruptionSweepTest::blob_ = nullptr;

TEST_F(CorruptionSweepTest, TheIntactSnapshotResumesBitwise) {
  ASSERT_FALSE(blob_->empty());
  ASSERT_TRUE(std::equal(blob_->begin(), blob_->end(),
                         file_->begin() + BlobBegin()));
  sim::ExperimentSnapshot snapshot;
  ASSERT_EQ(Decode(*file_, &snapshot), SnapshotStatus::kOk);
  EXPECT_EQ(snapshot.trials.size(), 1u);
  EXPECT_EQ(snapshot.partial_state, *blob_);
  EXPECT_EQ(Resume(snapshot), *reference_);
}

TEST_F(CorruptionSweepTest, EveryTruncationIsRefused) {
  sim::ExperimentSnapshot snapshot;
  for (size_t size = 0; size < file_->size(); ++size) {
    const std::vector<uint8_t> prefix(file_->begin(), file_->begin() + size);
    EXPECT_NE(Decode(prefix, &snapshot), SnapshotStatus::kOk) << size;
  }
}

TEST_F(CorruptionSweepTest, EveryByteFlipIsRefused) {
  sim::ExperimentSnapshot snapshot;
  for (size_t offset = 0; offset < file_->size(); ++offset) {
    std::vector<uint8_t> bytes = *file_;
    bytes[offset] ^= 0xff;
    EXPECT_NE(Decode(bytes, &snapshot), SnapshotStatus::kOk) << offset;
  }
}

TEST_F(CorruptionSweepTest, ResealedFlipsAreRefusedOrResume) {
  // With the trailers recomputed, both body decoders see the flipped
  // byte. A flip in a length, count, shape, id or counter must be
  // refused; one in a plain value may decode, and the experiment must
  // then run to the end on it.
  const size_t blob_begin = BlobBegin();
  const size_t blob_body_end = blob_begin + blob_->size() - 8;
  size_t refused = 0;
  size_t resumed = 0;
  sim::ExperimentSnapshot snapshot;
  for (size_t offset = 0; offset + 8 < file_->size(); ++offset) {
    std::vector<uint8_t> bytes = *file_;
    bytes[offset] ^= 0xff;
    if (offset >= blob_begin && offset < blob_body_end) {
      Reseal(&bytes, blob_begin, blob_begin + blob_->size());
    }
    Reseal(&bytes, 0, bytes.size());
    if (Decode(bytes, &snapshot) != SnapshotStatus::kOk) {
      ++refused;
      continue;
    }
    Resume(snapshot);
    ++resumed;
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(resumed, 0u);
}

TEST_F(CorruptionSweepTest, CraftedBodiesAreShapeErrors) {
  sim::ExperimentSnapshot snapshot;
  const auto put_u64 = [](std::vector<uint8_t>* bytes, size_t at,
                          uint64_t value) {
    std::memcpy(bytes->data() + at, &value, 8);
  };
  const auto get_double = [](const std::vector<uint8_t>& bytes, size_t at) {
    double value;
    std::memcpy(&value, bytes.data() + at, 8);
    return value;
  };
  const auto put_double = [](std::vector<uint8_t>* bytes, size_t at,
                             double value) {
    std::memcpy(bytes->data() + at, &value, 8);
  };
  const auto get_i64 = [](const std::vector<uint8_t>& bytes, size_t at) {
    int64_t value;
    std::memcpy(&value, bytes.data() + at, 8);
    return value;
  };

  // Trial 0's accumulator claims 2^20 x 2^20 cells.
  ASSERT_EQ(Decode(*file_, &snapshot), SnapshotStatus::kOk);
  const size_t cells =
      snapshot.impacts[0].num_groups() * snapshot.impacts[0].num_steps();
  const int64_t in_flight = snapshot.partial_impact.count(0, 0);
  base::BinaryWriter accumulator;
  snapshot.impacts[0].Serialize(&accumulator);
  const auto found = std::search(file_->begin(), file_->end(),
                                 accumulator.buffer().begin(),
                                 accumulator.buffer().end());
  ASSERT_NE(found, file_->end());
  const size_t at = static_cast<size_t>(found - file_->begin());
  std::vector<uint8_t> huge = *file_;
  put_u64(&huge, at, uint64_t{1} << 20);          // Groups.
  put_u64(&huge, at + 8, uint64_t{1} << 20);      // Steps.
  put_u64(&huge, at + 6 * 8, uint64_t{1} << 40);  // Cells.
  Reseal(&huge, 0, huge.size());
  EXPECT_EQ(Decode(huge, &snapshot), SnapshotStatus::kShape);

  // Trial 0's first cell (year 0, the first race): its count follows the
  // six shape words and the cell count, its bins every cell and the bin
  // vector's length.
  const size_t count_at = at + 7 * 8;
  const size_t bins_at = at + 8 * 8 + 40 * cells;
  const int64_t count = get_i64(*file_, count_at);
  const int64_t bin0 = get_i64(*file_, bins_at);
  const int64_t bin1 = get_i64(*file_, bins_at + 8);
  // Sets the cell's count and raises its first bin with it.
  const auto recount = [&](int64_t new_count) {
    std::vector<uint8_t> bytes = *file_;
    put_u64(&bytes, count_at, static_cast<uint64_t>(new_count));
    const int64_t raised_bin = bin0 + (new_count - count);
    put_u64(&bytes, bins_at, static_cast<uint64_t>(raised_bin));
    Reseal(&bytes, 0, bytes.size());
    return bytes;
  };

  // A count its bins do not sum to.
  std::vector<uint8_t> unbinned = *file_;
  put_u64(&unbinned, count_at, static_cast<uint64_t>(count + 1));
  Reseal(&unbinned, 0, unbinned.size());
  EXPECT_EQ(Decode(unbinned, &snapshot), SnapshotStatus::kShape);

  // A negative bin, with the next bin keeping the sum.
  std::vector<uint8_t> negative = *file_;
  put_u64(&negative, bins_at, static_cast<uint64_t>(int64_t{-1}));
  put_u64(&negative, bins_at + 8, static_cast<uint64_t>(bin1 + bin0 + 1));
  Reseal(&negative, 0, negative.size());
  EXPECT_EQ(Decode(negative, &snapshot), SnapshotStatus::kShape);

  // A crafted count its bins sum to: the merge after the trials would
  // overflow it.
  EXPECT_EQ(Decode(recount(INT64_MAX), &snapshot), SnapshotStatus::kShape);

  // The bound is 2^53 observations per cell over the snapshot's trials,
  // the in-flight one included: exactly 2^53 decodes and runs to the end.
  constexpr int64_t kBound = int64_t{1} << 53;
  EXPECT_EQ(Decode(recount(kBound - in_flight + 1), &snapshot),
            SnapshotStatus::kShape);
  ASSERT_EQ(Decode(recount(kBound - in_flight), &snapshot),
            SnapshotStatus::kOk);
  Resume(snapshot);

  const size_t blob = BlobBegin();
  // A race id of 7.
  std::vector<uint8_t> race = *file_;
  race[blob + kRaceIds] = 7;
  ResealBoth(&race);
  EXPECT_EQ(Decode(race, &snapshot), SnapshotStatus::kShape);

  // An offer counter above the years completed.
  std::vector<uint8_t> offers = *file_;
  put_double(&offers, blob + kOfferWeights, kYearsCompleted + 1.0);
  ResealBoth(&offers);
  EXPECT_EQ(Decode(offers, &snapshot), SnapshotStatus::kShape);

  // More defaults than offers.
  std::vector<uint8_t> defaults = *file_;
  put_double(&defaults, blob + kDefaultWeights,
             get_double(*file_, blob + kOfferWeights) + 1.0);
  ResealBoth(&defaults);
  EXPECT_EQ(Decode(defaults, &snapshot), SnapshotStatus::kShape);
}

TEST_F(CorruptionSweepTest, ANanInACompletedSeriesRendersAsNull) {
  // Trial 0's first group series ends in a NaN. The decoder checks the
  // series' lengths, not their values, so the snapshot resumes; the
  // document must still be JSON, the NaN rendered as null.
  sim::ExperimentSnapshot snapshot;
  ASSERT_EQ(Decode(*file_, &snapshot), SnapshotStatus::kOk);
  const std::vector<double>& series = snapshot.trials[0].group_impact[0];
  base::BinaryWriter encoded;
  encoded.WriteDoubleVector(series);
  const auto found =
      std::search(file_->begin(), file_->end(), encoded.buffer().begin(),
                  encoded.buffer().end());
  ASSERT_NE(found, file_->end());
  std::vector<uint8_t> bytes = *file_;
  const size_t last = static_cast<size_t>(found - file_->begin()) +
                      encoded.buffer().size() - 8;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes.data() + last, &nan, 8);
  Reseal(&bytes, 0, bytes.size());
  ASSERT_EQ(Decode(bytes, &snapshot), SnapshotStatus::kOk);
  ASSERT_TRUE(std::isnan(snapshot.trials[0].group_impact[0].back()));

  sim::CreditScenario scenario(ScenarioOptions());
  sim::ExperimentOptions options = Options();
  options.resume = &snapshot;
  const sim::ExperimentResult result = sim::RunExperiment(&scenario, options);
  serve::RenderHeader header;
  header.num_trials = options.num_trials;
  header.master_seed = options.master_seed;
  header.provenance_json = serve::RenderProvenance(
      /*force_scalar=*/false, /*num_shards=*/0, /*checkpoint_path=*/"",
      /*resume=*/true, /*extra_json=*/"");
  const std::string document = serve::RenderExperimentJson(result, header);
  serve::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(serve::ParseJson(document, &parsed, &error))
      << error << "\n" << document;
  const serve::JsonValue* means = parsed.Find("final_group_mean");
  ASSERT_TRUE(means != nullptr && means->is_array());
  EXPECT_TRUE(means->items()[0].is_null());
  EXPECT_TRUE(means->items()[1].is_number());
  const serve::JsonValue* summary = parsed.Find("summary");
  ASSERT_NE(summary, nullptr);
  ASSERT_NE(summary->Find("group_gap"), nullptr);
  EXPECT_TRUE(summary->Find("group_gap")->is_null());
}

}  // namespace
}  // namespace eqimpact
