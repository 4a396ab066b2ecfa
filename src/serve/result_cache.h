#ifndef EQIMPACT_SERVE_RESULT_CACHE_H_
#define EQIMPACT_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace eqimpact {
namespace serve {

/// One completed job's outcome: the experiment/sweep digest and the
/// full rendered payload (the CLI-identical JSON document).
struct JobResult {
  uint64_t digest = 0;
  std::string payload;
};

/// Digest-backed result cache of the experiment service: completed
/// (scenario, params, seed) jobs keyed by their spec fingerprint
/// (serve::JobSpecFingerprint), each entry carrying the bitwise-
/// deterministic result digest plus the rendered payload. Because every
/// run of a spec produces bitwise-identical output (the library's
/// determinism contract), serving a repeat submission from cache is
/// indistinguishable from re-running it — byte for byte, digest
/// included. LRU-evicting and thread-safe (one mutex; entries are
/// copied out whole).
class ResultCache {
 public:
  /// Keeps at most `capacity` entries (>= 1).
  explicit ResultCache(size_t capacity);

  /// Looks `fingerprint` up; on a hit copies the entry into `result`,
  /// refreshes its LRU position and counts a hit. Counts a miss
  /// otherwise.
  bool Lookup(uint64_t fingerprint, JobResult* result);

  /// Inserts (or refreshes) the entry for `fingerprint`, evicting the
  /// least-recently-used entry beyond capacity. Re-inserting an
  /// existing fingerprint overwrites — by the determinism contract the
  /// payload is identical anyway.
  void Insert(uint64_t fingerprint, const JobResult& result);

  size_t hits() const;
  size_t misses() const;

 private:
  mutable std::mutex mutex_;
  const size_t capacity_;
  /// MRU-first recency list of fingerprints + the entry map into it.
  std::list<uint64_t> recency_;
  struct Slot {
    JobResult result;
    std::list<uint64_t>::iterator position;
  };
  std::unordered_map<uint64_t, Slot> entries_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_RESULT_CACHE_H_
