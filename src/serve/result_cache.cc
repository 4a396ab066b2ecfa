#include "serve/result_cache.h"

#include "base/check.h"

namespace eqimpact {
namespace serve {

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {
  EQIMPACT_CHECK_GT(capacity, 0u);
}

bool ResultCache::Lookup(uint64_t fingerprint, JobResult* result) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto found = entries_.find(fingerprint);
  if (found == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  recency_.splice(recency_.begin(), recency_, found->second.position);
  *result = found->second.result;
  return true;
}

void ResultCache::Insert(uint64_t fingerprint, const JobResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto found = entries_.find(fingerprint);
  if (found != entries_.end()) {
    found->second.result = result;
    recency_.splice(recency_.begin(), recency_, found->second.position);
    return;
  }
  recency_.push_front(fingerprint);
  entries_[fingerprint] = Slot{result, recency_.begin()};
  if (entries_.size() > capacity_) {
    entries_.erase(recency_.back());
    recency_.pop_back();
  }
}

size_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

size_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace serve
}  // namespace eqimpact
