#include "runtime/chunk_stages.h"

#include <utility>

#include "base/check.h"

namespace eqimpact {
namespace runtime {

ChunkStages::ChunkStages(size_t num_chunks, std::vector<Stage> stages)
    : num_chunks_(num_chunks),
      stages_(std::move(stages)),
      done_(num_chunks, 0),
      cursors_(stages_.size()) {}

void ChunkStages::Done(size_t chunk) {
  std::unique_lock<std::mutex> lock(mutex_);
  EQIMPACT_CHECK_LT(chunk, num_chunks_);
  EQIMPACT_CHECK(!done_[chunk]);
  done_[chunk] = 1;
  for (bool ran = true; ran;) {
    ran = false;
    for (size_t s = 0; s < stages_.size(); ++s) {
      Cursor& cursor = cursors_[s];
      const size_t begin = cursor.next;
      if (cursor.held || begin == num_chunks_ || !done_[begin]) continue;
      size_t end = begin + 1;
      while (end < num_chunks_ && done_[end]) ++end;
      cursor.held = true;
      lock.unlock();
      for (size_t c = begin; c < end; ++c) stages_[s](c);
      lock.lock();
      cursor.next = end;
      cursor.held = false;
      ran = true;
    }
  }
}

}  // namespace runtime
}  // namespace eqimpact
