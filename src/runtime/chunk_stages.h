#ifndef EQIMPACT_RUNTIME_CHUNK_STAGES_H_
#define EQIMPACT_RUNTIME_CHUNK_STAGES_H_

#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace eqimpact {
namespace runtime {

/// In-order consumers of a chunked pass, run inside the pass.
///
/// A chunked pass finishes its chunks in any order, but a fold whose
/// floating-point order is user order must see them in chunk order.
/// Such a fold is a stage. The worker that finishes chunk c calls
/// Done(c), which runs every stage that can now advance: each stage
/// takes chunk 0, 1, 2, ... exactly once, only after the chunk's Done
/// call, and never on two threads at once, while distinct stages may
/// run side by side. A stage so runs the sequential loop's operations
/// at every thread count, overlapping the chunks still being simulated.
///
/// The thread that finds a stage free and its next chunk done holds the
/// stage and runs it, outside the lock, over every consecutive chunk
/// already done; after releasing it, that thread checks again, so a
/// chunk marked done while the stage was held is taken by the holder.
/// Once every chunk's Done call has returned, every stage has run over
/// every chunk. A stage that throws stays held and takes no more chunks.
class ChunkStages {
 public:
  using Stage = std::function<void(size_t chunk)>;

  ChunkStages(size_t num_chunks, std::vector<Stage> stages);

  /// Marks `chunk` finished, then runs the stages it unblocks. Called
  /// once per chunk, from any thread.
  void Done(size_t chunk);

 private:
  struct Cursor {
    size_t next = 0;  // First chunk the stage has not taken.
    bool held = false;
  };

  const size_t num_chunks_;
  const std::vector<Stage> stages_;
  std::mutex mutex_;
  std::vector<unsigned char> done_;
  std::vector<Cursor> cursors_;
};

}  // namespace runtime
}  // namespace eqimpact

#endif  // EQIMPACT_RUNTIME_CHUNK_STAGES_H_
