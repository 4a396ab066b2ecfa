#ifndef EQIMPACT_RUNTIME_SHARD_H_
#define EQIMPACT_RUNTIME_SHARD_H_

#include <cstddef>
#include <vector>

namespace eqimpact {
namespace runtime {

/// One shard of a chunk-aligned population partition: a contiguous range
/// of global chunk indices and the user-index range those chunks cover.
struct ShardRange {
  size_t chunk_begin = 0;  ///< First global chunk index (inclusive).
  size_t chunk_end = 0;    ///< One past the last global chunk index.
  size_t user_begin = 0;   ///< First user index (inclusive).
  size_t user_end = 0;     ///< One past the last user index.

  size_t num_chunks() const { return chunk_end - chunk_begin; }
  size_t num_users() const { return user_end - user_begin; }
};

/// A chunk-aligned partition of [0, num_users) into contiguous shards.
///
/// Shards are the scale-out unit of the within-trial engine: each shard
/// owns a contiguous run of the *global* chunk index space, so every
/// (year, chunk) RNG sub-stream, every chunk boundary and every chunk's
/// in-chunk iteration order are identical to the unsharded run's — the
/// partition regroups execution and merge order, never the work itself.
/// Folding per-shard results in shard order therefore visits chunks in
/// exactly the global chunk order, which is what makes sharded output
/// bitwise-equal to unsharded output at any (shard, chunk, thread)
/// configuration.
struct ShardPlan {
  size_t num_users = 0;
  size_t chunk_size = 0;
  size_t num_chunks = 0;
  /// Shards in partition order; chunk/user ranges are contiguous,
  /// non-empty, and cover [0, num_chunks) / [0, num_users) exactly.
  std::vector<ShardRange> shards;

  size_t num_shards() const { return shards.size(); }
};

/// Builds the canonical shard plan: `requested_shards` (0 and 1 both mean
/// unsharded) clamped to the chunk count, chunks distributed as evenly as
/// possible (the first num_chunks % num_shards shards own one extra
/// chunk). Deterministic in (num_users, chunk_size, requested_shards).
/// CHECK-fails on num_users == 0 or chunk_size == 0.
ShardPlan MakeShardPlan(size_t num_users, size_t chunk_size,
                        size_t requested_shards);

/// A two-level worker budget for nested parallelism: `outer` workers run
/// independent units (shards, sweep points, served jobs) concurrently and
/// each unit may fan its own inner work out over `inner` workers, with
/// outer * inner <= total. The generic form of the PR 5 point-thread and
/// PR 7 shard-budget machinery; the experiment service's per-job thread
/// budget is the same split with jobs as the outer level.
struct ThreadBudget {
  size_t outer = 1;
  size_t inner = 1;
};

/// Splits `total_threads` workers across `num_ways` concurrent units:
/// the outer level takes min(total, ways) workers and the inner level
/// the largest per-unit share that keeps outer * inner <= total.
/// total_threads == 0 (hardware concurrency) must be resolved by the
/// caller first.
ThreadBudget SplitBudget(size_t total_threads, size_t num_ways);

}  // namespace runtime
}  // namespace eqimpact

#endif  // EQIMPACT_RUNTIME_SHARD_H_
