// Configuration knobs for the causal DSM node. The defaults pin the paper's
// Figure 4 algorithm exactly; every enhancement the paper sketches
// (Section 3.2 and footnote 2) is an orthogonal opt-in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "causalmem/common/types.hpp"

namespace causalmem {

/// What to invalidate when a new value (writestamp VT') enters local memory.
enum class InvalidationStrategy : std::uint8_t {
  /// Figure 4: invalidate every cached value whose writestamp is strictly
  /// dominated by VT' ("older via the causality relation").
  kInvalidateOlder,
  /// Maximally conservative ablation baseline: drop the whole cache on any
  /// introduction. Trivially correct; measures what Figure 4's bookkeeping
  /// buys (experiment E9).
  kFlushAll,
};

/// How the owner resolves an incoming remote write whose writestamp is
/// concurrent with the currently stored value's writestamp.
enum class ConflictPolicy : std::uint8_t {
  /// Figure 4 literal: the arriving write always overwrites.
  kLastArrivalWins,
  /// Section 4.2: "writes by the owner are always favored when resolving
  /// concurrent writes" — a remote write concurrent with a value the owner
  /// itself wrote is rejected. Enables the synchronization-free dictionary.
  kOwnerWins,
};

/// Whether remote writes block for the owner's certification (Figure 4) or
/// return immediately (Section 3.2's "reducing the blocking of processors").
enum class WriteMode : std::uint8_t {
  kBlocking,
  /// The write is installed locally with the writer's stamp and certified in
  /// the background; flush() fences. Requires kLastArrivalWins (a rejected
  /// async write would have to be un-installed after the fact).
  kAsync,
};

struct CausalConfig {
  InvalidationStrategy invalidation{InvalidationStrategy::kInvalidateOlder};
  ConflictPolicy conflict{ConflictPolicy::kLastArrivalWins};
  WriteMode write_mode{WriteMode::kBlocking};

  /// Section 3.2: "a simple strategy to maintain correctness is to force a
  /// request to the owner on every read. This strategy results in a memory
  /// that satisfies atomic correctness, not just causal correctness, but we
  /// lose all the benefits of caching." When true, every non-owned read
  /// goes to the owner (nothing is cached); requires blocking writes.
  bool read_through{false};

  /// Locations per sharing unit (Section 3.2, "scaling the unit of sharing
  /// to a page"). Ownership must be constant within a page. 1 = the paper's
  /// per-location protocol.
  Addr page_size{1};

  /// Cached pages kept before LRU discard (the paper's `discard` as a
  /// replacement policy). Unlimited by default.
  std::size_t cache_capacity_pages{std::numeric_limits<std::size_t>::max()};

  /// Per-round deadline for owner round trips (reads and blocking writes).
  /// 0 (default) preserves the paper's model: requests block until the reply
  /// arrives. With a non-zero timeout an owner request that expires is
  /// retried up to `request_retries` more times (re-resolving the owner each
  /// round, so a failover redirects the retry) and then surfaces a typed
  /// Unreachable result via try_read/try_write. Timing flows through the
  /// obs::now_ns() clock seam, so FakeClock tests are deterministic.
  std::chrono::nanoseconds request_timeout{0};

  /// Extra rounds after the first before an owner request gives up.
  std::uint32_t request_retries{2};

  // --- Sharded copyset maintenance (docs/SHARDING.md). All default-off so
  // the paper's protocol and its 2n+6 message accounting stay bit-identical
  // unless a deployment opts in. ---

  /// Owners track per-page subscriber sets (the copyset): a node is added on
  /// its first fetch of a page and removed when an eviction/discard notice
  /// piggybacks back on later traffic. Pure bookkeeping — no extra messages.
  bool copysets{false};

  /// Owners push batched advisory invalidation notices to a page's
  /// subscribers when a new write is applied, piggybacked on the next frame
  /// per channel (or a standalone INV_BATCH flush when a batch fills).
  /// Advisory: dropping a notice is safe because the Figure 4 clock-
  /// comparison sweep still catches the stale copy on the next
  /// introduction. Implies `copysets`.
  bool push_invalidation{false};

  /// Queued notices per subscriber channel before a standalone INV_BATCH
  /// frame flushes the batch instead of waiting for piggyback traffic.
  std::size_t inval_batch_max{16};
};

}  // namespace causalmem
