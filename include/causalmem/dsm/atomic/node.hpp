// AtomicNode: the paper's comparison baseline (Section 4.1) — "a comparable
// owner protocol for atomic memory where locations are stored at the owner
// and cached at other nodes. An atomic write requires that all cached copies
// in the system be invalidated", in the style of Li & Hudak's read-replicate
// write-invalidate shared virtual memory (with a fixed owner, matching the
// causal protocol's static partition).
//
//   read  — owned/cached: local. Miss: fetch from owner; the owner records
//           the reader in the location's copyset.
//   write — funnels to the owner; the owner invalidates every copyset member
//           (INV / INV_ACK round trips) *before* applying and replying, so
//           a new value is never observable while stale copies exist.
//
// While an invalidation round is in flight for x, the owner defers further
// requests for x (and blocks its own local accesses to x), which serializes
// all writes per location — the strong consistency the paper contrasts
// against.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "causalmem/dsm/memory.hpp"
#include "causalmem/dsm/observer.hpp"
#include "causalmem/dsm/ownership.hpp"
#include "causalmem/net/transport.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {

struct AtomicConfig {
  // No knobs yet; present for System<> uniformity and future ablations.
};

class AtomicNode final : public SharedMemory {
 public:
  using Config = AtomicConfig;

  AtomicNode(NodeId id, std::size_t n, const Ownership& ownership,
             Transport& transport, NodeStats& stats, AtomicConfig config,
             OpObserver* observer = nullptr);

  [[nodiscard]] Value read(Addr x) override;
  void write(Addr x, Value v) override;

  /// Atomic memory pushes invalidations, so busy-waiting on a cached flag is
  /// live without discarding; discard is a no-op returning false.
  bool discard(Addr x) override;
  [[nodiscard]] bool owns(Addr x) const override;
  [[nodiscard]] NodeId node_id() const override { return id_; }
  [[nodiscard]] NodeStats& stats() override { return stats_; }

 private:
  struct OwnedCell {
    Value value{kInitialValue};
    WriteTag tag{};
    std::unordered_set<NodeId> copyset;
  };

  struct CachedCell {
    Value value{kInitialValue};
    WriteTag tag{};
  };

  /// Where complete_pending leaves a blocked request's reply. It lives in
  /// the waiting call's frame; complete_pending fills it, and erases the
  /// pending entry that points at it, in one hold of mu_. Guarded by mu_.
  struct ReplySlot {
    Value value{0};
    WriteTag tag{};
    bool done{false};
  };

  /// A blocked READ or WRITE awaiting its reply.
  struct PendingRequest {
    ReplySlot* slot{nullptr};  ///< the waiting call's slot
    /// inv_count(addr) when the request was sent. An owner sends a reply
    /// after releasing its mutex, so an INV for a write that follows the
    /// reply's serve point can overtake the reply on the channel. The INV
    /// then finds nothing to drop and takes this node out of the copyset,
    /// so a copy installed from the reply afterwards would stay stale
    /// forever. A reply is therefore cached only if no INV for its
    /// location arrived while the request was outstanding.
    std::uint64_t inv_count_at_send{0};
  };

  /// An invalidation round in progress at the owner for one location.
  struct PendingWrite {
    Value value{0};
    WriteTag tag{};
    NodeId origin{kNoNode};      ///< requester; == id_ for a local write
    std::uint64_t reply_rid{0};  ///< request to answer when acks drain
    std::size_t remaining{0};    ///< outstanding INV_ACKs
    std::uint64_t trace_id{0};   ///< the write's correlation id (flows on)
  };

  void on_message(const Message& m);
  void serve_read(const Message& m);
  void serve_write(const Message& m);
  void handle_inv(const Message& m);
  void handle_inv_ack(const Message& m);
  void complete_pending(const Message& m);

  /// Applies a completed write and drains the deferred-request queue for x.
  /// Caller holds mu_; may temporarily release it to send messages.
  void finish_write(std::unique_lock<std::mutex>& lock, Addr x);

  /// Starts the invalidation round for a write (or applies it immediately if
  /// no copies exist). Caller holds mu_. Returns true if completed inline.
  /// `trace_id` is the write's correlation id: it rides on the INV fan-out,
  /// the acks and the eventual W_REPLY.
  bool begin_write(std::unique_lock<std::mutex>& lock, Addr x, Value v,
                   WriteTag tag, NodeId origin, std::uint64_t reply_rid,
                   std::uint64_t trace_id);

  OwnedCell& owned_cell(Addr x);
  /// Registers request `rid` for location x, answered into `slot`. Caller
  /// holds mu_.
  void register_pending(std::uint64_t rid, Addr x, ReplySlot* slot);
  [[nodiscard]] std::uint64_t inv_count(Addr x) const;

  /// Mints a correlation id for one remote (or fan-out-bearing) operation:
  /// globally unique, never 0. Caller holds mu_.
  [[nodiscard]] std::uint64_t new_trace_id() noexcept {
    return (static_cast<std::uint64_t>(id_) + 1) << 48 | ++trace_seq_;
  }

  const NodeId id_;
  const std::size_t n_;
  const Ownership& ownership_;
  Transport& transport_;
  NodeStats& stats_;
  OpObserver* const observer_;

  mutable std::mutex mu_;
  std::condition_variable write_done_cv_;
  /// Signalled whenever complete_pending fills a slot.
  std::condition_variable reply_cv_;
  std::uint64_t write_seq_{0};
  std::unordered_map<Addr, OwnedCell> owned_;
  std::unordered_map<Addr, CachedCell> cache_;
  std::unordered_map<Addr, PendingWrite> in_flight_;
  std::unordered_map<Addr, std::deque<Message>> deferred_;
  std::unordered_map<std::uint64_t, PendingRequest> pending_;
  std::unordered_map<Addr, std::uint64_t> invs_applied_;  ///< INVs per location
  std::uint64_t next_rid_{1};
  std::uint64_t trace_seq_{0};  ///< per-node trace-id counter (new_trace_id)
};

}  // namespace causalmem
