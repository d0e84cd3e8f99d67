// CausalNode: one processor of the paper's causal DSM, implementing the
// simple owner protocol of Figure 4:
//
//   r_i(x)v  — owned/cached reads are local; a miss asks the owner, merges
//              the reply stamp into VT_i, caches the value and invalidates
//              every cached value with a strictly older writestamp.
//   w_i(x)v  — increments VT_i; owned writes are local; remote writes are
//              certified by the owner (which merges the stamp, stores,
//              invalidates its older cached values and replies).
//   READ     — owner returns (value, writestamp); no clock activity.
//   WRITE    — owner merges, stores with the merged clock, invalidates,
//              replies with its merged clock.
//   discard  — drops a cached copy (replacement and liveness).
//
// Incoming requests are serviced on the transport's delivery thread (or on
// the requesting thread itself, for a blocking WRITE delivered caller-run)
// while application reads/writes run on the node's application thread; a
// single operation mutex makes every protocol step atomic, which is the
// paper's "each operation must be executed atomically and owners must
// fairly alternate between issuing reads and writes and responding to READ
// and WRITE messages".
//
// Crash tolerance lives beside this core, in CausalRecovery
// (causal/recovery.hpp); a node without failover holds none of its state.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "causalmem/common/coop.hpp"
#include "causalmem/common/flat_hash_map.hpp"
#include "causalmem/dsm/causal/config.hpp"
#include "causalmem/dsm/memory.hpp"
#include "causalmem/dsm/observer.hpp"
#include "causalmem/dsm/ownership.hpp"
#include "causalmem/net/transport.hpp"
#include "causalmem/stats/counters.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace causalmem {

class CausalRecovery;

class CausalNode final : public SharedMemory {
 public:
  using Config = CausalConfig;

  /// `ownership` and `transport` must outlive the node. The node registers
  /// its message handler with the transport; call transport.start() after
  /// all nodes are constructed. `recovery` (null without failover) must
  /// outlive the node; DsmSystem builds it.
  CausalNode(NodeId id, std::size_t n, const Ownership& ownership,
             Transport& transport, NodeStats& stats, CausalConfig config,
             OpObserver* observer = nullptr,
             CausalRecovery* recovery = nullptr);

  // SharedMemory API -------------------------------------------------------
  [[nodiscard]] Value read(Addr x) override;
  void write(Addr x, Value v) override;
  bool discard(Addr x) override;

  // Request deadlines ------------------------------------------------------

  /// Deadline-bounded read: like read(), but with CausalConfig::
  /// request_timeout set, an owner round trip that expires is retried
  /// (request_retries more rounds, re-resolving the owner each round so a
  /// failover redirects it) and then surfaces OpStatus::kUnreachable
  /// instead of blocking forever. With request_timeout == 0 this is read().
  [[nodiscard]] ReadResult try_read(Addr x);

  /// Deadline-bounded write (blocking mode only; async writes certify in
  /// the background and are never Unreachable at the call site). On
  /// exhaustion the issue-time local install and the per-page own-write
  /// requirement are unwound so later reads are not owed a write that may
  /// never have landed.
  OpStatus try_write(Addr x, Value v);

  [[nodiscard]] bool owns(Addr x) const override;
  void flush() override;
  [[nodiscard]] NodeId node_id() const override { return id_; }
  [[nodiscard]] NodeStats& stats() override { return stats_; }

  // Enhancements -----------------------------------------------------------

  /// Marks every page fully contained in [lo, hi) as read-only: cached
  /// copies of those pages are exempt from causal invalidation (the paper's
  /// footnote 2 — "avoid invalidations of A and b"). Contract: the marked
  /// locations were written before any cross-node interaction and are never
  /// written again; writes to them afterwards abort.
  void mark_read_only(Addr lo, Addr hi) override;

  // Introspection (tests) ---------------------------------------------------

  /// Current vector time of this processor.
  [[nodiscard]] VectorClock vector_time() const;

  /// True when a cached (non-owned) copy of x is present and valid.
  [[nodiscard]] bool is_cached(Addr x) const;

  /// Number of valid cached pages.
  [[nodiscard]] std::size_t cached_page_count() const;

 private:
  friend class CausalRecovery;

  /// One memory cell: a value-writestamp pair plus the unique-write tag the
  /// paper assumes ("we assume all writes are unique").
  /// The fields a read returns come first, so a hit touches one cache line
  /// of the cell however large its stamp.
  struct Cell {
    Value value{kInitialValue};
    WriteTag tag{};
    VectorClock stamp;
  };

  /// A cached sharing unit: all cells of the page plus the page writestamp
  /// used for invalidation comparisons.
  struct CachedPage {
    std::vector<Cell> cells;
    std::list<std::uint64_t>::iterator lru_it;
    VectorClock stamp;
  };

  /// Where complete_pending leaves a blocking request's outcome. It lives
  /// in the waiting call's frame; complete_pending fills it, and erases the
  /// pending entry that points at it, in one hold of mu_, and never touches
  /// it afterwards. Guarded by mu_.
  struct ReplySlot {
    Value value{0};  ///< a READ's returned value
    bool done{false};
  };

  struct Pending {
    /// The waiting call's slot; null for an async write, which no call
    /// waits on (flush() is its fence).
    ReplySlot* slot{nullptr};
    std::uint64_t start_ns{0};  ///< invocation time of the blocked operation
    std::uint64_t trace_id{0};  ///< correlation id of the owning operation
    /// READs only: served_merges_ at send time, so the reply can detect
    /// owner-side installs that this node absorbed while the request was in
    /// flight (see the stale-install guard in complete_pending).
    VectorClock serve_snapshot;
    /// The simulated task parked on `slot` (await_reply records it), woken
    /// once the slot is filled; kNoTask on every threaded run.
    coop::TaskToken waiter{coop::kNoTask};
  };

  /// invalidate_cache sentinel: exempt no page from the sweep.
  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

  [[nodiscard]] std::uint64_t page_of(Addr x) const noexcept {
    return x / cfg_.page_size;
  }
  [[nodiscard]] Addr page_base(std::uint64_t page) const noexcept {
    return page * cfg_.page_size;
  }

  void on_message(const Message& m);
  void serve_read(const Message& m);
  void serve_write(const Message& m);
  void complete_pending(const Message& m);

  /// Owner-side admission of a READ or WRITE (see CausalRecovery::admit):
  /// true when this node serves it now. Caller holds mu_ via `lock`.
  bool admit(const Message& m, std::unique_lock<std::mutex>& lock);

  /// Waits until complete_pending fills `slot` (request `rid`) or virtual
  /// time (obs::now_ns()) reaches `deadline_ns`; 0 waits indefinitely.
  /// Returns true when the reply arrived; on expiry the pending entry is
  /// abandoned (a late reply is dropped) and false is returned.
  bool await_reply(ReplySlot& slot, std::uint64_t rid,
                   std::uint64_t deadline_ns);

  /// Blocks until outstanding_async_ drains (the async-mode fence). Takes
  /// the held operation lock; under the simulation parker the lock is
  /// released around the cooperative wait.
  void wait_flushed(std::unique_lock<std::mutex>& lock);

  /// Deadline bookkeeping for one expired round against `target`.
  void on_round_timeout(NodeId target, std::uint64_t epoch_at_send);

  /// Fires the flight-recorder unreachable trigger (no-op when none is
  /// attached). Called after an operation surfaces OpStatus::kUnreachable.
  void notify_unreachable(MsgType op, NodeId target, Addr x);

  /// Returns the owned cell for x, creating the initial-value cell on first
  /// touch (the paper: locations are initialized by distinguished writes
  /// that precede all operations). Caller holds mu_.
  Cell& owned_cell(Addr x);

  /// Installs a freshly fetched page into the cache. Caller holds mu_.
  void install_page(std::uint64_t page, CachedPage&& cp);

  /// Records this node's own certified write into its cache (Fig. 4's
  /// M_i[x] := (v, VT_i) on the writer side). Caller holds mu_.
  void cache_own_write(Addr x, Value v, const WriteTag& tag,
                       const VectorClock& stamp);

  /// Figure 4's invalidation sweep: drops every cached page whose stamp is
  /// strictly older than `threshold` (or everything, under kFlushAll),
  /// except `keep_page` and read-only pages. Caller holds mu_.
  void invalidate_cache(const VectorClock& threshold, std::uint64_t keep_page,
                        std::uint64_t trace_id = 0);

  /// `record_unsub` is false only for the install_page replacement erase —
  /// the page is being refreshed, not dropped, so the owner must keep this
  /// node in the copyset.
  void erase_page(FlatHashMap<std::uint64_t, CachedPage>::iterator it,
                  bool record_unsub = true);
  void touch_lru(CachedPage& cp);
  void evict_over_capacity();

  // --- sharded copyset maintenance (docs/SHARDING.md); every hook below is
  // inert (single branch) unless one of the cfg_ sharding flags is set ---

  /// Any sharding feature on: subscriber sets are maintained.
  [[nodiscard]] bool copysets_on() const noexcept {
    return cfg_.copysets || cfg_.push_invalidation;
  }

  /// With send_msg_held, the ONLY way protocol/recovery frames leave this
  /// node: drains the per-peer piggyback queues (unsubs, invalidation
  /// notices) into the message's sharding trailer under piggy_mu_, then
  /// hands the frame to the transport. Lock order: mu_ -> piggy_mu_
  /// (callers may hold mu_; this takes only piggy_mu_).
  void send_msg(Message&& m);

  /// send_msg through the transport's two-step send: a blocking WRITE is
  /// queued here, under mu_, and the caller delivers it itself with
  /// transport_.deliver_held() once mu_ is released.
  [[nodiscard]] HeldSend send_msg_held(Message&& m);

  /// Moves the piggyback queues' entries for m.to into m's sharding trailer.
  void attach_piggyback(Message& m);

  /// Applies an incoming frame's sharding trailer before handler dispatch:
  /// unsubscribes the sender from named pages and drops cached pages named
  /// in the invalidation list. Takes mu_ (erase_page nests piggy_mu_
  /// under it); must not be called with either held.
  void apply_piggyback(const Message& m);

  /// Owner-side apply hook: queues one invalidation notice to every
  /// subscriber of x's page except the writer and this node, flushing a
  /// standalone INV_BATCH frame to any subscriber whose batch filled.
  /// No-op unless cfg_.push_invalidation. Caller holds mu_.
  void queue_inval_notices(Addr x, NodeId writer);

  /// Cache-drop hook (erase_page): queues an unsubscribe notice for the
  /// page's current owner onto the piggyback queue. Caller holds mu_.
  void note_page_dropped(std::uint64_t pg);

  [[nodiscard]] NodeId owner_of(Addr x) const {
    return ownership_.owner(page_base(page_of(x)));
  }

  /// Registers request `rid`; `slot` is null for an async write. Caller
  /// holds mu_.
  Pending& register_pending(std::uint64_t rid, ReplySlot* slot,
                            std::uint64_t start_ns = 0,
                            std::uint64_t trace_id = 0);

  /// Mints the correlation id stamped on every message and trace event of
  /// one remote operation: globally unique across nodes (the node id lives
  /// in the top bits), never 0. Caller holds mu_.
  [[nodiscard]] std::uint64_t new_trace_id() noexcept {
    return (static_cast<std::uint64_t>(id_) + 1) << 48 | ++trace_seq_;
  }

  const NodeId id_;
  const std::size_t n_;
  const Ownership& ownership_;
  Transport& transport_;
  NodeStats& stats_;
  const CausalConfig cfg_;
  OpObserver* const observer_;

  mutable std::mutex mu_;
  VectorClock vt_;
  /// Join of the issue stamps of every remote value that became locally
  /// readable here (WRITE services installing into owned_, READ replies
  /// installing into cache_, recovery elections). Unlike vt_ it excludes
  /// this node's own increments and reply-borne merges that installed
  /// nothing, so it is exactly the knowledge a concurrent reader could
  /// pick up from this node's memory — the reference point for the
  /// mid-flight stale-install guard in complete_pending.
  VectorClock served_merges_;
  std::uint64_t write_seq_{0};
  // The owned/cache/own-write/pending tables sit on every operation and
  // every message service; they use the flat open-addressing map (one array
  // probe instead of a heap node chase per lookup). NB: inserts may rehash —
  // no reference into these maps is held across an insert into the same map.
  FlatHashMap<Addr, Cell> owned_;
  FlatHashMap<std::uint64_t, CachedPage> cache_;
  std::list<std::uint64_t> lru_;  // front = most recently used page
  std::unordered_set<std::uint64_t> read_only_pages_;

  /// Per page: this node's own writes the page's owner must have processed
  /// before a read reply for the page may take effect. `outstanding` holds
  /// seqs of issued-but-unresolved writes; `accepted_floor` is the highest
  /// certified seq. A reply whose stamp does not cover
  /// max(accepted_floor, max(outstanding)) predates our program order and
  /// is retried. Rejected (owner-wins) writes leave `outstanding` without
  /// raising the floor — their value exists nowhere, and the owner's state
  /// at rejection time is concurrent with them, so no wait is owed.
  struct OwnPageWrites {
    std::uint64_t accepted_floor{0};
    std::set<std::uint64_t> outstanding;

    [[nodiscard]] std::uint64_t required() const noexcept {
      return outstanding.empty()
                 ? accepted_floor
                 : std::max(accepted_floor, *outstanding.rbegin());
    }
  };
  FlatHashMap<std::uint64_t, OwnPageWrites> own_writes_;

  /// Crash tolerance, or null without failover (see recovery.hpp).
  CausalRecovery* const recovery_;

  // --- sharded copyset state (empty unless copysets_on()) ---
  /// Per page: nodes believed to cache a copy (subscribed on first fetch,
  /// unsubscribed on eviction notices). Owner-side state, under mu_.
  std::unordered_map<std::uint64_t, std::set<NodeId>> subscribers_;
  /// Piggyback queues, drained by send_msg. Their own mutex so the send
  /// path never needs mu_ (lock order mu_ -> piggy_mu_).
  std::mutex piggy_mu_;
  std::unordered_map<NodeId, std::vector<Addr>> pending_unsubs_;
  std::unordered_map<NodeId, std::vector<Addr>> pending_invals_;

  FlatHashMap<std::uint64_t, Pending> pending_;
  std::uint64_t next_rid_{1};
  std::uint64_t trace_seq_{0};  ///< per-node trace-id counter (new_trace_id)
  std::size_t outstanding_async_{0};
  /// Owner of the currently pipelined async-write chain (valid while
  /// outstanding_async_ > 0): consecutive async writes may overlap only
  /// while they target one owner.
  NodeId async_chain_owner_{kNoNode};
  std::condition_variable flush_cv_;
  /// Signalled whenever complete_pending fills a slot; threaded waiters
  /// re-check their own slot under mu_.
  std::condition_variable reply_cv_;
};

}  // namespace causalmem
