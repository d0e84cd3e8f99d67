// CausalRecovery: crash tolerance for one CausalNode, beside the Figure 4
// core (PROTOCOL.md "Crash tolerance", docs/PERSISTENCE.md): suspicion
// filing, writestamp-max recovery elections, the journal they draw on,
// rejoin, and the WAL and checkpoints. DsmSystem builds one per node of a
// failover system and hands it to the node's constructor; without failover
// the node's pointer is null and none of this state exists. The core calls
// in only through the private hooks below, under its operation mutex unless
// a hook says otherwise.
#pragma once

#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/failover.hpp"
#include "causalmem/net/message.hpp"
#include "causalmem/persist/store.hpp"

namespace causalmem {

class CausalRecovery {
 public:
  /// `dir` must be the directory the node's Ownership resolves through;
  /// `store` is null without persistence. Both must outlive the component.
  CausalRecovery(FailoverDirectory& dir, persist::Store* store)
      : dir_(dir), store_(store) {}

  /// Restart protocol for a node whose transport just un-crashed: drops all
  /// volatile protocol state (cache, journal, pending bookkeeping —
  /// write_seq_ survives as the node's stable write counter, keeping write
  /// tags unique across incarnations), rebuilds the vector clock, and
  /// resyncs it from every live peer. Returns true when every live peer
  /// answered within the request deadline.
  ///
  /// With a store the crash is honest: the owned cells do NOT survive in
  /// memory — they are reloaded from checkpoint + WAL (complete for every
  /// acknowledged write, since every append is synced), and recovery
  /// elections for restored pages are seeded with the restored copy, so
  /// peers send only what they observed fresher. When the disk is gone too,
  /// every page this node serves must first win a peer election, exactly as
  /// if the page had migrated.
  bool rejoin();

  /// Takes an asynchronous uncoordinated checkpoint of the owned cells +
  /// vector clock right now (the periodic trigger is
  /// PersistConfig::checkpoint_every WAL appends). Returns false without a
  /// store or on I/O failure.
  bool checkpoint_now();

 private:
  friend class CausalNode;
  using Cell = CausalNode::Cell;

  /// One in-flight writestamp-max election per acquired page.
  struct Election {
    std::set<NodeId> expected;      ///< live peers not yet answered
    std::optional<Cell> best;       ///< current election winner, if any
    std::vector<Message> deferred;  ///< requests replayed after the election
    std::set<std::pair<NodeId, std::uint64_t>> queued;  ///< dedupe (from,rid)
  };

  // --- hooks the core calls ---

  /// Message receipt (no lock held): records the sender's liveness, and
  /// consumes heartbeat, SYNC, RECOVER and RECOVER_REPLY, returning true.
  bool on_receive(const Message& m);
  /// Owner-side admission of a READ or WRITE: false when the request is
  /// dropped (stale routing) or queued behind its page's election.
  bool admit(const Message& m, std::unique_lock<std::mutex>& lock);
  /// True when the node may serve/read the page from its own cells: it is
  /// the page's static owner, or has finished the page's election.
  [[nodiscard]] bool page_ready(std::uint64_t pg) const;
  /// WAL-appends one just-applied owned cell (the durability point of the
  /// apply: the record is on disk before the reply leaves) and takes the
  /// periodic checkpoint when due. No-op without a store.
  void on_apply(Addr x, const Cell& c);
  /// Journals the certified cell a READ_REPLY or W_REPLY reports.
  void journal_reply(const Message& m);
  [[nodiscard]] bool peer_down(NodeId p) const { return dir_.is_down(p); }
  /// Suspicion filing for one expired round against `target`; no lock held.
  void on_round_timeout(NodeId target, std::uint64_t epoch_at_send);

  // --- internals, reached through the hooks and rejoin ---
  void serve_sync(const Message& m);
  /// Answers a RECOVER poll from the journal: a copy when the request
  /// carries no stamp or when the journal's copy beats it under
  /// fresher_stamp, else a payload-free "nothing fresher".
  void serve_recover(const Message& m);
  void on_recover_reply(const Message& m);
  /// Folds an observed remote cell into the monotone journal. Caller holds
  /// the node's mutex, as for everything below.
  void journal(Addr x, const Cell& c);
  /// Queues `m` (a READ or WRITE the node now owns but has not recovered)
  /// behind the page's election, starting the election on first demand.
  /// Consumes `lock` (the election may complete inline and dispatch
  /// deferred messages outside the mutex).
  void begin_or_join_election(std::uint64_t pg, const Message& m,
                              std::unique_lock<std::mutex>& lock);
  /// Installs the election winner as the owned cell, marks the page
  /// recovered and replays the deferred requests. Consumes `lock`.
  void finish_election(std::uint64_t pg, std::unique_lock<std::mutex>& lock);
  /// Checkpoints all owned cells + the clock and resets the WAL.
  bool checkpoint_locked();

  CausalNode* node_{nullptr};  ///< set by the node's constructor
  FailoverDirectory& dir_;
  persist::Store* const store_;
  /// True after a rejoin() that found NOTHING durable while a store was
  /// attached (disk lost with the crash): the incarnation may not serve any
  /// page — base-owned ones included — before its election, because the
  /// in-memory "cells survive the crash" stand-in no longer applies and
  /// conjured initial values could roll back what peers already read.
  bool lost_disk_epoch_{false};
  /// Monotone freshest-observed copy of every remote cell this node ever
  /// saw certified (read replies, write replies). Unlike the cache, entries
  /// are exempt from invalidation and eviction: they are not readable
  /// state, only election material — invalidation may legally drop the last
  /// cached copy of a value that a recovery election later needs to avoid
  /// rolling the page back behind what readers observed.
  std::unordered_map<Addr, Cell> journal_;
  /// Pages this node acquired via failover and has finished electing.
  std::unordered_set<std::uint64_t> recovered_pages_;
  std::unordered_map<std::uint64_t, Election> elections_;
};

}  // namespace causalmem
