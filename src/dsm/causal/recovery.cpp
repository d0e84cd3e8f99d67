#include "causalmem/dsm/causal/recovery.hpp"

#include <algorithm>

#include "causalmem/common/expect.hpp"
#include "causalmem/obs/clock.hpp"
#include "causalmem/obs/trace.hpp"
#include "causalmem/persist/store.hpp"

namespace causalmem {

bool CausalRecovery::on_receive(const Message& m) {
  // Any delivery is proof of life: the failure detector piggybacks on
  // protocol traffic, so busy systems never need dedicated heartbeats.
  dir_.record_alive(m.from);
  switch (m.type) {
    case MsgType::kHeartbeat:
      return true;  // the liveness record was the whole point
    case MsgType::kSyncRequest:
      serve_sync(m);
      return true;
    case MsgType::kRecover:
      serve_recover(m);
      return true;
    case MsgType::kRecoverReply:
      on_recover_reply(m);
      return true;
    default:
      return false;
  }
}

bool CausalRecovery::admit(const Message& m,
                           std::unique_lock<std::mutex>& lock) {
  // Stale routing (the sender resolved the owner before a failover): let
  // the request die — the sender's deadline re-resolves and retries.
  if (node_->owner_of(m.addr) != node_->id_) return false;
  const std::uint64_t pg = node_->page_of(m.addr);
  if (page_ready(pg)) return true;
  begin_or_join_election(pg, m, lock);
  return false;
}

bool CausalRecovery::page_ready(std::uint64_t pg) const {
  if (recovered_pages_.contains(pg)) return true;
  // An incarnation that lost its disk serves nothing it didn't re-elect:
  // base ownership no longer implies having the page's state.
  if (lost_disk_epoch_) return false;
  return dir_.base_owner(node_->page_base(pg)) == node_->id_;
}

void CausalRecovery::on_apply(Addr x, const Cell& c) {
  if (store_ == nullptr) return;
  store_->append(persist::DurableCell{x, c.value, c.tag, c.stamp},
                 node_->write_seq_);
  if (store_->checkpoint_due()) checkpoint_locked();
}

void CausalRecovery::journal_reply(const Message& m) {
  // A carried cell is what stands at the owner (the read's copy, or what
  // shadowed or rejected our write): never journal a value that exists
  // nowhere.
  if (!m.cells.empty()) {
    journal(m.addr,
            Cell{m.cells.front().value, m.cells.front().tag, m.stamp});
  } else if (m.accepted) {
    journal(m.addr, Cell{m.value, m.tag, m.stamp});
  }
}

void CausalRecovery::on_round_timeout(NodeId target,
                                      std::uint64_t epoch_at_send) {
  // suspect() does its own counting/tracing and is idempotent; self-sends
  // cannot time out from unreachability, only from election queueing.
  const CausalNode& nd = *node_;
  if (target == nd.id_) return;
  // A timed-out round is evidence about the target only if our OWN endpoint
  // was up for the whole round: if we crashed after sending (the request or
  // the reply died with our endpoint), the silence is self-inflicted. "Up
  // now AND same incarnation as at send" implies up throughout — the epoch
  // bumps on every crash and restart, so any dip in between changes it.
  if (!nd.transport_.endpoint_up(nd.id_) ||
      nd.transport_.endpoint_epoch(nd.id_) != epoch_at_send) {
    return;
  }
  dir_.suspect(target, nd.id_);
}

bool CausalRecovery::checkpoint_locked() {
  CausalNode& nd = *node_;
  std::vector<persist::DurableCell> cells;
  cells.reserve(nd.owned_.size());
  for (const auto& [addr, c] : nd.owned_) {
    cells.push_back(persist::DurableCell{addr, c.value, c.tag, c.stamp});
  }
  const bool ok = store_->checkpoint(cells, nd.vt_, nd.write_seq_);
  if (obs::Tracer* t = nd.stats_.tracer()) {
    t->record(obs::TraceEventKind::kCheckpoint, 0, kNoNode, cells.size(),
              &nd.vt_);
  }
  return ok;
}

bool CausalRecovery::checkpoint_now() {
  std::unique_lock lock(node_->mu_);
  if (store_ == nullptr) return false;
  return checkpoint_locked();
}

void CausalRecovery::journal(Addr x, const Cell& c) {
  auto [it, fresh] = journal_.try_emplace(x, c);
  if (!fresh && fresher_stamp(c.stamp, it->second.stamp)) it->second = c;
}

void CausalRecovery::serve_sync(const Message& m) {
  CausalNode& nd = *node_;
  Message rep;
  {
    std::unique_lock lock(nd.mu_);
    rep.stamp = nd.vt_;
    nd.stats_.bump(Counter::kFoSyncReply);
  }
  rep.type = MsgType::kSyncReply;
  rep.from = nd.id_;
  rep.to = m.from;
  rep.request_id = m.request_id;
  nd.send_msg(std::move(rep));
}

void CausalRecovery::serve_recover(const Message& m) {
  CausalNode& nd = *node_;
  Message rep;
  {
    std::unique_lock lock(nd.mu_);
    rep.accepted = false;
    rep.stamp = VectorClock(nd.n_);
    // Answer from the monotone journal only: cache entries can be
    // invalidated (and so roll backwards); the journal can't. A stamped
    // request carries the elector's seed: a copy that seed already beats
    // would lose the election anyway, so the reply stays payload-free. The
    // same deterministic fresher_stamp order decides both, so "peer sends"
    // and "elector would elect" agree exactly.
    if (auto it = journal_.find(m.addr);
        it != journal_.end() &&
        (m.stamp.size() == 0 || fresher_stamp(it->second.stamp, m.stamp))) {
      rep.accepted = true;
      rep.value = it->second.value;
      rep.stamp = it->second.stamp;
      rep.tag = it->second.tag;
      nd.stats_.bump(Counter::kFoRecoverCopy);
    }
    nd.stats_.bump(Counter::kFoRecoverReply);
  }
  rep.type = MsgType::kRecoverReply;
  rep.from = nd.id_;
  rep.to = m.from;
  rep.request_id = m.request_id;
  rep.addr = m.addr;
  nd.send_msg(std::move(rep));
}

void CausalRecovery::on_recover_reply(const Message& m) {
  std::unique_lock lock(node_->mu_);
  const std::uint64_t pg = node_->page_of(m.addr);
  auto it = elections_.find(pg);
  if (it == elections_.end()) return;  // duplicate / post-election straggler
  Election& e = it->second;
  e.expected.erase(m.from);
  if (m.accepted && (!e.best || fresher_stamp(m.stamp, e.best->stamp))) {
    e.best = Cell{m.value, m.tag, m.stamp};
  }
  if (e.expected.empty()) finish_election(pg, lock);
}

void CausalRecovery::begin_or_join_election(
    std::uint64_t pg, const Message& m, std::unique_lock<std::mutex>& lock) {
  CausalNode& nd = *node_;
  auto [it, fresh] = elections_.try_emplace(pg);
  Election& e = it->second;
  // Queue the request behind the election. Dedupe by (sender, rid): the
  // reliable layer can deliver a request only once per rid, but a sender's
  // deadline retry arrives under a NEW rid — the duplicate replay is
  // harmless (WRITEs are idempotent at the owner, and a reply to an
  // abandoned rid is dropped by the tolerant pending lookup).
  if (e.queued.insert({m.from, m.request_id}).second) {
    // Strip the piggyback trailer from the deferred copy: it was applied
    // at first arrival, and the post-election replay goes back through
    // on_message (unsubs and invals would apply twice).
    Message dm = m;
    dm.unsub_pages.clear();
    dm.inval_pages.clear();
    e.deferred.push_back(std::move(dm));
  }
  if (fresh) {
    // Seed the election with our own freshest observation (possibly
    // restored from disk), then poll every live peer for theirs. A seeded
    // poll carries the seed's stamp, and peers send a copy only when theirs
    // would beat it, so a page whose seed is already freshest costs
    // payload-free round trips instead of one full copy per peer.
    if (auto lg = journal_.find(nd.page_base(pg)); lg != journal_.end()) {
      e.best = lg->second;
      if (obs::Tracer* t = nd.stats_.tracer()) {
        t->record(obs::TraceEventKind::kCatchup, 0, kNoNode, nd.page_base(pg),
                  &e.best->stamp);
      }
    }
    for (NodeId p : dir_.live_peers(nd.id_)) e.expected.insert(p);
    for (const NodeId p : e.expected) {
      Message req;
      req.type = MsgType::kRecover;
      req.from = nd.id_;
      req.to = p;
      req.request_id = 0;  // routed by type, not by pending slot
      req.addr = nd.page_base(pg);
      if (e.best) req.stamp = e.best->stamp;
      nd.stats_.bump(Counter::kFoRecoverRequest);
      nd.send_msg(std::move(req));
    }
  } else {
    // Prune peers that died since the election began — their RECOVER_REPLY
    // will never come. The pruning is driven by retried requests landing
    // here, so a stalled election makes progress exactly when someone still
    // wants the page.
    std::erase_if(e.expected, [this](NodeId p) { return dir_.is_down(p); });
  }
  if (e.expected.empty()) {
    finish_election(pg, lock);
    return;
  }
  lock.unlock();
}

void CausalRecovery::finish_election(std::uint64_t pg,
                                     std::unique_lock<std::mutex>& lock) {
  CausalNode& nd = *node_;
  auto it = elections_.find(pg);
  CM_ASSERT(it != elections_.end());
  Election e = std::move(it->second);
  elections_.erase(it);
  const Addr base = nd.page_base(pg);
  // Install the election winner as the owned copy. No candidate anywhere
  // means nobody ever observed a certified value for the page: the paper's
  // distinguished initial write stands (owned_cell conjures it on demand).
  if (e.best) {
    CausalNode::Cell& c = nd.owned_cell(base);
    c = *e.best;
    nd.vt_.update(e.best->stamp);
    // The elected value is now locally readable (mid-flight guard input).
    nd.served_merges_.update(e.best->stamp);
    // The election winner is an owner apply like any other: durable before
    // the deferred requests (and their replies) go out.
    on_apply(base, c);
    // Taking over the page is a causal interaction like serving a WRITE:
    // our cached copies that the winner's past overwrites must go.
    nd.invalidate_cache(nd.vt_, pg);
    // The elected value supersedes whatever the page's subscribers cached
    // under the dead owner; no writer is exempt (kNoNode) — the node the
    // winner came from merely refetches.
    nd.queue_inval_notices(base, kNoNode);
  }
  recovered_pages_.insert(pg);
  if (obs::Tracer* t = nd.stats_.tracer()) {
    t->record(obs::TraceEventKind::kRecover, 0, kNoNode, base, &nd.vt_);
  }
  std::vector<Message> deferred = std::move(e.deferred);
  // Replay outside the mutex: the deferred requests run the normal service
  // path (which re-locks) and their replies re-enter the transport.
  lock.unlock();
  for (const Message& dm : deferred) nd.on_message(dm);
}

bool CausalRecovery::rejoin() {
  CausalNode& nd = *node_;
  struct Wait {
    NodeId peer{kNoNode};
    std::uint64_t rid{0};
    CausalNode::ReplySlot slot;
  };
  std::vector<Wait> waits;
  std::uint64_t epoch_at_send = 0;
  {
    std::unique_lock lock(nd.mu_);
    epoch_at_send = nd.transport_.endpoint_epoch(nd.id_);
    // Volatile state dies with the incarnation. Owned cells for pages that
    // migrated away while we were down are dropped (their successor is now
    // authoritative); our never-migrated pages survive — the crash model is
    // transport-level, standing in for a reload from stable storage.
    nd.cache_.clear();
    nd.lru_.clear();
    nd.own_writes_.clear();
    journal_.clear();
    recovered_pages_.clear();
    elections_.clear();
    nd.read_only_pages_.clear();
    // Copyset state is volatile: subscribers re-subscribe on their next
    // fetch, and queued-but-unsent notices died with the incarnation.
    nd.subscribers_.clear();
    {
      std::scoped_lock pl(nd.piggy_mu_);
      nd.pending_unsubs_.clear();
      nd.pending_invals_.clear();
    }
    for (auto oit = nd.owned_.begin(); oit != nd.owned_.end();) {
      if (dir_.owner(oit->first) != nd.id_) {
        oit = nd.owned_.erase(oit);
      } else {
        ++oit;
      }
    }
    // NOT pending_ / outstanding_async_: application threads may still wait
    // on slots from before the crash; their rounds expire via await_reply.
    //
    // The clock restarts from the stable write counter: our own component
    // must stay ahead of every write this incarnation will issue (tags are
    // {id, ++write_seq_}), and the peers' components are re-learned below.
    lost_disk_epoch_ = false;
    persist::RecoveredState durable;
    if (store_ != nullptr) {
      // Honest crash: with durable storage the in-memory cells do NOT
      // survive the incarnation — the transport-crash model's "memory
      // survives" stand-in is replaced by a real reload. Everything this
      // incarnation may serve comes from checkpoint + WAL, complete for
      // every acknowledged write (every owner apply was synced to disk
      // before its reply left, and a down owner certifies nothing while
      // down).
      nd.owned_.clear();
      durable = store_->recover();
      nd.write_seq_ = std::max(nd.write_seq_, durable.write_seq);
      if (obs::Tracer* t = nd.stats_.tracer()) {
        t->record(obs::TraceEventKind::kWalReplay, 0, kNoNode,
                  durable.wal_records, &durable.vt);
      }
      if (!durable.any()) {
        // Nothing durable came back (media loss, or a crash before the
        // first apply): serving base-owned pages from conjured initial
        // cells could roll back values peers already read, so every page
        // must first win its election (see page_ready).
        lost_disk_epoch_ = true;
      }
    }
    std::vector<std::uint64_t> comps(nd.n_, 0);
    comps[nd.id_] = nd.write_seq_;
    nd.vt_ = VectorClock(comps);
    if (store_ != nullptr) {
      // vt_ must dominate the stamp of every restored (= applied) cell;
      // durable.vt is exactly that join.
      nd.vt_.update(durable.vt);
      for (persist::DurableCell& dc : durable.cells) {
        const std::uint64_t pg = nd.page_of(dc.addr);
        if (dir_.owner(dc.addr) != nd.id_) {
          // The page migrated away while we were down — its successor is
          // authoritative now. The durable copy still seeds the journal: if
          // the successor dies before anyone re-reads the page, the next
          // election can be won from here instead of losing the data.
          journal(dc.addr, Cell{dc.value, dc.tag, dc.stamp});
          continue;
        }
        Cell restored{dc.value, dc.tag, std::move(dc.stamp)};
        journal(dc.addr, restored);
        nd.owned_[dc.addr] = std::move(restored);
        if (dir_.base_owner(nd.page_base(pg)) != nd.id_) {
          // A page acquired by failover in a previous incarnation: restored
          // state stands in for the election it already won.
          recovered_pages_.insert(pg);
        }
      }
    }
    const std::vector<NodeId> peers = dir_.live_peers(nd.id_);
    waits.resize(peers.size());  // sized once: registered slots never move
    for (std::size_t i = 0; i < peers.size(); ++i) {
      Wait& w = waits[i];
      w.peer = peers[i];
      w.rid = nd.next_rid_++;
      nd.register_pending(w.rid, &w.slot);
      Message req;
      req.type = MsgType::kSyncRequest;
      req.from = nd.id_;
      req.to = w.peer;
      req.request_id = w.rid;
      nd.stats_.bump(Counter::kFoSyncRequest);
      nd.send_msg(std::move(req));
    }
  }
  const std::uint64_t timeout_ns =
      nd.cfg_.request_timeout.count() > 0
          ? static_cast<std::uint64_t>(nd.cfg_.request_timeout.count())
          : 500'000'000ULL;  // un-configured systems still must not hang
  bool all = true;
  for (Wait& w : waits) {
    if (!nd.await_reply(w.slot, w.rid, obs::now_ns() + timeout_ns)) {
      // Filed like any expired round: if we crashed again mid-rejoin, the
      // sync silence says nothing about the peer.
      on_round_timeout(w.peer, epoch_at_send);
      all = false;
    }
  }
  if (obs::Tracer* t = nd.stats_.tracer()) {
    std::unique_lock lock(nd.mu_);
    t->record(obs::TraceEventKind::kRestart, 0, kNoNode, 0, &nd.vt_);
  }
  return all;
}

}  // namespace causalmem
