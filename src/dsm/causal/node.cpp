#include "causalmem/dsm/causal/node.hpp"

#include <algorithm>
#include <chrono>

#include "causalmem/common/coop.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/dsm/causal/recovery.hpp"
#include "causalmem/dsm/op_clock.hpp"
#include "causalmem/obs/clock.hpp"
#include "causalmem/obs/flight_recorder.hpp"
#include "causalmem/obs/trace.hpp"

namespace causalmem {

CausalNode::CausalNode(NodeId id, std::size_t n, const Ownership& ownership,
                       Transport& transport, NodeStats& stats,
                       CausalConfig config, OpObserver* observer,
                       CausalRecovery* recovery)
    : id_(id),
      n_(n),
      ownership_(ownership),
      transport_(transport),
      stats_(stats),
      cfg_(config),
      observer_(observer),
      vt_(n),
      served_merges_(n),
      recovery_(recovery) {
  CM_EXPECTS(id < n);
  CM_EXPECTS(cfg_.page_size > 0);
  CM_EXPECTS(cfg_.cache_capacity_pages > 0);
  CM_EXPECTS_MSG(cfg_.write_mode == WriteMode::kBlocking ||
                     cfg_.conflict == ConflictPolicy::kLastArrivalWins,
                 "async writes require last-arrival-wins conflict policy");
  CM_EXPECTS_MSG(!cfg_.read_through || cfg_.write_mode == WriteMode::kBlocking,
                 "read-through (atomic) mode requires blocking writes");
  if (recovery_ != nullptr) recovery_->node_ = this;
  transport_.register_node(id_, [this](const Message& m) { on_message(m); });
}

// --------------------------------------------------------------------------
// Application-facing operations (Figure 4's r_i and w_i)
// --------------------------------------------------------------------------

Value CausalNode::read(Addr x) {
  for (;;) {
    const ReadResult r = try_read(x);
    if (r.ok()) return r.value;
    // Unreachable, but this caller wants the paper's blocking semantics:
    // retry forever. Every failed round filed a suspicion, so with failover
    // attached a successor eventually answers; without it this blocks until
    // the owner is back — exactly the pre-deadline behaviour.
  }
}

ReadResult CausalNode::try_read(Addr x) {
  OpClock clock(stats_, observer_);
  obs::Tracer* const tr = clock.tracer();
  const std::uint64_t pg = page_of(x);
  // Correlation id for the whole miss (all retry rounds share it); 0 until
  // the operation is known to go remote.
  std::uint64_t tid = 0;
  {
    std::unique_lock lock(mu_);
    if (owner_of(x) == id_ &&
        (recovery_ == nullptr || recovery_->page_ready(pg))) {
      Cell& c = owned_cell(x);
      stats_.bump(Counter::kReadHit);
      if (tr != nullptr) {
        tr->record(obs::TraceEventKind::kReadHit, 0, kNoNode, x, &vt_);
      }
      const Value v = c.value;
      const WriteTag tag = c.tag;
      const OpTiming done =
          clock.local_done(obs::TraceEventKind::kReadDone, x);
      if (observer_ != nullptr) {
        observer_->on_read(id_, x, v, tag, done);
      }
      return ReadResult{OpStatus::kOk, v};
    }
    if (!cfg_.read_through) {
      if (auto it = cache_.find(pg); it != cache_.end()) {
        touch_lru(it->second);
        const Cell& c = it->second.cells[x - page_base(pg)];
        stats_.bump(Counter::kReadHit);
        if (tr != nullptr) {
          tr->record(obs::TraceEventKind::kReadHit, 0, kNoNode, x, &vt_);
        }
        const Value v = c.value;
        const WriteTag tag = c.tag;
        const OpTiming done =
            clock.local_done(obs::TraceEventKind::kReadDone, x);
        if (observer_ != nullptr) {
          observer_->on_read(id_, x, v, tag, done);
        }
        return ReadResult{OpStatus::kOk, v};
      }
    }
    stats_.bump(Counter::kReadMiss);
    clock.start();
    tid = new_trace_id();
    if (tr != nullptr) {
      tr->record(obs::TraceEventKind::kReadMiss, 0, owner_of(x), x, &vt_, 0, 0,
                 tid);
    }
  }

  // Read miss: request a current copy from the owner and block (Fig. 4),
  // bounded by the per-round deadline when one is configured. Each round
  // re-resolves the owner, so a failover between rounds redirects the retry
  // to the successor. The send happens under the operation mutex so the
  // channel order to each owner equals the node's operation-issue order
  // (several application threads may share this node).
  const bool bounded = cfg_.request_timeout.count() > 0;
  const std::uint64_t timeout_ns =
      static_cast<std::uint64_t>(cfg_.request_timeout.count());
  const std::uint32_t rounds = bounded ? cfg_.request_retries + 1 : 1;
  NodeId target = kNoNode;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    ReplySlot slot;
    std::uint64_t rid = 0;
    std::uint64_t epoch_at_send = 0;
    {
      std::unique_lock lock(mu_);
      target = owner_of(x);
      rid = next_rid_++;
      epoch_at_send = transport_.endpoint_epoch(id_);
      register_pending(rid, &slot, clock.start_ns(), tid).serve_snapshot =
          served_merges_;
      Message req;
      req.type = MsgType::kRead;
      req.from = id_;
      req.to = target;
      req.request_id = rid;
      req.addr = x;
      req.trace_id = tid;
      // The stamp stays empty: the owner ignores it, and an empty clock
      // costs two bytes on the wire.
      stats_.bump(Counter::kMsgReadRequest);
      send_msg(std::move(req));
    }

    // The reply was already applied (clock merge, per-cell install
    // preferring locally newer own writes, invalidation sweep, observer
    // notification) by complete_pending, on whichever thread delivered it —
    // in FIFO position, so a later WRITE service can never sweep past a
    // not-yet-installed stale copy, and the recorded per-node operation
    // order is the order effects actually took place (which is what makes
    // several application threads per node sound). complete_pending put the
    // chosen value into the slot.
    const std::uint64_t deadline = bounded ? obs::now_ns() + timeout_ns : 0;
    if (await_reply(slot, rid, deadline)) {
      const Value v = slot.value;
      clock.timed_done(LatencyMetric::kReadNs, obs::TraceEventKind::kReadDone,
                       x, tid);
      return ReadResult{OpStatus::kOk, v};
    }
    on_round_timeout(target, epoch_at_send);
  }
  stats_.bump(Counter::kFoUnreachable);
  if (tr != nullptr) {
    tr->record(obs::TraceEventKind::kUnreachable,
               static_cast<std::uint8_t>(MsgType::kRead), target, x, nullptr,
               0, 0, tid);
  }
  notify_unreachable(MsgType::kRead, target, x);
  return ReadResult{OpStatus::kUnreachable, 0};
}

void CausalNode::write(Addr x, Value v) {
  while (try_write(x, v) != OpStatus::kOk) {
    // Blocking semantics on top of the bounded core: retry forever. Each
    // exhausted attempt filed suspicions, so with failover attached the
    // retry eventually lands at a live successor.
  }
}

OpStatus CausalNode::try_write(Addr x, Value v) {
  OpClock clock(stats_, observer_);
  obs::Tracer* const tr = clock.tracer();
  const std::uint64_t pg = page_of(x);
  // The entire issue sequence — clock increment, observation, local
  // install, and the send — happens under ONE hold of the operation mutex,
  // so every channel's message order equals this node's operation-issue
  // order even with several application threads (DESIGN.md §6 rule 5a).
  std::unique_lock lock(mu_);
  CM_EXPECTS_MSG(!read_only_pages_.contains(pg),
                 "write to a location marked read-only");
  // Async-mode soundness fence: in-flight asynchronous writes are ordered
  // only by their FIFO channel to one owner. Any write that publishes
  // through a *different* node (a local write, or a remote write to
  // another owner) would let readers observe this write's causal future
  // before the owner applied it — so such a write first waits out the
  // outstanding chain. Writes to the same owner keep pipelining.
  if (cfg_.write_mode == WriteMode::kAsync && outstanding_async_ > 0 &&
      owner_of(x) != async_chain_owner_) {
    wait_flushed(lock);
  }
  // Every write attempt increments the writer's clock (Fig. 4).
  vt_.increment(id_);
  const WriteTag tag{id_, ++write_seq_};
  if (owner_of(x) == id_ &&
      (recovery_ == nullptr || recovery_->page_ready(pg))) {
    Cell& c = owned_cell(x);
    c.value = v;
    c.stamp = vt_;
    c.tag = tag;
    if (recovery_ != nullptr) recovery_->on_apply(x, c);
    queue_inval_notices(x, id_);
    stats_.bump(Counter::kWriteLocal);
    const OpTiming done = clock.local_done(obs::TraceEventKind::kWriteDone, x);
    if (observer_ != nullptr) {
      observer_->on_write(id_, x, v, tag, true, done);
    }
    return OpStatus::kOk;
  }

  // Remote write — possibly to ourselves: a page acquired by failover but
  // not yet recovered routes through the transport like any other request,
  // so it queues behind the page's election in arrival order.
  NodeId target = owner_of(x);
  const VectorClock stamp_at_issue = vt_;
  stats_.bump(Counter::kWriteRemote);
  clock.start();
  // Remember our latest write into this page so read replies that predate
  // it (race: READ overtaken by this WRITE's effect) are retried.
  own_writes_[pg].outstanding.insert(tag.seq);
  // The write's causal position is its stamp — created here — so this is
  // where it is observed. (With the owner-wins policy the rejection
  // outcome is not yet known; the history records the write as a normal
  // write, which is exactly Definition 1's treatment: a rejected write
  // exists and is concurrent with the owner's value, it just installed
  // nothing anybody will read. A write that later exhausts its deadline
  // gets the same treatment — it exists, and nobody will read it.)
  //
  // Real-time bracket: deliberately UNTIMED (end_ns = 0). The write's
  // global take-effect point is at the owner, after this observation; an
  // interval closed here would exclude it and make the linearizability
  // checker reject correct read-through executions.
  if (observer_ != nullptr) {
    observer_->on_write(id_, x, v, tag, true,
                        OpTiming{clock.start_ns(), 0});
  }
  // Install the written value locally at issue time (with the issue stamp —
  // the certified reply refreshes it). A sibling application thread that
  // reads x between our issue and the owner's reply must see this write:
  // it is already in this node's program order. (Read-through mode caches
  // nothing; a sibling's read reaches the owner FIFO-behind this WRITE.)
  if (!cfg_.read_through) cache_own_write(x, v, tag, stamp_at_issue);

  const bool async = cfg_.write_mode == WriteMode::kAsync;
  const std::uint64_t tid = new_trace_id();
  std::uint64_t rid = next_rid_++;
  ReplySlot slot;
  register_pending(rid, async ? nullptr : &slot, clock.start_ns(), tid);
  if (async) {
    ++outstanding_async_;
    async_chain_owner_ = target;
  }
  Message req;
  req.type = MsgType::kWrite;
  req.from = id_;
  req.to = target;
  req.request_id = rid;
  req.addr = x;
  req.value = v;
  req.tag = tag;
  req.stamp = stamp_at_issue;
  req.trace_id = tid;
  stats_.bump(Counter::kMsgWriteRequest);
  std::uint64_t epoch_at_send = transport_.endpoint_epoch(id_);
  if (async) {
    send_msg(Message(req));
    lock.unlock();
    // Certification happens in the background (complete_pending); deadline
    // handling does not apply — flush() is the fence.
    clock.timed_done(LatencyMetric::kWriteNs, obs::TraceEventKind::kWriteDone,
                     x, tid);
    return OpStatus::kOk;
  }
  // Caller-run delivery: the WRITE takes its channel position here, under
  // the mutex, and this thread delivers it once the mutex is released, so
  // the owner's serve_write (and, on an idle reply channel, our own
  // complete_pending) runs here instead of costing two thread wake-ups.
  HeldSend held = send_msg_held(Message(req));
  lock.unlock();
  transport_.deliver_held(held);

  // Deadline-bounded certification: every retry round re-sends the SAME
  // tag and issue stamp (idempotent at the owner — serve_write recognizes
  // an already-applied write) to the freshly resolved owner.
  const bool bounded = cfg_.request_timeout.count() > 0;
  const std::uint64_t timeout_ns =
      static_cast<std::uint64_t>(cfg_.request_timeout.count());
  const std::uint32_t rounds = bounded ? cfg_.request_retries + 1 : 1;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    if (round > 0) {
      std::unique_lock relock(mu_);
      target = owner_of(x);
      rid = next_rid_++;
      epoch_at_send = transport_.endpoint_epoch(id_);
      register_pending(rid, &slot, clock.start_ns(), tid);
      Message retry = req;
      retry.to = target;
      retry.request_id = rid;
      stats_.bump(Counter::kMsgWriteRequest);
      held = send_msg_held(std::move(retry));
      relock.unlock();
      transport_.deliver_held(held);
    }
    const std::uint64_t deadline = bounded ? obs::now_ns() + timeout_ns : 0;
    if (await_reply(slot, rid, deadline)) {
      // Clock merge and cache refresh happened in complete_pending, in
      // FIFO position (see the read path comment) — on this very thread
      // when the WRITE was delivered here and its reply came back inline.
      clock.timed_done(LatencyMetric::kWriteNs,
                       obs::TraceEventKind::kWriteDone, x, tid);
      return OpStatus::kOk;
    }
    on_round_timeout(target, epoch_at_send);
  }

  // Exhausted. Unwind what the issue sequence promised: the per-page
  // own-write requirement (a read reply must not wait forever for a write
  // that may never have landed) and the issue-time local install (nobody
  // must read a value the system may never have accepted).
  {
    std::unique_lock relock(mu_);
    if (auto ow = own_writes_.find(pg); ow != own_writes_.end()) {
      ow->second.outstanding.erase(tag.seq);
    }
    if (!cfg_.read_through) {
      if (auto pit = cache_.find(pg); pit != cache_.end()) {
        Cell& c = pit->second.cells[x - page_base(pg)];
        if (c.tag == tag) erase_page(pit);
      }
    }
  }
  stats_.bump(Counter::kFoUnreachable);
  if (tr != nullptr) {
    tr->record(obs::TraceEventKind::kUnreachable,
               static_cast<std::uint8_t>(MsgType::kWrite), target, x, nullptr,
               0, 0, tid);
  }
  notify_unreachable(MsgType::kWrite, target, x);
  return OpStatus::kUnreachable;
}

bool CausalNode::discard(Addr x) {
  std::unique_lock lock(mu_);
  if (owner_of(x) == id_) return false;
  if (auto it = cache_.find(page_of(x)); it != cache_.end()) {
    stats_.bump(Counter::kDiscard);
    if (obs::Tracer* t = stats_.tracer()) {
      t->record(obs::TraceEventKind::kDiscard, 0, kNoNode, x, &vt_);
    }
    erase_page(it);
  }
  return true;
}

bool CausalNode::owns(Addr x) const { return owner_of(x) == id_; }

void CausalNode::flush() {
  std::unique_lock lock(mu_);
  wait_flushed(lock);
}

void CausalNode::wait_flushed(std::unique_lock<std::mutex>& lock) {
  if (coop::enabled()) {
    // Simulated run: hand control to the scheduler instead of blocking the
    // thread. The lock must be dropped while parked — the handler that
    // drains outstanding_async_ runs on the scheduler's stack and takes mu_.
    while (outstanding_async_ > 0) {
      lock.unlock();
      coop::park(
          [this] {
            std::scoped_lock probe(mu_);
            return outstanding_async_ == 0;
          },
          0, "flush");
      lock.lock();
    }
    return;
  }
  flush_cv_.wait(lock, [&] { return outstanding_async_ == 0; });
}

void CausalNode::mark_read_only(Addr lo, Addr hi) {
  CM_EXPECTS(lo <= hi);
  std::unique_lock lock(mu_);
  for (std::uint64_t pg = page_of(lo); page_base(pg) < hi; ++pg) {
    const Addr base = page_base(pg);
    if (base >= lo && base + cfg_.page_size <= hi) {
      read_only_pages_.insert(pg);
    }
  }
}

VectorClock CausalNode::vector_time() const {
  std::unique_lock lock(mu_);
  return vt_;
}

bool CausalNode::is_cached(Addr x) const {
  std::unique_lock lock(mu_);
  return cache_.contains(page_of(x));
}

std::size_t CausalNode::cached_page_count() const {
  std::unique_lock lock(mu_);
  return cache_.size();
}

// --------------------------------------------------------------------------
// Owner-side servicing (Figure 4's [READ, x] and [WRITE, x, v, VT])
// --------------------------------------------------------------------------

void CausalNode::on_message(const Message& m) {
  // The sharding trailer applies BEFORE handler dispatch: an unsubscribe
  // riding a READ must leave the copyset before serve_read re-subscribes
  // the sender, and an invalidation notice riding a reply must drop the
  // stale copy before the reply's own install.
  apply_piggyback(m);
  if (recovery_ != nullptr && recovery_->on_receive(m)) return;
  switch (m.type) {
    case MsgType::kInvalBatch:
      return;  // standalone piggyback carrier — apply_piggyback was all of it
    case MsgType::kRead:
      serve_read(m);
      return;
    case MsgType::kWrite:
      serve_write(m);
      return;
    case MsgType::kReadReply:
    case MsgType::kWriteReply:
    case MsgType::kSyncReply:
      complete_pending(m);
      return;
    default:
      CM_UNREACHABLE("unexpected message type at causal node");
  }
}

void CausalNode::serve_read(const Message& m) {
  Message rep;
  {
    std::unique_lock lock(mu_);
    if (!admit(m, lock)) return;
    const std::uint64_t pg = page_of(m.addr);
    // First fetch subscribes the reader to the page's copyset: it is about
    // to hold a cached copy that future invalidation batches must reach.
    if (copysets_on() && m.from != id_) {
      if (subscribers_[pg].insert(m.from).second) {
        stats_.bump(Counter::kShardSubscribe);
      }
    }
    const Addr base = page_base(pg);
    rep.stamp = VectorClock(n_);
    rep.cells.reserve(cfg_.page_size);
    for (Addr a = base; a < base + cfg_.page_size; ++a) {
      Cell& c = owned_cell(a);
      rep.cells.push_back(CellUpdate{a, c.value, c.tag});
      rep.stamp.update(c.stamp);  // page stamp = join of cell writestamps
    }
    stats_.bump(Counter::kMsgReadReply);
  }
  rep.type = MsgType::kReadReply;
  rep.from = id_;
  rep.to = m.from;
  rep.request_id = m.request_id;
  rep.addr = m.addr;
  rep.trace_id = m.trace_id;  // the reply stays on the requester's flow
  send_msg(std::move(rep));
}

void CausalNode::serve_write(const Message& m) {
  Message rep;
  bool accepted = true;
  {
    std::unique_lock lock(mu_);
    if (!admit(m, lock)) return;
    // VT_i := update(VT_i, VT) — the owner learns the writer's causal past.
    vt_.update(m.stamp);

    // The writer installed its value locally at issue time (cache_own_write)
    // unless read-through caches nothing: it holds a copy, so it subscribes.
    if (copysets_on() && !cfg_.read_through && m.from != id_) {
      if (subscribers_[page_of(m.addr)].insert(m.from).second) {
        stats_.bump(Counter::kShardSubscribe);
      }
    }

    Cell& cur = owned_cell(m.addr);
    // Deadline-retry idempotency: a retried WRITE whose first copy already
    // landed (the reply was lost or late) must not re-install — the stored
    // stamp is the *merged* clock, so re-applying the issue stamp could
    // regress it.
    //
    // Two writes from the SAME writer are ordered exactly by their tag seq
    // (one writer's issue stamps are pointwise monotone), so a smaller or
    // equal seq means "applied here before, and possibly since overwritten
    // by the writer's own later write": re-ack. A larger seq MUST install,
    // even when our cell's stamp dominates the incoming issue stamp — the
    // clock counts write ATTEMPTS at issue time, and a writer's increment
    // for write B leaks through its own owner-side replies to third
    // parties faster than B travels its FIFO channel; a third party's
    // unrelated write can then carry B's component into our merged cell
    // stamp while B is still in flight. Classifying B by stamp here would
    // silently drop the newest write in its writer's program order and
    // leave the overwritten predecessor readable forever (stale-read
    // violation, reproduced by the async property stress configs).
    //
    // For DIFFERENT writers the stamp test stands: a first-time write
    // whose issue stamp our cell strictly dominates is concurrent with the
    // cell, and dropping it is observably an immediate overwrite — nobody
    // can have read it, and its writer reading the standing value later is
    // a legal serialization of concurrent writes.
    const bool same_writer = !cur.tag.is_initial() &&
                             cur.tag.writer == m.tag.writer;
    const bool already =
        cur.tag == m.tag || (same_writer ? m.tag.seq < cur.tag.seq
                                         : m.stamp.before(cur.stamp));
    if (!already && cfg_.conflict == ConflictPolicy::kOwnerWins &&
        cur.tag.writer == id_ && cur.stamp.concurrent_with(m.stamp)) {
      // Section 4.2: a remote write concurrent with a value the owner itself
      // wrote loses. (A write whose stamp dominates cur.stamp has seen the
      // owner's value and legitimately overwrites it.)
      accepted = false;
    }
    if (accepted && !already) {
      cur.value = m.value;
      cur.stamp = vt_;  // M_i[x] := (v, VT_i) with the merged clock
      cur.tag = m.tag;
      // The installed value is now locally readable; its causal past (the
      // writer's issue stamp) feeds the mid-flight stale-install guard.
      served_merges_.update(m.stamp);
      // Durability point: the apply is on disk before the reply leaves, so
      // a crash after the writer unblocks can always replay it.
      if (recovery_ != nullptr) recovery_->on_apply(m.addr, cur);
      // The owner-side take-effect point of the remote write — the middle
      // node of the correlated flow (send -> recv -> apply -> reply).
      if (obs::Tracer* t = stats_.tracer()) {
        t->record(obs::TraceEventKind::kApply,
                  static_cast<std::uint8_t>(MsgType::kWrite), m.from, m.addr,
                  &vt_, 0, 0, m.trace_id);
      }
      // The remote write is a causal interaction: invalidate cached values
      // that are now provably overwritable (M_i[y].VT < VT_i).
      invalidate_cache(vt_, page_of(m.addr), m.trace_id);
      // Push advisory invalidation to the page's other subscribers so their
      // stale copies die in O(|copyset|) notices instead of waiting for the
      // next causal interaction to sweep them.
      queue_inval_notices(m.addr, m.from);
    } else {
      // The request's value was NOT installed (idempotent re-ack, shadowed
      // duplicate, or owner-wins rejection). Tell the writer what actually
      // stands so its recovery journal records a value that exists, not one
      // that was never certified — the reply tag stays the REQUEST tag for
      // the writer's own-write bookkeeping.
      rep.cells.push_back(CellUpdate{m.addr, cur.value, cur.tag});
    }
    rep.stamp = vt_;
    rep.value = accepted && !already ? m.value : cur.value;
    stats_.bump(Counter::kMsgWriteReply);
  }
  rep.type = MsgType::kWriteReply;
  rep.from = id_;
  rep.to = m.from;
  rep.request_id = m.request_id;
  rep.addr = m.addr;
  rep.tag = m.tag;
  rep.accepted = accepted;
  rep.trace_id = m.trace_id;  // the reply stays on the writer's flow
  send_msg(std::move(rep));
}

void CausalNode::complete_pending(const Message& m) {
  std::unique_lock lock(mu_);
  auto it = pending_.find(m.request_id);
  if (it == pending_.end()) {
    // A reply that outlived its round (await_reply abandoned it at the
    // deadline: a configured request_timeout, or rejoin()'s SYNC wait) or a
    // duplicate. Harmless to drop: the retry re-fetches any state this
    // reply carried, and a retried write is idempotent at the owner. A
    // request this node never issued is still impossible.
    CM_ASSERT_MSG(m.request_id < next_rid_, "reply for unknown request");
    return;
  }

  if (m.type == MsgType::kSyncReply) {
    // rejoin()'s clock resync: merge the peer's vector time and wake the
    // rejoin loop. No cache or own-write bookkeeping is involved.
    vt_.update(m.stamp);
    it->second.slot->done = true;
    const coop::TaskToken waiter = it->second.waiter;
    pending_.erase(it);
    lock.unlock();
    reply_cv_.notify_all();
    coop::wake(waiter);
    return;
  }

  if (m.type == MsgType::kWriteReply) {
    // Resolve this write in the per-page requirement bookkeeping (see
    // own_writes_): certified writes raise the floor, rejected ones just
    // stop being owed.
    if (auto ow = own_writes_.find(page_of(m.addr)); ow != own_writes_.end()) {
      ow->second.outstanding.erase(m.tag.seq);
      if (m.accepted) {
        ow->second.accepted_floor =
            std::max(ow->second.accepted_floor, m.tag.seq);
      }
    }
  }

  if (m.type == MsgType::kReadReply) {
    // A reply that predates one of our own (issued, possibly in-flight)
    // writes to this page must not take effect: the read is ordered after
    // that write in this node's program order. Retry — the re-sent READ is
    // FIFO-behind our WRITE at the owner, so this terminates (a rejected
    // write lowers the requirement when its W_REPLY resolves).
    const auto own = own_writes_.find(page_of(m.addr));
    bool predates_own_write =
        own != own_writes_.end() && m.stamp[id_] < own->second.required();
    // The stamp test alone is not leak-proof: the reply stamp is the
    // owner-side join, which sibling cells and reply-borne clock leakage
    // can inflate past our seq while the addressed cell itself still holds
    // one of our OLDER writes (possible only across failover re-elections,
    // hence page_size == 1 — without failover the reply is FIFO-ordered
    // behind every own write it must cover). Tags cannot be inflated: our
    // own write below the page requirement can never legally be read
    // after the newer write was issued (own writes are totally ordered).
    if (!predates_own_write && own != own_writes_.end() &&
        cfg_.page_size == 1) {
      for (const CellUpdate& cell : m.cells) {
        if (cell.addr == m.addr && cell.tag.writer == id_ &&
            cell.tag.seq < own->second.required()) {
          predates_own_write = true;
        }
      }
    }
    if (predates_own_write) {
      Message req;
      req.type = MsgType::kRead;
      req.from = id_;
      req.to = owner_of(m.addr);
      req.request_id = m.request_id;  // keep the same pending slot
      req.addr = m.addr;
      req.trace_id = it->second.trace_id;  // still the same operation's flow
      stats_.bump(Counter::kMsgReadRequest);
      lock.unlock();
      send_msg(std::move(req));
      return;
    }
  }

  // The reply takes effect: its certified cell is election material now.
  if (recovery_ != nullptr) recovery_->journal_reply(m);

  if (it->second.start_ns != 0) {
    stats_.record_latency(LatencyMetric::kOwnerRttNs,
                          OpTiming::now_ns() - it->second.start_ns);
  }

  if (it->second.slot == nullptr) {
    // Background certification of a non-blocking write: merge the owner's
    // clock and release any flush() waiter.
    vt_.update(m.stamp);
    CM_ASSERT_MSG(m.accepted, "async write rejected (policy forbids this)");
    pending_.erase(it);
    CM_ASSERT(outstanding_async_ > 0);
    if (--outstanding_async_ == 0) flush_cv_.notify_all();
    return;
  }
  ReplySlot& slot = *it->second.slot;
  const std::uint64_t op_start_ns = it->second.start_ns;
  const VectorClock serve_snapshot = std::move(it->second.serve_snapshot);
  const coop::TaskToken waiter = it->second.waiter;
  pending_.erase(it);

  // Apply the reply HERE, in the delivery, so the install/sweep is atomic
  // with respect to — and FIFO-ordered against — owner servicing.
  // (If the blocked application thread applied it after wakeup, a WRITE
  // service arriving after this reply could run its invalidation sweep
  // before the stale install landed: a causal violation.)
  if (m.type == MsgType::kReadReply) {
    // Fig. 4: VT_i := update(VT_i, VT'); M_i[x] := (v', VT'); invalidate all
    // cached values strictly older than VT'.
    CM_ASSERT(m.cells.size() == cfg_.page_size);
    const std::uint64_t pg = page_of(m.addr);
    vt_.update(m.stamp);
    // The stale-reply retry above guarantees this reply covers every own
    // write to the page, so installing the owner's cells verbatim can never
    // regress this node's program order.
    CachedPage cp;
    cp.stamp = m.stamp;
    cp.cells.reserve(cfg_.page_size);
    for (const CellUpdate& cell : m.cells) {
      cp.cells.push_back(Cell{cell.value, cell.tag, m.stamp});
    }
    const Cell chosen = cp.cells[m.addr - page_base(pg)];
    // Mid-flight staleness: the reply was SERVED at some owner-side point,
    // but lands here after any number of local events. If a WRITE service
    // (or recovery election) installed a value into this node's memory
    // while the READ was in flight, and that install's causal past is not
    // covered by the reply stamp, then this reply's cells may already be
    // overwritten in the past of something a sibling thread can read
    // locally — and the install below would land AFTER the sweep that
    // should have dropped it. Returning the value is still safe (it was
    // ordered before those installs at the owner and this thread observed
    // nothing in between), but the copy must not be CACHED.
    const bool serve_stale = !served_merges_.leq_join(serve_snapshot, m.stamp);
    if (!cfg_.read_through) {
      if (serve_stale) {
        // Sweep with no exemption — the pre-existing copy of pg (if any)
        // gets no fresh replacement, so it must not outlive the threshold.
        invalidate_cache(m.stamp, kNoPage, m.trace_id);
        stats_.bump(Counter::kStaleInstallSkipped);
      } else {
        invalidate_cache(m.stamp, pg, m.trace_id);
        served_merges_.update(m.stamp);
        if (owner_of(m.addr) != id_) {
          install_page(pg, std::move(cp));
          evict_over_capacity();
        } else if (auto old = cache_.find(pg); old != cache_.end()) {
          // An owner never caches a page it owns: once the page is elected
          // its reads go to owned_, and a copy would only lengthen every
          // later sweep. (Only a failover node's self-READ of a page it has
          // not yet elected gets here.)
          erase_page(old);
        }
      }
    }
    // The read returns the post-merge cell and is observed at its effect
    // point, so the recorded per-node order is the order effects happened.
    slot.value = chosen.value;
    if (observer_ != nullptr) {
      observer_->on_read(id_, m.addr, chosen.value, chosen.tag,
                         OpTiming{op_start_ns, OpTiming::now_ns()});
    }
  } else {
    CM_ASSERT(m.type == MsgType::kWriteReply);
    vt_.update(m.stamp);
    const std::uint64_t pg = page_of(m.addr);
    auto pit = cache_.find(pg);
    Cell* cur = pit != cache_.end()
                    ? &pit->second.cells[m.addr - page_base(pg)]
                    : nullptr;
    if (m.accepted) {
      // Fig. 4 writer side: M_i[x] := (v, VT_i). Under per-operation
      // atomicity VT_i equals update(increment_result, VT'), and VT'
      // already dominates the issue stamp (the owner merged it before
      // replying) — so the certified write's true stamp is exactly m.stamp.
      // The value itself was installed at issue time; here we only refresh
      // the stamp, and only if the cell still holds *this* write — a newer
      // local write or a newer fetch must not be regressed, and a cell
      // invalidated in flight stays invalid (the owner serves fresh copies).
      if (cur != nullptr && cur->tag == m.tag) {
        cur->stamp = m.stamp;
        if (cfg_.page_size == 1) pit->second.stamp = m.stamp;
      }
    } else {
      // Owner-wins resolution rejected the write: drop the local copy (if
      // it is still this write) so a later read fetches the favored value.
      if (cur != nullptr && cur->tag == m.tag) {
        erase_page(pit);
      }
    }
  }

  slot.done = true;
  lock.unlock();
  reply_cv_.notify_all();
  coop::wake(waiter);
}

// --------------------------------------------------------------------------
// Request deadlines and owner-side admission
// --------------------------------------------------------------------------

bool CausalNode::admit(const Message& m, std::unique_lock<std::mutex>& lock) {
  if (recovery_ != nullptr) return recovery_->admit(m, lock);
  CM_ASSERT_MSG(owner_of(m.addr) == id_, "request routed to non-owner");
  return true;
}

bool CausalNode::await_reply(ReplySlot& slot, std::uint64_t rid,
                             std::uint64_t deadline_ns) {
  const auto expired = [deadline_ns] {
    return deadline_ns != 0 && obs::now_ns() >= deadline_ns;
  };
  std::unique_lock lock(mu_);
  if (coop::enabled()) {
    // Simulated run: park until complete_pending fills the slot (on the
    // scheduler thread) and wakes this task, or virtual time reaches the
    // deadline — both advance only under scheduler control, so the
    // scheduler need not poll the slot every step.
    if (auto it = pending_.find(rid); it != pending_.end()) {
      it->second.waiter = coop::self();
    }
    while (!slot.done && !expired()) {
      lock.unlock();
      coop::park({}, deadline_ns, "await_reply");
      lock.lock();
    }
  } else if (deadline_ns == 0) {
    reply_cv_.wait(lock, [&slot] { return slot.done; });
  } else {
    // Deadlines are virtual time (obs::now_ns()), so FakeClock tests control
    // expiry deterministically; the short real-time wait only paces the
    // check.
    while (!slot.done && !expired()) {
      reply_cv_.wait_for(lock, std::chrono::microseconds(200));
    }
  }
  if (slot.done) return true;
  // Abandon the round. complete_pending fills a slot and erases its entry
  // in one hold of mu_, so this entry has no reply yet, and one arriving
  // after this is dropped by complete_pending's lookup.
  pending_.erase(rid);
  return false;
}

void CausalNode::on_round_timeout(NodeId target,
                                  std::uint64_t epoch_at_send) {
  stats_.bump(Counter::kFoRequestTimeout);
  if (recovery_ != nullptr) recovery_->on_round_timeout(target, epoch_at_send);
}

// --------------------------------------------------------------------------
// Cache bookkeeping
// --------------------------------------------------------------------------

CausalNode::Cell& CausalNode::owned_cell(Addr x) {
  auto it = owned_.find(x);
  if (it == owned_.end()) {
    it = owned_
             .try_emplace(x, Cell{kInitialValue, WriteTag{}, VectorClock(n_)})
             .first;
  }
  return it->second;
}

void CausalNode::install_page(std::uint64_t page, CachedPage&& cp) {
  // A replacement, not a drop: this node still caches the page, so the
  // owner must keep it subscribed.
  if (auto it = cache_.find(page); it != cache_.end()) {
    erase_page(it, /*record_unsub=*/false);
  }
  lru_.push_front(page);
  cp.lru_it = lru_.begin();
  cache_.try_emplace(page, std::move(cp));
}

void CausalNode::cache_own_write(Addr x, Value v, const WriteTag& tag,
                                 const VectorClock& stamp) {
  const std::uint64_t pg = page_of(x);
  if (auto it = cache_.find(pg); it != cache_.end()) {
    Cell& c = it->second.cells[x - page_base(pg)];
    c.value = v;
    c.stamp = stamp;
    c.tag = tag;
    if (cfg_.page_size == 1) {
      // Fig. 4: M_i[x] := (v, VT_i) — the unit's stamp is the write's stamp.
      it->second.stamp = stamp;
    }
    // Multi-cell pages: deliberately do NOT advance the page stamp. The
    // write's reply stamp carries the owner's current knowledge — including
    // overwrites of this page's *other* cells that we have not fetched —
    // so merging it would shield those stale sibling cells from the very
    // invalidation sweeps that must kill them. Keeping the fetch-time stamp
    // is conservative: the page (with our fresh cell) may be dropped early
    // and re-fetched, never read stale.
    touch_lru(it->second);
    return;
  }
  if (cfg_.page_size == 1) {
    // Fig. 4 caches the certified write at the writer. With multi-location
    // pages we cannot conjure the rest of the page, so (page mode only) an
    // uncached written page stays uncached until the next read miss.
    CachedPage cp;
    cp.stamp = stamp;
    cp.cells.push_back(Cell{v, tag, stamp});
    install_page(pg, std::move(cp));
    evict_over_capacity();
  }
}

void CausalNode::invalidate_cache(const VectorClock& threshold,
                                  std::uint64_t keep_page,
                                  std::uint64_t trace_id) {
  obs::Tracer* const tr = stats_.tracer();
  const bool flush_all = cfg_.invalidation == InvalidationStrategy::kFlushAll;
  const bool any_read_only = !read_only_pages_.empty();
  for (auto it = cache_.begin(); it != cache_.end();) {
    const bool keep =
        it->first == keep_page ||
        (any_read_only && read_only_pages_.contains(it->first));
    const bool drop = !keep && (flush_all || it->second.stamp.before(threshold));
    if (drop) {
      stats_.bump(Counter::kInvalidationApplied);
      if (tr != nullptr) {
        tr->record(obs::TraceEventKind::kInvalidate, 0, kNoNode,
                   page_base(it->first), &threshold, 0, 0, trace_id);
      }
      note_page_dropped(it->first);
      lru_.erase(it->second.lru_it);
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

void CausalNode::erase_page(FlatHashMap<std::uint64_t, CachedPage>::iterator it,
                            bool record_unsub) {
  if (record_unsub) note_page_dropped(it->first);
  lru_.erase(it->second.lru_it);
  cache_.erase(it);
}

void CausalNode::touch_lru(CachedPage& cp) {
  lru_.splice(lru_.begin(), lru_, cp.lru_it);
}

void CausalNode::evict_over_capacity() {
  while (cache_.size() > cfg_.cache_capacity_pages) {
    const std::uint64_t victim = lru_.back();
    stats_.bump(Counter::kDiscard);
    if (obs::Tracer* t = stats_.tracer()) {
      t->record(obs::TraceEventKind::kDiscard, 0, kNoNode, page_base(victim),
                &vt_);
    }
    auto it = cache_.find(victim);
    CM_ASSERT(it != cache_.end());
    erase_page(it);
  }
}

CausalNode::Pending& CausalNode::register_pending(std::uint64_t rid,
                                                  ReplySlot* slot,
                                                  std::uint64_t start_ns,
                                                  std::uint64_t trace_id) {
  auto [it, inserted] = pending_.try_emplace(rid);
  CM_ASSERT(inserted);
  it->second.slot = slot;
  it->second.start_ns = start_ns;
  it->second.trace_id = trace_id;
  return it->second;
}

void CausalNode::notify_unreachable(MsgType op, NodeId target, Addr x) {
  if (obs::FlightRecorder* fr = stats_.flight_recorder()) {
    fr->on_unreachable(id_, target, static_cast<std::uint8_t>(op), x);
  }
}

// --------------------------------------------------------------------------
// Sharded copyset maintenance (docs/SHARDING.md)
// --------------------------------------------------------------------------

void CausalNode::send_msg(Message&& m) {
  attach_piggyback(m);
  transport_.send(std::move(m));
}

HeldSend CausalNode::send_msg_held(Message&& m) {
  attach_piggyback(m);
  return transport_.send_held(std::move(m));
}

void CausalNode::attach_piggyback(Message& m) {
  if (copysets_on() && m.to != id_) {
    std::scoped_lock pl(piggy_mu_);
    if (auto it = pending_unsubs_.find(m.to); it != pending_unsubs_.end()) {
      m.unsub_pages = std::move(it->second);
      pending_unsubs_.erase(it);
    }
    if (auto it = pending_invals_.find(m.to); it != pending_invals_.end()) {
      m.inval_pages = std::move(it->second);
      pending_invals_.erase(it);
      stats_.bump(Counter::kShardInvalPiggybacked, m.inval_pages.size());
    }
  }
}

void CausalNode::apply_piggyback(const Message& m) {
  if (!copysets_on()) return;
  if (m.unsub_pages.empty() && m.inval_pages.empty()) return;
  obs::Tracer* const tr = stats_.tracer();
  std::unique_lock lock(mu_);
  for (const Addr a : m.unsub_pages) {
    auto sit = subscribers_.find(page_of(a));
    if (sit != subscribers_.end() && sit->second.erase(m.from) != 0) {
      stats_.bump(Counter::kShardUnsubscribe);
      if (tr != nullptr) {
        tr->record(obs::TraceEventKind::kShardUnsub, 0, m.from, a);
      }
      if (sit->second.empty()) subscribers_.erase(sit);
    }
  }
  for (const Addr a : m.inval_pages) {
    const std::uint64_t pg = page_of(a);
    // Read-only pages are exempt from invalidation by contract, and a
    // notice for an uncached page is vacuous (already dropped, or never
    // fetched by this incarnation). The drop is advisory-safe even
    // against an own write still in flight: the own-write requirement in
    // complete_pending forces any subsequent read to wait for a reply
    // that covers it.
    if (read_only_pages_.contains(pg)) continue;
    if (auto it = cache_.find(pg); it != cache_.end()) {
      stats_.bump(Counter::kShardInvalApplied);
      if (tr != nullptr) {
        tr->record(obs::TraceEventKind::kShardInval, 0, m.from, a, &vt_);
      }
      erase_page(it);
    }
  }
}

void CausalNode::queue_inval_notices(Addr x, NodeId writer) {
  if (!cfg_.push_invalidation) return;
  const auto sit = subscribers_.find(page_of(x));
  if (sit == subscribers_.end()) return;
  const Addr base = page_base(page_of(x));
  std::vector<NodeId> flush;
  {
    std::scoped_lock pl(piggy_mu_);
    for (const NodeId s : sit->second) {
      if (s == writer || s == id_) continue;
      if (recovery_ != nullptr && recovery_->peer_down(s)) continue;
      auto& q = pending_invals_[s];
      // Coalesce repeated notices for the same page: one drop suffices
      // until the subscriber refetches (which re-subscribes it).
      if (!q.empty() && q.back() == base) continue;
      q.push_back(base);
      stats_.bump(Counter::kShardInvalQueued);
      if (q.size() >= cfg_.inval_batch_max) flush.push_back(s);
    }
  }
  // A full batch flushes on a standalone carrier instead of waiting for
  // piggyback traffic that may never come; send_msg drains the queue.
  for (const NodeId s : flush) {
    Message b;
    b.type = MsgType::kInvalBatch;
    b.from = id_;
    b.to = s;
    b.stamp = VectorClock(0);
    stats_.bump(Counter::kMsgInvalBatch);
    send_msg(std::move(b));
  }
}

void CausalNode::note_page_dropped(std::uint64_t pg) {
  if (!copysets_on()) return;
  const Addr base = page_base(pg);
  const NodeId owner = ownership_.owner(base);
  if (owner == id_) return;
  std::scoped_lock pl(piggy_mu_);
  auto& q = pending_unsubs_[owner];
  if (q.empty() || q.back() != base) q.push_back(base);
}

}  // namespace causalmem
