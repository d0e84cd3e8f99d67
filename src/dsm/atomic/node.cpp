#include "causalmem/dsm/atomic/node.hpp"

#include "causalmem/common/expect.hpp"
#include "causalmem/obs/trace.hpp"

namespace causalmem {

namespace {

/// Operation-completion span + latency sample (tr may be null: tracing off).
void record_op_done(NodeStats& stats, obs::Tracer* tr, LatencyMetric metric,
                    obs::TraceEventKind kind, Addr x, const OpTiming& done,
                    std::uint64_t trace_id = 0) noexcept {
  const std::uint64_t dur = done.end_ns - done.start_ns;
  stats.record_latency(metric, dur);
  if (tr != nullptr) {
    tr->record(kind, 0, kNoNode, x, nullptr, done.start_ns, dur, trace_id);
  }
}

}  // namespace

AtomicNode::AtomicNode(NodeId id, std::size_t n, const Ownership& ownership,
                       Transport& transport, NodeStats& stats,
                       AtomicConfig /*config*/, OpObserver* observer)
    : id_(id),
      n_(n),
      ownership_(ownership),
      transport_(transport),
      stats_(stats),
      observer_(observer) {
  CM_EXPECTS(id < n);
  transport_.register_node(id_, [this](const Message& m) { on_message(m); });
}

// --------------------------------------------------------------------------
// Application-facing operations
// --------------------------------------------------------------------------

Value AtomicNode::read(Addr x) {
  const OpTiming op_start = OpTiming::begin();
  obs::Tracer* const tr = stats_.tracer();
  {
    std::unique_lock lock(mu_);
    if (ownership_.owner(x) == id_) {
      // Strong consistency: do not expose a value mid-invalidation-round.
      write_done_cv_.wait(lock, [&] { return !in_flight_.contains(x); });
      OwnedCell& c = owned_cell(x);
      stats_.bump(Counter::kReadHit);
      if (tr != nullptr) {
        tr->record(obs::TraceEventKind::kReadHit, 0, kNoNode, x);
      }
      const Value v = c.value;
      const WriteTag tag = c.tag;
      const OpTiming done = op_start.close();
      record_op_done(stats_, tr, LatencyMetric::kReadNs,
                     obs::TraceEventKind::kReadDone, x, done);
      if (observer_ != nullptr) {
        observer_->on_read(id_, x, v, tag, done);
      }
      return v;
    }
    if (auto it = cache_.find(x); it != cache_.end()) {
      stats_.bump(Counter::kReadHit);
      if (tr != nullptr) {
        tr->record(obs::TraceEventKind::kReadHit, 0, kNoNode, x);
      }
      const Value v = it->second.value;
      const WriteTag tag = it->second.tag;
      const OpTiming done = op_start.close();
      record_op_done(stats_, tr, LatencyMetric::kReadNs,
                     obs::TraceEventKind::kReadDone, x, done);
      if (observer_ != nullptr) {
        observer_->on_read(id_, x, v, tag, done);
      }
      return v;
    }
    stats_.bump(Counter::kReadMiss);
    if (tr != nullptr) {
      tr->record(obs::TraceEventKind::kReadMiss, 0, ownership_.owner(x), x);
    }
  }

  std::uint64_t rid;
  std::uint64_t tid;
  ReplySlot slot;
  {
    std::unique_lock lock(mu_);
    rid = next_rid_++;
    tid = new_trace_id();
    register_pending(rid, x, &slot);
  }
  Message req;
  req.type = MsgType::kRead;
  req.from = id_;
  req.to = ownership_.owner(x);
  req.request_id = rid;
  req.addr = x;
  req.trace_id = tid;
  stats_.bump(Counter::kMsgReadRequest);
  transport_.send(std::move(req));

  // The cached copy was installed by complete_pending, in the delivery,
  // *before* it filled the slot — so an INV that the owner sends after
  // our R_REPLY (FIFO channel) can never race past the install, and one
  // sent before it stops the install (PendingRequest).
  std::unique_lock lock(mu_);
  reply_cv_.wait(lock, [&slot] { return slot.done; });
  const OpTiming done = op_start.close();
  record_op_done(stats_, tr, LatencyMetric::kReadNs,
                 obs::TraceEventKind::kReadDone, x, done, tid);
  if (observer_ != nullptr) {
    observer_->on_read(id_, x, slot.value, slot.tag, done);
  }
  return slot.value;
}

void AtomicNode::write(Addr x, Value v) {
  const OpTiming op_start = OpTiming::begin();
  obs::Tracer* const tr = stats_.tracer();
  if (ownership_.owner(x) == id_) {
    std::unique_lock lock(mu_);
    stats_.bump(Counter::kWriteLocal);
    const WriteTag tag{id_, ++write_seq_};
    // A local write still fans out invalidations; the id correlates them.
    const std::uint64_t tid = new_trace_id();
    write_done_cv_.wait(lock, [&] { return !in_flight_.contains(x); });
    if (!begin_write(lock, x, v, tag, id_, 0, tid)) {
      // Our round is in flight; wait until it completes (our write applies —
      // possibly to be overwritten by a deferred write right after, which is
      // a legitimate subsequent event, not a failure of ours).
      write_done_cv_.wait(lock, [&] {
        auto it = in_flight_.find(x);
        return it == in_flight_.end() || !(it->second.tag == tag);
      });
    }
    const OpTiming done = op_start.close();
    record_op_done(stats_, tr, LatencyMetric::kWriteNs,
                   obs::TraceEventKind::kWriteDone, x, done, tid);
    if (observer_ != nullptr) {
      observer_->on_write(id_, x, v, tag, true, done);
    }
    return;
  }

  std::uint64_t rid;
  std::uint64_t tid;
  ReplySlot slot;
  WriteTag tag;
  {
    std::unique_lock lock(mu_);
    stats_.bump(Counter::kWriteRemote);
    tag = WriteTag{id_, ++write_seq_};
    rid = next_rid_++;
    tid = new_trace_id();
    register_pending(rid, x, &slot);
  }
  Message req;
  req.type = MsgType::kWrite;
  req.from = id_;
  req.to = ownership_.owner(x);
  req.request_id = rid;
  req.addr = x;
  req.value = v;
  req.tag = tag;
  req.trace_id = tid;
  stats_.bump(Counter::kMsgWriteRequest);
  transport_.send(std::move(req));

  // The cache install happened in complete_pending (FIFO-safe).
  std::unique_lock lock(mu_);
  reply_cv_.wait(lock, [&slot] { return slot.done; });
  const OpTiming done = op_start.close();
  record_op_done(stats_, tr, LatencyMetric::kWriteNs,
                 obs::TraceEventKind::kWriteDone, x, done, tid);
  if (observer_ != nullptr) {
    observer_->on_write(id_, x, v, tag, true, done);
  }
}

bool AtomicNode::discard(Addr /*x*/) {
  // Invalidations are pushed by owners; polling a cached copy is live.
  return false;
}

bool AtomicNode::owns(Addr x) const { return ownership_.owner(x) == id_; }

// --------------------------------------------------------------------------
// Owner-side protocol
// --------------------------------------------------------------------------

void AtomicNode::on_message(const Message& m) {
  switch (m.type) {
    case MsgType::kRead:
      serve_read(m);
      return;
    case MsgType::kWrite:
      serve_write(m);
      return;
    case MsgType::kInvalidate:
      handle_inv(m);
      return;
    case MsgType::kInvalidateAck:
      handle_inv_ack(m);
      return;
    case MsgType::kReadReply:
    case MsgType::kWriteReply:
      complete_pending(m);
      return;
    default:
      CM_UNREACHABLE("unexpected message type at atomic node");
  }
}

void AtomicNode::serve_read(const Message& m) {
  std::unique_lock lock(mu_);
  CM_ASSERT_MSG(ownership_.owner(m.addr) == id_, "READ routed to non-owner");
  if (in_flight_.contains(m.addr)) {
    deferred_[m.addr].push_back(m);
    return;
  }
  OwnedCell& c = owned_cell(m.addr);
  c.copyset.insert(m.from);
  Message rep;
  rep.type = MsgType::kReadReply;
  rep.from = id_;
  rep.to = m.from;
  rep.request_id = m.request_id;
  rep.addr = m.addr;
  rep.value = c.value;
  rep.tag = c.tag;
  rep.trace_id = m.trace_id;  // the reply stays on the requester's flow
  stats_.bump(Counter::kMsgReadReply);
  lock.unlock();
  transport_.send(std::move(rep));
}

void AtomicNode::serve_write(const Message& m) {
  std::unique_lock lock(mu_);
  CM_ASSERT_MSG(ownership_.owner(m.addr) == id_, "WRITE routed to non-owner");
  if (in_flight_.contains(m.addr)) {
    deferred_[m.addr].push_back(m);
    return;
  }
  (void)begin_write(lock, m.addr, m.value, m.tag, m.from, m.request_id,
                    m.trace_id);
}

bool AtomicNode::begin_write(std::unique_lock<std::mutex>& lock, Addr x,
                             Value v, WriteTag tag, NodeId origin,
                             std::uint64_t reply_rid,
                             std::uint64_t trace_id) {
  CM_ASSERT(!in_flight_.contains(x));
  OwnedCell& c = owned_cell(x);
  std::unordered_set<NodeId> members = c.copyset;
  members.erase(origin);  // the writer gets the new value via its reply
  if (members.empty()) {
    c.value = v;
    c.tag = tag;
    c.copyset.clear();
    if (obs::Tracer* t = stats_.tracer()) {
      t->record(obs::TraceEventKind::kApply,
                static_cast<std::uint8_t>(MsgType::kWrite), origin, x, nullptr,
                0, 0, trace_id);
    }
    if (origin != id_) {
      c.copyset.insert(origin);
      Message rep;
      rep.type = MsgType::kWriteReply;
      rep.from = id_;
      rep.to = origin;
      rep.request_id = reply_rid;
      rep.addr = x;
      rep.value = v;
      rep.tag = tag;
      rep.trace_id = trace_id;
      stats_.bump(Counter::kMsgWriteReply);
      lock.unlock();
      transport_.send(std::move(rep));
      lock.lock();
    }
    return true;
  }

  in_flight_.emplace(
      x, PendingWrite{v, tag, origin, reply_rid, members.size(), trace_id});
  for (NodeId member : members) {
    Message inv;
    inv.type = MsgType::kInvalidate;
    inv.from = id_;
    inv.to = member;
    inv.addr = x;
    inv.trace_id = trace_id;  // the fan-out belongs to the write's flow
    stats_.bump(Counter::kMsgInvalidate);
    transport_.send(std::move(inv));
  }
  return false;
}

void AtomicNode::handle_inv(const Message& m) {
  {
    std::unique_lock lock(mu_);
    cache_.erase(m.addr);
    ++invs_applied_[m.addr];
    stats_.bump(Counter::kInvalidationApplied);
    if (obs::Tracer* t = stats_.tracer()) {
      t->record(obs::TraceEventKind::kInvalidate, 0, m.from, m.addr, nullptr,
                0, 0, m.trace_id);
    }
    stats_.bump(Counter::kMsgInvalidateAck);
  }
  Message ack;
  ack.type = MsgType::kInvalidateAck;
  ack.from = id_;
  ack.to = m.from;
  ack.addr = m.addr;
  ack.trace_id = m.trace_id;  // the ack closes one edge of the write's flow
  transport_.send(std::move(ack));
}

void AtomicNode::handle_inv_ack(const Message& m) {
  std::unique_lock lock(mu_);
  auto it = in_flight_.find(m.addr);
  CM_ASSERT_MSG(it != in_flight_.end(), "stray INV_ACK");
  CM_ASSERT(it->second.remaining > 0);
  if (--it->second.remaining == 0) {
    finish_write(lock, m.addr);
  }
}

void AtomicNode::finish_write(std::unique_lock<std::mutex>& lock, Addr x) {
  auto it = in_flight_.find(x);
  CM_ASSERT(it != in_flight_.end());
  const PendingWrite pw = it->second;
  in_flight_.erase(it);

  OwnedCell& c = owned_cell(x);
  c.value = pw.value;
  c.tag = pw.tag;
  c.copyset.clear();
  if (obs::Tracer* t = stats_.tracer()) {
    t->record(obs::TraceEventKind::kApply,
              static_cast<std::uint8_t>(MsgType::kWrite), pw.origin, x,
              nullptr, 0, 0, pw.trace_id);
  }
  if (pw.origin != id_) {
    c.copyset.insert(pw.origin);
    Message rep;
    rep.type = MsgType::kWriteReply;
    rep.from = id_;
    rep.to = pw.origin;
    rep.request_id = pw.reply_rid;
    rep.addr = x;
    rep.value = pw.value;
    rep.tag = pw.tag;
    rep.trace_id = pw.trace_id;
    stats_.bump(Counter::kMsgWriteReply);
    lock.unlock();
    transport_.send(std::move(rep));
    lock.lock();
  }
  write_done_cv_.notify_all();

  // Drain requests that arrived during the round. A deferred WRITE may begin
  // a new round, at which point the remainder stays deferred.
  auto dq = deferred_.find(x);
  while (dq != deferred_.end() && !dq->second.empty() &&
         !in_flight_.contains(x)) {
    const Message next = dq->second.front();
    dq->second.pop_front();
    if (next.type == MsgType::kRead) {
      OwnedCell& cell = owned_cell(x);
      cell.copyset.insert(next.from);
      Message rep;
      rep.type = MsgType::kReadReply;
      rep.from = id_;
      rep.to = next.from;
      rep.request_id = next.request_id;
      rep.addr = x;
      rep.value = cell.value;
      rep.tag = cell.tag;
      rep.trace_id = next.trace_id;
      stats_.bump(Counter::kMsgReadReply);
      lock.unlock();
      transport_.send(std::move(rep));
      lock.lock();
      dq = deferred_.find(x);
    } else {
      CM_ASSERT(next.type == MsgType::kWrite);
      (void)begin_write(lock, x, next.value, next.tag, next.from,
                        next.request_id, next.trace_id);
      dq = deferred_.find(x);
    }
  }
  if (dq != deferred_.end() && dq->second.empty()) deferred_.erase(dq);
}

void AtomicNode::complete_pending(const Message& m) {
  std::unique_lock lock(mu_);
  auto it = pending_.find(m.request_id);
  CM_ASSERT_MSG(it != pending_.end(), "reply for unknown request");
  ReplySlot& slot = *it->second.slot;
  const bool overtaken = inv_count(m.addr) != it->second.inv_count_at_send;
  pending_.erase(it);
  // Install the fetched/written copy here, in the delivery: the owner put
  // us in the copyset before sending this reply, so any INV for this
  // location sent after the reply is behind it on the FIFO channel and
  // will observe the install. An INV that overtook the reply was sent in
  // the window between the serve point and the send, and may be for a
  // write that supersedes the reply's value: cache nothing then (the value
  // is still this operation's result — it was current at the serve point).
  if (!owns(m.addr) && !overtaken) {
    cache_[m.addr] = CachedCell{m.value, m.tag};
  }
  slot.value = m.value;
  slot.tag = m.tag;
  slot.done = true;
  lock.unlock();
  reply_cv_.notify_all();
}

AtomicNode::OwnedCell& AtomicNode::owned_cell(Addr x) {
  return owned_.try_emplace(x).first->second;
}

void AtomicNode::register_pending(std::uint64_t rid, Addr x,
                                  ReplySlot* slot) {
  auto [it, inserted] = pending_.try_emplace(rid);
  CM_ASSERT(inserted);
  it->second.slot = slot;
  it->second.inv_count_at_send = inv_count(x);
}

std::uint64_t AtomicNode::inv_count(Addr x) const {
  const auto it = invs_applied_.find(x);
  return it == invs_applied_.end() ? 0 : it->second;
}

}  // namespace causalmem
