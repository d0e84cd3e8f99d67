#include "causalmem/dsm/broadcast/node.hpp"

#include "causalmem/common/coop.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/dsm/op_clock.hpp"
#include "causalmem/obs/trace.hpp"

namespace causalmem {

BroadcastNode::BroadcastNode(NodeId id, std::size_t n,
                             const Ownership& /*ownership*/,
                             Transport& transport, NodeStats& stats,
                             BroadcastConfig config, OpObserver* observer)
    : id_(id),
      n_(n),
      cfg_(config),
      transport_(transport),
      stats_(stats),
      observer_(observer),
      delivered_(n, 0) {
  CM_EXPECTS(id < n);
  transport_.register_node(id_, [this](const Message& m) { on_message(m); });
}

Value BroadcastNode::read(Addr x) {
  const OpClock clock(stats_, observer_);
  obs::Tracer* const tr = clock.tracer();
  std::unique_lock lock(mu_);
  stats_.bump(Counter::kReadHit);  // replica reads are always local
  if (tr != nullptr) {
    tr->record(obs::TraceEventKind::kReadHit, 0, kNoNode, x);
  }
  const auto it = store_.find(x);
  const Value v = it != store_.end() ? it->second.value : kInitialValue;
  const WriteTag tag = it != store_.end() ? it->second.tag : WriteTag{};
  const OpTiming done = clock.local_done(obs::TraceEventKind::kReadDone, x);
  if (observer_ != nullptr) {
    observer_->on_read(id_, x, v, tag, done);
  }
  return v;
}

void BroadcastNode::write(Addr x, Value v) {
  // The write completes at this replica; the fan-out below waits on nobody.
  const OpClock clock(stats_, observer_);
  Message m;
  {
    std::unique_lock lock(mu_);
    stats_.bump(Counter::kWriteLocal);
    const WriteTag tag{id_, ++write_seq_};
    // Causal broadcast stamp: delivered-counts vector with our own write
    // counted. Receivers deliver when they have seen everything we had.
    ++delivered_[id_];
    ++applied_total_;
    store_[x] = StoredCell{v, tag};
    const std::uint64_t tid = new_trace_id();
    const OpTiming done =
        clock.local_done(obs::TraceEventKind::kWriteDone, x, tid);
    if (observer_ != nullptr) {
      observer_->on_write(id_, x, v, tag, true, done);
    }

    m.type = MsgType::kBroadcastUpdate;
    m.from = id_;
    m.addr = x;
    m.value = v;
    m.tag = tag;
    m.stamp = VectorClock(delivered_);
    m.trace_id = tid;  // every fan-out copy carries the write's flow id
  }
  applied_cv_.notify_all();
  for (NodeId peer = 0; peer < n_; ++peer) {
    if (peer == id_) continue;
    Message copy = m;
    copy.to = peer;
    stats_.bump(Counter::kMsgBroadcast);
    transport_.send(std::move(copy));
  }
}

bool BroadcastNode::discard(Addr /*x*/) { return false; }

std::uint64_t BroadcastNode::applied_count() const {
  std::unique_lock lock(mu_);
  return applied_total_;
}

std::uint64_t BroadcastNode::issued_count() const {
  std::unique_lock lock(mu_);
  return write_seq_;
}

void BroadcastNode::wait_applied(std::uint64_t target) {
  std::unique_lock lock(mu_);
  if (coop::enabled()) {
    // Simulated run: park on the applied-count instead of blocking the task
    // thread; updates are applied by handlers on the scheduler thread.
    while (applied_total_ < target) {
      lock.unlock();
      coop::park(
          [this, target] {
            std::scoped_lock probe(mu_);
            return applied_total_ >= target;
          },
          0, "wait_applied");
      lock.lock();
    }
    return;
  }
  applied_cv_.wait(lock, [&] { return applied_total_ >= target; });
}

void BroadcastNode::on_message(const Message& m) {
  CM_ASSERT(m.type == MsgType::kBroadcastUpdate);
  {
    std::unique_lock lock(mu_);
    if (!cfg_.causal_delivery) {
      // Ungated mode: apply immediately, ignoring the causal stamp. Only
      // the delivered-count for the sender is kept honest so issued/applied
      // accounting (and a later re-enable of gating) stays coherent.
      apply(m);
    } else {
      holdback_.push_back(m);
      drain_holdback();
    }
  }
  applied_cv_.notify_all();
}

bool BroadcastNode::deliverable(const Message& m) const {
  const NodeId sender = m.from;
  // ISIS-style rule: next-in-sequence from the sender, and we have already
  // delivered every write the sender had delivered when it sent.
  if (m.stamp[sender] != delivered_[sender] + 1) return false;
  for (VectorClock::NonzeroCursor c(m.stamp); !c.done(); c.next()) {
    if (c.index() != sender && c.value() > delivered_[c.index()]) {
      return false;
    }
  }
  return true;
}

void BroadcastNode::apply(const Message& m) {
  store_[m.addr] = StoredCell{m.value, m.tag};
  ++delivered_[m.from];
  ++applied_total_;
  // The replica-side take-effect point of the broadcast write — closes one
  // edge of the writer's fan-out flow.
  if (obs::Tracer* t = stats_.tracer()) {
    t->record(obs::TraceEventKind::kApply,
              static_cast<std::uint8_t>(MsgType::kBroadcastUpdate), m.from,
              m.addr, &m.stamp, 0, 0, m.trace_id);
  }
}

void BroadcastNode::drain_holdback() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = holdback_.begin(); it != holdback_.end(); ++it) {
      if (deliverable(*it)) {
        apply(*it);
        holdback_.erase(it);
        progressed = true;
        break;  // iterators invalidated; rescan
      }
    }
  }
}

}  // namespace causalmem
