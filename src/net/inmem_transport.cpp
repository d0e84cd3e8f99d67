#include "causalmem/net/inmem_transport.hpp"

#include "causalmem/common/arena.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/common/logging.hpp"

namespace causalmem {

namespace {

// Message types eligible for inline delivery on the sender's thread.
//
// Proof obligation: every send site of an eligible type, in every protocol
// layer, must hold no node or channel lock at the call — the inline path
// runs the receiver's handler (which takes the receiver's locks, and may
// itself send) before send() returns. Reply types qualify: all four DSM
// node implementations build replies under their mutex but send after
// releasing it, and ReliableChannel's acks are sent outside its channel
// locks. Request types do NOT qualify: AtomicNode sends kInvalidate under
// its mutex, and requesters send under their operation mutex so that
// channel order equals operation order (DESIGN.md §6 rule 5a). A requester
// that wants its request delivered on its own thread uses the two-step
// send_held()/deliver_held() instead, which runs the handler only after
// it has released that mutex. One-way updates (kBroadcastUpdate,
// kHeartbeat) stay on the queued path so their fan-out keeps its cost off
// the sending thread.
constexpr bool inline_eligible(MsgType t) noexcept {
  switch (t) {
    case MsgType::kReadReply:
    case MsgType::kWriteReply:
    case MsgType::kSyncReply:
    case MsgType::kRecoverReply:
    case MsgType::kRelAck:
      return true;
    default:
      return false;
  }
}

}  // namespace

InMemTransport::InMemTransport(std::size_t n, LatencyModel latency,
                               bool exercise_codec)
    : latency_(latency), exercise_codec_(exercise_codec) {
  CM_EXPECTS(n > 0);
  endpoints_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    endpoints_.push_back(std::make_unique<Endpoint>());
  }
  channels_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    auto ch = std::make_unique<Channel>();
    ch->rng = Rng(latency_.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    channels_.push_back(std::move(ch));
  }
}

InMemTransport::~InMemTransport() { shutdown(); }

void InMemTransport::register_node(NodeId id, Handler handler) {
  CM_EXPECTS(id < endpoints_.size());
  CM_EXPECTS_MSG(!started_.load(), "register_node after start()");
  CM_EXPECTS(handler != nullptr);
  endpoints_[id]->handler = std::move(handler);
}

void InMemTransport::start() {
  CM_EXPECTS_MSG(!started_.exchange(true), "transport started twice");
  for (auto& ep : endpoints_) {
    CM_EXPECTS_MSG(ep->handler != nullptr, "node missing handler");
    ep->worker = std::jthread([this, &ep_ref = *ep] { run_endpoint(ep_ref); });
  }
}

void InMemTransport::set_channel_latency(NodeId from, NodeId to,
                                         LatencyModel latency) {
  CM_EXPECTS(from < endpoints_.size() && to < endpoints_.size());
  CM_EXPECTS_MSG(!started_.load(), "set_channel_latency after start()");
  Channel& ch = *channels_[from * endpoints_.size() + to];
  std::scoped_lock lock(ch.mu);
  ch.has_override = true;
  ch.override_latency = latency;
}

InMemTransport::Clock::time_point InMemTransport::next_deadline_locked(
    Channel& ch) {
  const LatencyModel& lat = ch.has_override ? ch.override_latency : latency_;
  auto deadline = Clock::now();
  if (!lat.is_zero()) {
    auto extra = lat.base;
    if (lat.jitter.count() > 0) {
      extra += std::chrono::microseconds(ch.rng.next_below(
          static_cast<std::uint64_t>(lat.jitter.count()) + 1));
    }
    deadline += extra;
  }
  // Clamp to monotonic per-channel deadlines: FIFO survives jitter.
  if (deadline < ch.last_deadline) deadline = ch.last_deadline;
  ch.last_deadline = deadline;
  return deadline;
}

void InMemTransport::send(Message m) { (void)post(std::move(m), false); }

HeldSend InMemTransport::send_held(Message m) {
  return post(std::move(m), true);
}

HeldSend InMemTransport::post(Message m, bool hold) {
  CM_EXPECTS(m.from < endpoints_.size());
  CM_EXPECTS(m.to < endpoints_.size());
  if (stopping_.load(std::memory_order_acquire)) return {};

  Channel& ch = channel_of(m);
  Clock::time_point deadline{};
  bool try_inline = false;
  {
    std::scoped_lock lock(ch.mu);
    if (exercise_codec_) {
      // Round-trip through the wire format to prove serialization fidelity.
      // The frame comes from (and returns to) the arena, and the swap
      // recycles the caller's message buffers as the next round-trip's
      // decode target, which the channel lock guards.
      std::vector<std::byte> wire = m.encode();
      Message::decode_into(wire, ch.scratch);
      FrameArena::release(std::move(wire));
      std::swap(m, ch.scratch);
    }
    const LatencyModel& lat = ch.has_override ? ch.override_latency : latency_;
    // Only a zero-latency message is due the moment it is queued, so only
    // then can the caller deliver it; otherwise holding is plain sending.
    hold = hold && lat.is_zero();
    try_inline = !hold && lat.is_zero() && inline_eligible(m.type);
    if (!try_inline) deadline = next_deadline_locked(ch);
  }

  // Wire-level send: recorded here (below the recovery layers) so
  // retransmissions show up as the extra sends they are.
  trace_msg(m.from, obs::TraceEventKind::kSend, m);

  Endpoint& ep = *endpoints_[m.to];
  if (try_inline) {
    // Claim the idle channel (0 -> kInlineRunning). Success means nothing
    // is queued or mid-delivery on it, so delivering here cannot reorder
    // the channel; holding the claim until the handler returns keeps it
    // that way. The acquire pairs with the release decrements, so the
    // handler sees every effect of the channel's previous delivery. On a
    // busy channel, fall through to the queue (the deadline was skipped
    // above: a zero-latency channel's deadline is just "now").
    std::uint32_t idle = 0;
    if (ch.inflight.compare_exchange_strong(idle, kInlineRunning,
                                            std::memory_order_acq_rel)) {
      trace_msg(m.to, obs::TraceEventKind::kRecv, m);
      ep.handler(m);
      delivered_.fetch_add(1, std::memory_order_relaxed);
      if (ch.inflight.fetch_sub(kInlineRunning, std::memory_order_release) !=
          kInlineRunning) {
        // Messages queued on the channel meanwhile waited for this handler
        // (next_is_ready). Taking ep.mu first means a worker that saw the
        // claim is already waiting, so this wake-up cannot be lost.
        { std::scoped_lock lock(ep.mu); }
        ep.cv.notify_one();
      }
      return {};
    }
    std::scoped_lock lock(ch.mu);
    deadline = next_deadline_locked(ch);
  }

  HeldSend held;
  {
    std::scoped_lock lock(ep.mu);
    if (ep.stopped) return {};
    // Count before the push is visible: any send that happens-after this one
    // observes a non-idle channel and cannot jump the queue.
    ch.inflight.fetch_add(1, std::memory_order_relaxed);
    if (hold) held = HeldSend{m.to, ep.next_seq};
    ep.queue.push(Envelope{deadline, ep.next_seq++, std::move(m)});
  }
  if (!hold) ep.cv.notify_one();
  return held;
}

void InMemTransport::deliver_held(HeldSend held) {
  if (held.empty()) return;
  Endpoint& ep = *endpoints_[held.to];
  std::unique_lock lock(ep.mu);
  // Deliver the held message here, after any ready messages queued before
  // it: the worker would have to wake up for those first anyway.
  while (next_is_ready(ep) && ep.queue.top().seq <= held.seq) {
    const bool last = ep.queue.top().seq == held.seq;
    deliver_next(ep, lock);
    if (last) break;
  }
  // Whatever is still queued, the held message included when the slot was
  // taken or an inline delivery held up its channel, is the worker's.
  const bool wake = !ep.queue.empty();
  lock.unlock();
  if (wake) ep.cv.notify_one();
}

bool InMemTransport::next_is_ready(const Endpoint& ep) {
  if (ep.delivering || ep.queue.empty()) return false;
  const Envelope& next = ep.queue.top();
  // The acquire pairs with the inline path's release: a delivery that sees
  // the claim gone also sees the inline handler's effects.
  return next.deliver_at <= Clock::now() &&
         (channel_of(next.msg).inflight.load(std::memory_order_acquire) &
          kInlineRunning) == 0;
}

void InMemTransport::deliver_next(Endpoint& ep,
                                  std::unique_lock<std::mutex>& lock) {
  // priority_queue::top() is const, but moving out before pop() is safe
  // (pop only needs the element to be assignable) and saves copying the
  // message's stamp and cells on every delivery.
  Envelope env = std::move(const_cast<Envelope&>(ep.queue.top()));
  ep.queue.pop();
  ep.delivering = true;
  lock.unlock();
  trace_msg(env.msg.to, obs::TraceEventKind::kRecv, env.msg);
  ep.handler(env.msg);
  delivered_.fetch_add(1, std::memory_order_relaxed);
  // Release the channel only after the handler returns: an inline send
  // that observes 0 must also observe this delivery's effects.
  channel_of(env.msg).inflight.fetch_sub(1, std::memory_order_release);
  lock.lock();
  ep.delivering = false;
}

void InMemTransport::run_endpoint(Endpoint& ep) {
  std::unique_lock lock(ep.mu);
  for (;;) {
    ep.cv.wait(lock, [&] {
      return ep.stopped || (!ep.queue.empty() && !ep.delivering);
    });
    if (ep.stopped) return;  // shutdown() dropped the queue
    const auto deliver_at = ep.queue.top().deliver_at;
    if (deliver_at > Clock::now()) {
      // Wait out the injected latency, unless an earlier message (one on a
      // zero-latency channel) takes the front or shutdown begins.
      ep.cv.wait_until(lock, deliver_at, [&] {
        return ep.stopped || ep.queue.empty() ||
               ep.queue.top().deliver_at < deliver_at;
      });
      continue;
    }
    if (!next_is_ready(ep)) {
      // An inline delivery still runs on the first message's channel; it
      // wakes this worker when it returns.
      ep.cv.wait(lock);
      continue;
    }
    deliver_next(ep, lock);
  }
}

void InMemTransport::shutdown() {
  if (stopping_.exchange(true)) {
    // Already stopping; jthread joins on destruction.
  }
  for (auto& ep : endpoints_) {
    {
      std::scoped_lock lock(ep->mu);
      ep->stopped = true;
      // Drop undelivered messages: receivers are quiescing and replies to
      // them would target dead futures.
      while (!ep->queue.empty()) ep->queue.pop();
    }
    ep->cv.notify_all();
  }
  for (auto& ep : endpoints_) {
    if (ep->worker.joinable()) ep->worker.join();
  }
}

}  // namespace causalmem
