#include "causalmem/net/reliable_channel.hpp"

#include <algorithm>

#include "causalmem/common/backoff.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/common/logging.hpp"

namespace causalmem {

namespace {
constexpr std::uint64_t to_ns(std::chrono::microseconds us) noexcept {
  return static_cast<std::uint64_t>(us.count()) * 1000ULL;
}
}  // namespace

ReliableChannel::ReliableChannel(std::unique_ptr<Transport> inner,
                                 ReliableConfig config)
    : inner_(std::move(inner)), config_(config) {
  CM_EXPECTS(inner_ != nullptr);
  CM_EXPECTS(config_.initial_rto.count() > 0);
  CM_EXPECTS(config_.max_rto >= config_.initial_rto);
  CM_EXPECTS(config_.reorder_window > 0);
  const std::size_t n = inner_->node_count();
  handlers_.resize(n);
  channels_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    auto ch = std::make_unique<Channel>();
    ch->ring.resize(config_.reorder_window);
    ch->present.assign(config_.reorder_window, 0);
    channels_.push_back(std::move(ch));
  }
}

ReliableChannel::~ReliableChannel() { shutdown(); }

void ReliableChannel::attach_stats(StatsRegistry* stats) noexcept {
  stats_ = stats;
  inner_->attach_stats(stats);
}

void ReliableChannel::bump_node(NodeId node, Counter c) noexcept {
  if (stats_ != nullptr && node < inner_->node_count()) {
    stats_->node(node).bump(c);
  }
}

void ReliableChannel::register_node(NodeId id, Handler handler) {
  CM_EXPECTS(id < inner_->node_count());
  CM_EXPECTS_MSG(!started_.load(), "register_node after start()");
  CM_EXPECTS(handler != nullptr);
  handlers_[id] = std::move(handler);
  inner_->register_node(id, [this](const Message& m) { on_receive(m); });
}

void ReliableChannel::start() {
  CM_EXPECTS_MSG(!started_.exchange(true), "transport started twice");
  inner_->start();
  retransmitter_ =
      std::jthread([this](const std::stop_token& st) { run_retransmitter(st); });
}

void ReliableChannel::send(Message m) {
  if (sequence(m)) inner_->send(std::move(m));
}

HeldSend ReliableChannel::send_held(Message m) {
  if (!sequence(m)) return {};
  return inner_->send_held(std::move(m));
}

void ReliableChannel::deliver_held(HeldSend held) {
  inner_->deliver_held(held);
}

bool ReliableChannel::sequence(Message& m) {
  if (stopping_.load(std::memory_order_acquire)) return false;
  const std::size_t n = inner_->node_count();
  CM_EXPECTS(m.from < n && m.to < n);
  if (m.from == m.to) return true;  // loopback needs no reliability machinery
  {
    // Piggyback the reverse channel's cumulative ack. Separate critical
    // section from the sequence assignment below — channel locks never nest.
    Channel& rev = channel(m.to, m.from);
    std::scoped_lock lock(rev.mu);
    m.rel_ack = rev.next_deliver_seq - 1;
  }
  {
    Channel& ch = channel(m.from, m.to);
    std::scoped_lock lock(ch.mu);
    m.rel_seq = ch.next_send_seq++;
    const std::uint64_t now = obs::now_ns();
    ch.outstanding.push_back(
        Pending{m, now + to_ns(config_.initial_rto), config_.initial_rto, now});
  }
  return true;
}

void ReliableChannel::apply_ack(NodeId sender, NodeId receiver,
                                std::uint64_t acked) {
  if (acked == 0) return;
  Channel& ch = channel(sender, receiver);
  std::scoped_lock lock(ch.mu);
  // Cumulative: everything <= acked arrived. The deque holds consecutive
  // seqs starting at base_seq, so the acked prefix pops off the front.
  while (!ch.outstanding.empty() && ch.base_seq <= acked) {
    ch.outstanding.pop_front();
    ++ch.base_seq;
  }
}

void ReliableChannel::send_ack(NodeId receiver, NodeId sender,
                               std::uint64_t acked) {
  if (stopping_.load(std::memory_order_acquire)) return;
  Message ack;
  ack.type = MsgType::kRelAck;
  ack.from = receiver;
  ack.to = sender;
  ack.rel_ack = acked;
  acks_.fetch_add(1, std::memory_order_relaxed);
  bump_node(receiver, Counter::kNetAckSent);
  trace_msg(receiver, obs::TraceEventKind::kAckSent, ack);
  inner_->send(std::move(ack));
}

void ReliableChannel::on_receive(const Message& m) {
  if (m.type == MsgType::kRelAck) {
    apply_ack(/*sender=*/m.to, /*receiver=*/m.from, m.rel_ack);
    return;
  }
  if (m.rel_seq == 0) {
    // Unsequenced (loopback or a sender bypassing the adapter): deliver
    // directly, reliability is not our problem for these.
    handlers_[m.to](m);
    return;
  }
  apply_ack(/*sender=*/m.to, /*receiver=*/m.from, m.rel_ack);

  Channel& ch = channel(m.from, m.to);
  {
    std::scoped_lock lock(ch.mu);
    const std::size_t window = config_.reorder_window;
    if (m.rel_seq >= ch.next_deliver_seq + window) {
      // Beyond the bounded reorder buffer: drop instead of buffering, so a
      // wildly reordered (or hostile) sender cannot grow receiver state
      // without limit. The sender's retransmission redelivers the frame
      // once the window has advanced past it.
      out_of_window_.fetch_add(1, std::memory_order_relaxed);
      bump_node(m.to, Counter::kNetOutOfWindow);
    } else if (m.rel_seq < ch.next_deliver_seq ||
               ch.present[m.rel_seq % window] != 0) {
      // Duplicate (retransmission that crossed its ack, or an injected
      // copy). Drop it but re-ack: the first ack may have been lost.
      dup_drops_.fetch_add(1, std::memory_order_relaxed);
      bump_node(m.to, Counter::kNetDupDropped);
      trace_msg(m.to, obs::TraceEventKind::kDupDrop, m);
    } else {
      const std::size_t slot = m.rel_seq % window;
      ch.ring[slot] = m;
      ch.present[slot] = 1;
    }
    if (ch.draining) {
      // Another thread is mid-drain and will deliver (and ack) any frame we
      // just installed before it retires; a second popper here could
      // interleave its out-of-lock handler calls with the drainer's and
      // break per-channel FIFO.
      return;
    }
    ch.draining = true;
  }
  // Drain as the channel's sole popper. Deliver outside the lock: handlers
  // are protocol state machines that send replies, and those sends re-enter
  // this adapter (send() takes this very channel's mutex for the piggyback
  // ack when replying). Re-check after each batch so frames that arrived on
  // other threads during delivery are not stranded in the ring.
  std::vector<Message> ready;
  std::uint64_t ack_val = 0;
  for (;;) {
    {
      std::scoped_lock lock(ch.mu);
      const std::size_t window = config_.reorder_window;
      while (ch.present[ch.next_deliver_seq % window] != 0) {
        const std::size_t head = ch.next_deliver_seq % window;
        ready.push_back(std::move(ch.ring[head]));
        ch.ring[head] = Message{};  // release the buffered frame's storage
        ch.present[head] = 0;
        ++ch.next_deliver_seq;
      }
      if (ready.empty()) {
        ch.draining = false;
        ack_val = ch.next_deliver_seq - 1;
        break;
      }
    }
    for (const Message& r : ready) handlers_[m.to](r);
    ready.clear();
  }
  send_ack(/*receiver=*/m.to, /*sender=*/m.from, ack_val);
}

void ReliableChannel::reset_peer(NodeId id) {
  const std::size_t n = inner_->node_count();
  CM_EXPECTS(id < n);
  for (std::size_t other = 0; other < n; ++other) {
    if (other == id) continue;
    for (Channel* ch : {&channel(id, static_cast<NodeId>(other)),
                        &channel(static_cast<NodeId>(other), id)}) {
      std::scoped_lock lock(ch->mu);
      ch->outstanding.clear();
      ch->base_seq = 1;
      ch->next_send_seq = 1;
      ch->next_deliver_seq = 1;
      for (Message& buffered : ch->ring) buffered = Message{};
      std::fill(ch->present.begin(), ch->present.end(), std::uint8_t{0});
    }
  }
}

bool ReliableChannel::retransmit_due() {
  const std::uint64_t now = obs::now_ns();
  const std::size_t n = inner_->node_count();
  bool any = false;
  struct Resend {
    Message msg;
    std::uint64_t first_sent_ns;
  };
  std::vector<Resend> resend;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d) continue;
      resend.clear();
      {
        Channel& ch = channel(static_cast<NodeId>(s), static_cast<NodeId>(d));
        std::scoped_lock lock(ch.mu);
        for (Pending& pending : ch.outstanding) {
          if (pending.dead || pending.deadline_ns > now) continue;
          if (config_.max_retransmits != 0 &&
              pending.retries >= config_.max_retransmits) {
            // Give up: the peer is presumed dead. The message dies here —
            // exactly-once holds for delivered messages only; the layer
            // above (request deadlines / failover) owns this failure.
            peer_unreachable_.fetch_add(1, std::memory_order_relaxed);
            bump_node(pending.msg.from, Counter::kNetPeerUnreachable);
            trace_msg(pending.msg.from,
                      obs::TraceEventKind::kPeerUnreachable, pending.msg);
            CM_LOG_DEBUG("reliable give-up " << pending.msg.to_string());
            pending.dead = true;
            pending.msg = Message{};  // release the copy's storage now
            continue;
          }
          ++pending.retries;
          pending.rto = std::min(pending.rto * 2, config_.max_rto);
          pending.deadline_ns = now + to_ns(pending.rto);
          resend.push_back(Resend{pending.msg, pending.first_sent_ns});
        }
        // Dead entries at the front no longer gate the window prefix.
        while (!ch.outstanding.empty() && ch.outstanding.front().dead) {
          ch.outstanding.pop_front();
          ++ch.base_seq;
        }
      }
      for (Resend& r : resend) {
        Message& m = r.msg;
        retransmits_.fetch_add(1, std::memory_order_relaxed);
        bump_node(m.from, Counter::kNetRetransmit);
        if (stats_ != nullptr && m.from < n) {
          stats_->node(m.from).record_latency(
              LatencyMetric::kRetransmitDelayNs,
              obs::now_ns() - r.first_sent_ns);
        }
        trace_msg(m.from, obs::TraceEventKind::kRetransmit, m);
        CM_LOG_DEBUG("reliable retransmit " << m.to_string());
        inner_->send(std::move(m));
      }
      any = any || !resend.empty();
    }
  }
  return any;
}

void ReliableChannel::run_retransmitter(const std::stop_token& st) {
  // Backoff paces the scan: tight after a retransmission burst (more loss is
  // likely), escalating to max_sleep = tick when all channels are clean.
  Backoff pacer(config_.tick);
  while (!st.stop_requested()) {
    if (retransmit_due()) {
      pacer.reset();
    } else {
      pacer.pause();
    }
  }
}

void ReliableChannel::shutdown() {
  if (stopping_.exchange(true)) return;
  if (retransmitter_.joinable()) {
    retransmitter_.request_stop();
    retransmitter_.join();
  }
  // Unacked messages die with the channel: the system is quiescing, and the
  // Transport contract already drops post-shutdown sends.
  inner_->shutdown();
}

}  // namespace causalmem
