#include "causalmem/net/fault_injection.hpp"

#include "causalmem/common/expect.hpp"
#include "causalmem/common/logging.hpp"

namespace causalmem {

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 FaultModel model)
    : inner_(std::move(inner)), model_(model) {
  CM_EXPECTS(inner_ != nullptr);
  CM_EXPECTS(model_.drop_rate >= 0.0 && model_.drop_rate <= 1.0);
  CM_EXPECTS(model_.dup_rate >= 0.0 && model_.dup_rate <= 1.0);
  CM_EXPECTS(model_.delay_rate >= 0.0 && model_.delay_rate <= 1.0);
  const std::size_t n = inner_->node_count();
  channels_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    auto ch = std::make_unique<Channel>();
    ch->rng = Rng(model_.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    channels_.push_back(std::move(ch));
  }
  crashed_ = std::vector<std::atomic<bool>>(n);
  epochs_ = std::vector<std::atomic<std::uint64_t>>(n);
}

FaultyTransport::~FaultyTransport() { shutdown(); }

void FaultyTransport::register_node(NodeId id, Handler handler) {
  inner_->register_node(id, std::move(handler));
}

void FaultyTransport::attach_stats(StatsRegistry* stats) noexcept {
  stats_ = stats;
  inner_->attach_stats(stats);
}

void FaultyTransport::bump_node(NodeId node, Counter c) noexcept {
  if (stats_ != nullptr && node < inner_->node_count()) {
    stats_->node(node).bump(c);
  }
}

void FaultyTransport::start() {
  CM_EXPECTS_MSG(!started_.exchange(true), "transport started twice");
  timer_ = std::jthread([this] { run_timer(); });
  inner_->start();
}

void FaultyTransport::crash_node(NodeId id) {
  CM_EXPECTS(id < inner_->node_count());
  crashed_[id].store(true, std::memory_order_release);
  epochs_[id].fetch_add(1, std::memory_order_acq_rel);
}

void FaultyTransport::restart_node(NodeId id) {
  CM_EXPECTS(id < inner_->node_count());
  crashed_[id].store(false, std::memory_order_release);
  epochs_[id].fetch_add(1, std::memory_order_acq_rel);
}

void FaultyTransport::set_partition(NodeId from, NodeId to, bool blocked) {
  CM_EXPECTS(from < inner_->node_count() && to < inner_->node_count());
  Channel& ch = channel(from, to);
  std::scoped_lock lock(ch.mu);
  ch.blocked = blocked;
}

void FaultyTransport::send(Message m) {
  if (admit(m)) inner_->send(std::move(m));
}

HeldSend FaultyTransport::send_held(Message m) {
  if (!admit(m)) return {};
  return inner_->send_held(std::move(m));
}

void FaultyTransport::deliver_held(HeldSend held) {
  inner_->deliver_held(held);
}

bool FaultyTransport::admit(Message& m) {
  if (stopping_.load(std::memory_order_acquire)) return false;
  const std::size_t n = inner_->node_count();
  CM_EXPECTS(m.from < n && m.to < n);

  if (crashed_[m.from].load(std::memory_order_acquire) ||
      crashed_[m.to].load(std::memory_order_acquire)) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    bump_node(m.from, Counter::kNetFaultDrop);
    trace_msg(m.from, obs::TraceEventKind::kFaultDrop, m);
    return false;
  }

  bool dup = false;
  std::chrono::microseconds delay{0};
  {
    Channel& ch = channel(m.from, m.to);
    std::scoped_lock lock(ch.mu);
    if (ch.blocked || ch.rng.chance(model_.drop_rate)) {
      drops_.fetch_add(1, std::memory_order_relaxed);
      bump_node(m.from, Counter::kNetFaultDrop);
      trace_msg(m.from, obs::TraceEventKind::kFaultDrop, m);
      return false;
    }
    dup = ch.rng.chance(model_.dup_rate);
    if (dup || ch.rng.chance(model_.delay_rate)) {
      auto extra = model_.delay_base;
      if (model_.delay_jitter.count() > 0) {
        extra += std::chrono::microseconds(ch.rng.next_below(
            static_cast<std::uint64_t>(model_.delay_jitter.count()) + 1));
      }
      delay = extra;
    }
  }

  if (dup) {
    // The extra copy re-enters the inner transport later, after subsequent
    // sends on the channel — an out-of-order duplicate, the hard case for
    // the receive side.
    dups_.fetch_add(1, std::memory_order_relaxed);
    bump_node(m.from, Counter::kNetFaultDup);
    trace_msg(m.from, obs::TraceEventKind::kFaultDup, m);
    enqueue_delayed(m, delay);
    return true;
  }
  if (delay.count() > 0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    bump_node(m.from, Counter::kNetFaultDelay);
    trace_msg(m.from, obs::TraceEventKind::kFaultDelay, m);
    enqueue_delayed(std::move(m), delay);
    return false;
  }
  return true;
}

void FaultyTransport::enqueue_delayed(Message m,
                                      std::chrono::microseconds delay) {
  {
    std::scoped_lock lock(delay_mu_);
    if (timer_stop_) return;
    delay_queue_.push(Delayed{Clock::now() + delay, delay_seq_++, std::move(m)});
  }
  delay_cv_.notify_one();
}

void FaultyTransport::run_timer() {
  std::unique_lock lock(delay_mu_);
  for (;;) {
    delay_cv_.wait(lock, [&] { return timer_stop_ || !delay_queue_.empty(); });
    if (timer_stop_) return;
    const auto send_at = delay_queue_.top().send_at;
    const auto now = Clock::now();
    if (send_at > now) {
      // An earlier deadline cannot appear (new entries use Clock::now() +
      // a non-negative delay), but shutdown can.
      delay_cv_.wait_until(lock, send_at, [&] { return timer_stop_; });
      if (timer_stop_) return;
      continue;
    }
    Message m = delay_queue_.top().msg;
    delay_queue_.pop();
    lock.unlock();
    inner_->send(std::move(m));
    lock.lock();
  }
}

void FaultyTransport::shutdown() {
  if (stopping_.exchange(true)) return;
  {
    std::scoped_lock lock(delay_mu_);
    timer_stop_ = true;
    // Drop still-delayed messages: the system is quiescing and the inner
    // transport drops post-shutdown sends anyway.
    while (!delay_queue_.empty()) delay_queue_.pop();
  }
  delay_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  inner_->shutdown();
}

}  // namespace causalmem
