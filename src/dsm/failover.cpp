#include "causalmem/dsm/failover.hpp"

#include <algorithm>

#include "causalmem/common/expect.hpp"
#include "causalmem/common/logging.hpp"
#include "causalmem/obs/clock.hpp"
#include "causalmem/obs/flight_recorder.hpp"
#include "causalmem/obs/trace.hpp"

namespace causalmem {

bool fresher_stamp(const VectorClock& a, const VectorClock& b) {
  switch (a.compare(b)) {
    case ClockOrder::kAfter:
      return true;
    case ClockOrder::kBefore:
    case ClockOrder::kEqual:
      return false;
    case ClockOrder::kConcurrent:
      break;
  }
  const auto sum = [](const VectorClock& v) {
    std::uint64_t s = 0;
    for (VectorClock::NonzeroCursor c(v); !c.done(); c.next()) s += c.value();
    return s;
  };
  const std::uint64_t sa = sum(a);
  const std::uint64_t sb = sum(b);
  if (sa != sb) return sa > sb;
  // Lexicographic over the components: the first index where the two
  // differ decides. Walking the nonzero ones, that is the first position
  // where the two walks part; a clock with no nonzero left there holds a
  // zero at the other's index.
  VectorClock::NonzeroCursor ca(a);
  VectorClock::NonzeroCursor cb(b);
  while (!ca.done() && !cb.done() && ca.index() == cb.index() &&
         ca.value() == cb.value()) {
    ca.next();
    cb.next();
  }
  if (ca.done()) return false;  // equal, or b is nonzero where a is zero
  if (cb.done()) return true;
  if (ca.index() != cb.index()) return ca.index() < cb.index();
  return ca.value() > cb.value();
}

FailoverDirectory::FailoverDirectory(std::unique_ptr<Ownership> base,
                                     std::size_t n, StatsRegistry* stats)
    : n_(n), base_(std::move(base)), stats_(stats) {
  CM_EXPECTS(n_ > 0);
  CM_EXPECTS(base_ != nullptr);
  reroute_ = std::vector<std::atomic<NodeId>>(n_);
  for (auto& r : reroute_) r.store(kNoNode, std::memory_order_relaxed);
  down_ = std::vector<std::atomic<bool>>(n_);
  durable_ = std::vector<std::atomic<bool>>(n_);
  last_alive_ = std::vector<std::atomic<std::uint64_t>>(n_);
  const std::uint64_t now = obs::now_ns();
  for (auto& t : last_alive_) t.store(now, std::memory_order_relaxed);
}

NodeId FailoverDirectory::owner(Addr x) const {
  NodeId cur = base_->owner(x);
  // Follow the reroute chain (a successor may itself have failed over).
  // Chains are loop-free: a reroute always points past the dead node in
  // ring order and is never installed twice for one node.
  for (std::size_t hops = 0; hops < n_; ++hops) {
    const NodeId next = reroute_[cur].load(std::memory_order_acquire);
    if (next == kNoNode) return cur;
    cur = next;
  }
  return cur;
}

std::vector<NodeId> FailoverDirectory::live_peers(NodeId self) const {
  std::vector<NodeId> out;
  out.reserve(n_);
  for (NodeId i = 0; i < n_; ++i) {
    if (i != self && !down_[i].load(std::memory_order_acquire)) {
      out.push_back(i);
    }
  }
  return out;
}

bool FailoverDirectory::suspect(NodeId suspect, NodeId reporter) {
  CM_EXPECTS(suspect < n_);
  if (stats_ != nullptr && reporter < n_) {
    stats_->node(reporter).bump(Counter::kFoSuspect);
    if (obs::Tracer* t = stats_->tracer(reporter)) {
      t->record(obs::TraceEventKind::kSuspect, 0, suspect);
    }
  }
  std::scoped_lock lock(mu_);
  if (down_[suspect].load(std::memory_order_acquire)) return false;
  // Deterministic successor: the next live DURABLE node in ring order when
  // one exists (its checkpoint + WAL survive a later crash of the successor
  // itself), otherwise the next live node. "Ring order" is hash-ring
  // successor order when a HashRing is attached (so a crashed shard's pages
  // rebalance along the segment that would absorb them on a planned leave)
  // and node-id order otherwise. Both passes walk the same candidate list,
  // so every node computing the successor independently agrees.
  std::vector<NodeId> candidates;
  if (ring_ != nullptr && ring_->node_count() == n_) {
    candidates = ring_->successor_order(suspect);
  } else {
    candidates.reserve(n_ - 1);
    for (std::size_t step = 1; step < n_; ++step) {
      candidates.push_back(static_cast<NodeId>((suspect + step) % n_));
    }
  }
  NodeId successor = kNoNode;
  for (const NodeId cand : candidates) {
    if (!down_[cand].load(std::memory_order_acquire) &&
        durable_[cand].load(std::memory_order_acquire)) {
      successor = cand;
      break;
    }
  }
  if (successor == kNoNode) {
    for (const NodeId cand : candidates) {
      if (!down_[cand].load(std::memory_order_acquire)) {
        successor = cand;
        break;
      }
    }
  }
  if (successor == kNoNode) return false;  // nobody left to take over
  down_[suspect].store(true, std::memory_order_release);
  reroute_[suspect].store(successor, std::memory_order_release);
  CM_LOG_INFO("failover: P" << suspect << " suspected (reporter="
                            << static_cast<std::int64_t>(
                                   reporter == kNoNode ? -1 : reporter)
                            << "), successor P" << successor);
  if (stats_ != nullptr) {
    stats_->node(successor).bump(Counter::kFoFailover);
    if (obs::Tracer* t = stats_->tracer(successor)) {
      t->record(obs::TraceEventKind::kFailover, 0, suspect);
    }
    if (obs::FlightRecorder* fr =
            stats_->node(successor).flight_recorder()) {
      fr->on_failover(successor, suspect);
    }
  }
  return true;
}

void FailoverDirectory::record_alive(NodeId subject) {
  if (subject >= n_) return;
  last_alive_[subject].store(obs::now_ns(), std::memory_order_release);
}

void FailoverDirectory::mark_restarted(NodeId id) {
  CM_EXPECTS(id < n_);
  std::scoped_lock lock(mu_);
  last_alive_[id].store(obs::now_ns(), std::memory_order_release);
  down_[id].store(false, std::memory_order_release);
  // reroute_[id] is deliberately kept: migrated ownership never reverts.
}

void FailoverDirectory::set_durable(NodeId id, bool durable) {
  CM_EXPECTS(id < n_);
  durable_[id].store(durable, std::memory_order_release);
}

// --------------------------------------------------------------------------
// HeartbeatMonitor
// --------------------------------------------------------------------------

HeartbeatMonitor::HeartbeatMonitor(Transport* transport,
                                   FailoverDirectory* directory,
                                   HeartbeatConfig config, StatsRegistry* stats)
    : transport_(transport),
      directory_(directory),
      config_(config),
      stats_(stats) {
  CM_EXPECTS(transport_ != nullptr);
  CM_EXPECTS(directory_ != nullptr);
  CM_EXPECTS(config_.interval.count() > 0);
  CM_EXPECTS(config_.suspect_after >= config_.interval);
}

void HeartbeatMonitor::start() {
  if (running_.exchange(true)) return;
  prober_ = std::jthread([this](const std::stop_token& st) { run(st); });
}

void HeartbeatMonitor::stop() {
  if (!running_.exchange(false)) return;
  if (prober_.joinable()) {
    prober_.request_stop();
    prober_.join();
  }
}

void HeartbeatMonitor::run(const std::stop_token& st) {
  const auto interval_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(config_.interval)
          .count());
  // The sleep only paces the polling; whether a round is due is judged in
  // obs::now_ns() time, so a FakeClock fully controls heartbeat cadence
  // (satellite: no stray real-clock reads in timeout logic).
  const auto poll = std::min(config_.interval,
                             std::chrono::microseconds{500});
  std::uint64_t last_round = obs::now_ns();
  while (!st.stop_requested()) {
    std::this_thread::sleep_for(poll);
    if (st.stop_requested()) return;
    const std::uint64_t vnow = obs::now_ns();
    if (vnow - last_round < interval_ns) continue;
    last_round = vnow;
    tick();
  }
}

void HeartbeatMonitor::tick() {
  const std::size_t n = directory_->node_count();
  const auto suspect_after_ns =
      static_cast<std::uint64_t>(std::chrono::duration_cast<
                                     std::chrono::nanoseconds>(
                                     config_.suspect_after)
                                     .count());
  // Probe: every live node pings every other live node. The probe itself
  // is its sender's sign of life — receipt refreshes last_alive through
  // the receiving node's recovery component.
  for (NodeId from = 0; from < n; ++from) {
    if (directory_->is_down(from)) continue;
    for (NodeId to = 0; to < n; ++to) {
      if (to == from || directory_->is_down(to)) continue;
      Message hb;
      hb.type = MsgType::kHeartbeat;
      hb.from = from;
      hb.to = to;
      hb.stamp = VectorClock(0);
      if (stats_ != nullptr) stats_->node(from).bump(Counter::kNetHeartbeat);
      if (stats_ != nullptr) {
        if (obs::Tracer* t = stats_->tracer(from)) {
          t->record(obs::TraceEventKind::kHeartbeat,
                    static_cast<std::uint8_t>(MsgType::kHeartbeat), to);
        }
      }
      transport_->send(std::move(hb));
    }
  }
  // Scan: anyone silent past the threshold is suspected. Probes sent just
  // above need a round trip before they count, so a node only trips the
  // threshold after missing several whole intervals.
  const std::uint64_t now = obs::now_ns();
  for (NodeId id = 0; id < n; ++id) {
    if (directory_->is_down(id)) continue;
    const std::uint64_t last = directory_->last_alive_ns(id);
    if (now - last > suspect_after_ns) {
      directory_->suspect(id, kNoNode);
    }
  }
}

}  // namespace causalmem
