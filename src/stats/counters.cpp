#include "causalmem/stats/counters.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string_view>

namespace causalmem {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kMsgReadRequest: return "msg.read_request";
    case Counter::kMsgReadReply: return "msg.read_reply";
    case Counter::kMsgWriteRequest: return "msg.write_request";
    case Counter::kMsgWriteReply: return "msg.write_reply";
    case Counter::kMsgInvalidate: return "msg.invalidate";
    case Counter::kMsgInvalidateAck: return "msg.invalidate_ack";
    case Counter::kMsgBroadcast: return "msg.broadcast";
    case Counter::kReadHit: return "read.hit";
    case Counter::kReadMiss: return "read.miss";
    case Counter::kWriteLocal: return "write.local";
    case Counter::kWriteRemote: return "write.remote";
    case Counter::kInvalidationApplied: return "cache.invalidated";
    case Counter::kDiscard: return "cache.discarded";
    case Counter::kStaleInstallSkipped: return "cache.stale_install_skipped";
    case Counter::kSpinRefetch: return "spin.refetch";
    case Counter::kSpinTransition: return "spin.transition";
    case Counter::kNetRetransmit: return "net.retransmit";
    case Counter::kNetDupDropped: return "net.dup_dropped";
    case Counter::kNetAckSent: return "net.ack";
    case Counter::kNetFaultDrop: return "net.fault_drop";
    case Counter::kNetFaultDup: return "net.fault_dup";
    case Counter::kNetFaultDelay: return "net.fault_delay";
    case Counter::kNetSendFailed: return "net.send_failed";
    case Counter::kNetFrameError: return "net.frame_error";
    case Counter::kNetHeartbeat: return "net.heartbeat";
    case Counter::kNetPeerUnreachable: return "net.peer_unreachable";
    case Counter::kNetOutOfWindow: return "net.out_of_window";
    case Counter::kFoSuspect: return "fo.suspect";
    case Counter::kFoFailover: return "fo.failover";
    case Counter::kFoRecoverRequest: return "fo.recover_request";
    case Counter::kFoRecoverReply: return "fo.recover_reply";
    case Counter::kFoRecoverCopy: return "fo.recover_copy";
    case Counter::kFoSyncRequest: return "fo.sync_request";
    case Counter::kFoSyncReply: return "fo.sync_reply";
    case Counter::kFoRequestTimeout: return "fo.request_timeout";
    case Counter::kFoUnreachable: return "fo.unreachable";
    case Counter::kPersistWalAppend: return "persist.wal_append";
    case Counter::kPersistWalReplayed: return "persist.wal_replayed";
    case Counter::kPersistWalTruncated: return "persist.wal_truncated";
    case Counter::kPersistCheckpoint: return "persist.checkpoint";
    case Counter::kPersistCkptRejected: return "persist.ckpt_rejected";
    case Counter::kPersistRestoredCells: return "persist.restored_cells";
    case Counter::kMsgInvalBatch: return "msg.inval_batch";
    case Counter::kShardSubscribe: return "copyset.subscribe";
    case Counter::kShardUnsubscribe: return "copyset.unsubscribe";
    case Counter::kShardInvalQueued: return "shard.inval_queued";
    case Counter::kShardInvalPiggybacked: return "shard.inval_piggybacked";
    case Counter::kShardInvalApplied: return "shard.inval_applied";
    case Counter::kCounterCount: break;
  }
  return "unknown";
}

const char* latency_metric_name(LatencyMetric m) noexcept {
  switch (m) {
    case LatencyMetric::kReadNs: return "lat.read_ns";
    case LatencyMetric::kWriteNs: return "lat.write_ns";
    case LatencyMetric::kOwnerRttNs: return "lat.owner_rtt_ns";
    case LatencyMetric::kRetransmitDelayNs: return "lat.retransmit_delay_ns";
    case LatencyMetric::kMetricCount: break;
  }
  return "unknown";
}

std::uint64_t StatsSnapshot::messages_sent() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (is_message_counter(static_cast<Counter>(i))) total += values[i];
  }
  return total;
}

StatsSnapshot& StatsSnapshot::operator+=(const StatsSnapshot& other) noexcept {
  for (std::size_t i = 0; i < kNumCounters; ++i) values[i] += other.values[i];
  return *this;
}

StatsSnapshot operator-(StatsSnapshot lhs, const StatsSnapshot& rhs) noexcept {
  for (std::size_t i = 0; i < kNumCounters; ++i) lhs.values[i] -= rhs.values[i];
  return lhs;
}

std::string StatsSnapshot::to_string() const {
  // Two sections: protocol counters, then transport-recovery (net.*) cost.
  // E1's accounting keeps those separate, and so does the rendering.
  std::size_t name_w = 0;
  std::size_t value_w = 1;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (values[i] == 0) continue;
    name_w = std::max(
        name_w, std::string_view(counter_name(static_cast<Counter>(i))).size());
    value_w = std::max(value_w, std::to_string(values[i]).size());
  }
  std::ostringstream oss;
  const auto emit_section = [&](bool recovery, const char* header) {
    bool any = false;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      const auto c = static_cast<Counter>(i);
      if (values[i] == 0 || is_recovery_counter(c) != recovery) continue;
      if (!any && header != nullptr) oss << header << "\n";
      any = true;
      oss << std::left << std::setw(static_cast<int>(name_w))
          << counter_name(c) << " = " << std::right
          << std::setw(static_cast<int>(value_w)) << values[i] << "\n";
    }
  };
  emit_section(/*recovery=*/false, nullptr);
  emit_section(/*recovery=*/true, "-- recovery (net.*) --");
  return oss.str();
}

}  // namespace causalmem
