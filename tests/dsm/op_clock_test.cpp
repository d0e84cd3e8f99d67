// When an application operation reads the clock (dsm/op_clock.hpp): an
// operation that completes from its node's own memory reads it only for an
// attached tracer or observer, and records no lat.read_ns / lat.write_ns
// sample; an operation that waits on another node is always timed. Pinned
// with a clock source that counts its readers, for all three memory models.
#include "causalmem/dsm/op_clock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "causalmem/dsm/atomic/node.hpp"
#include "causalmem/dsm/broadcast/node.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/obs/clock.hpp"

namespace causalmem {
namespace {

constexpr int kOps = 50;

/// Counts its readings; every reading is 1 µs after the previous one, so
/// an interval taken from it is never empty.
class CountingClock final : public obs::ClockSource {
 public:
  [[nodiscard]] std::uint64_t now_ns() noexcept override {
    return 1000 * (reads_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  [[nodiscard]] std::uint64_t reads() const noexcept {
    return reads_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> reads_{0};
};

/// Keeps every interval the node reports.
class IntervalObserver final : public OpObserver {
 public:
  void on_read(NodeId, Addr, Value, const WriteTag&,
               const OpTiming& t) override {
    std::scoped_lock lock(mu_);
    reads_.push_back(t);
  }
  void on_write(NodeId, Addr, Value, const WriteTag&, bool,
                const OpTiming& t) override {
    std::scoped_lock lock(mu_);
    writes_.push_back(t);
  }
  [[nodiscard]] std::vector<OpTiming> reads() {
    std::scoped_lock lock(mu_);
    return reads_;
  }
  [[nodiscard]] std::vector<OpTiming> writes() {
    std::scoped_lock lock(mu_);
    return writes_;
  }

 private:
  std::mutex mu_;
  std::vector<OpTiming> reads_;
  std::vector<OpTiming> writes_;
};

std::uint64_t samples(NodeStats& s, LatencyMetric m) {
  return s.latency(m).snapshot().count;
}

/// What one node recorded since a mark: clock readings, read/write
/// latency samples and the local-op counters.
struct Mark {
  Mark(const CountingClock& clock, NodeStats& stats)
      : clock_(clock),
        stats_(stats),
        reads_(clock.reads()),
        read_samples_(samples(stats, LatencyMetric::kReadNs)),
        write_samples_(samples(stats, LatencyMetric::kWriteNs)),
        hits_(stats.get(Counter::kReadHit)),
        local_writes_(stats.get(Counter::kWriteLocal)) {}

  [[nodiscard]] std::uint64_t clock_reads() const {
    return clock_.reads() - reads_;
  }
  [[nodiscard]] std::uint64_t read_samples() const {
    return samples(stats_, LatencyMetric::kReadNs) - read_samples_;
  }
  [[nodiscard]] std::uint64_t write_samples() const {
    return samples(stats_, LatencyMetric::kWriteNs) - write_samples_;
  }
  [[nodiscard]] std::uint64_t hits() const {
    return stats_.get(Counter::kReadHit) - hits_;
  }
  [[nodiscard]] std::uint64_t local_writes() const {
    return stats_.get(Counter::kWriteLocal) - local_writes_;
  }

 private:
  const CountingClock& clock_;
  NodeStats& stats_;
  std::uint64_t reads_;
  std::uint64_t read_samples_;
  std::uint64_t write_samples_;
  std::uint64_t hits_;
  std::uint64_t local_writes_;
};

/// kOps cache hits (address 1, owned by node 1 and already cached), owned
/// reads and owned writes (address 0) at node 0 of a causal system.
void run_local_causal_ops(SharedMemory& mem) {
  for (int k = 0; k < kOps; ++k) {
    EXPECT_EQ(mem.read(1), 7);
    (void)mem.read(0);
    mem.write(0, k);
  }
}

/// The span events of `kind` that node 0 recorded at addresses {0, 1}.
std::vector<obs::TraceEvent> spans(obs::TraceHub& hub,
                                   obs::TraceEventKind kind) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : hub.node(0).events()) {
    if (e.kind == kind && e.addr <= 1) out.push_back(e);
  }
  return out;
}

TEST(OpClock, CausalLocalOpsReadNoClockWithNothingAttached) {
  CountingClock clock;
  obs::ScopedClockSource scope(&clock);
  DsmSystem<CausalNode> sys(2);
  NodeStats& s0 = sys.stats().node(0);
  sys.memory(1).write(1, 7);

  // One miss is one owner round trip: one read sample, one RTT sample.
  EXPECT_EQ(sys.memory(0).read(1), 7);
  EXPECT_EQ(samples(s0, LatencyMetric::kReadNs), 1u);
  EXPECT_EQ(samples(s0, LatencyMetric::kOwnerRttNs), 1u);
  ASSERT_TRUE(sys.node(0).is_cached(1));

  const Mark mark(clock, s0);
  run_local_causal_ops(sys.memory(0));
  EXPECT_EQ(mark.clock_reads(), 0u);
  EXPECT_EQ(mark.read_samples(), 0u);
  EXPECT_EQ(mark.write_samples(), 0u);
  EXPECT_EQ(mark.hits(), 2u * kOps);
  EXPECT_EQ(mark.local_writes(), static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(s0.get(Counter::kReadMiss), 1u);

  // A remote write still waits on its owner: one sample.
  sys.memory(0).write(1, 8);
  EXPECT_EQ(samples(s0, LatencyMetric::kWriteNs), 1u);
}

TEST(OpClock, CausalLocalOpsKeepTheirTracedSpans) {
  CountingClock clock;
  obs::ScopedClockSource scope(&clock);
  SystemOptions opt;
  opt.trace.enabled = true;
  DsmSystem<CausalNode> sys(2, {}, opt);
  NodeStats& s0 = sys.stats().node(0);
  sys.memory(1).write(1, 7);
  EXPECT_EQ(sys.memory(0).read(1), 7);

  const Mark mark(clock, s0);
  const std::size_t reads_before =
      spans(*sys.trace_hub(), obs::TraceEventKind::kReadDone).size();
  run_local_causal_ops(sys.memory(0));
  EXPECT_GT(mark.clock_reads(), 0u);
  EXPECT_EQ(mark.read_samples(), 0u);
  EXPECT_EQ(mark.write_samples(), 0u);

  const auto read_spans =
      spans(*sys.trace_hub(), obs::TraceEventKind::kReadDone);
  const auto write_spans =
      spans(*sys.trace_hub(), obs::TraceEventKind::kWriteDone);
  ASSERT_EQ(read_spans.size(), reads_before + 2 * kOps);
  ASSERT_EQ(write_spans.size(), static_cast<std::size_t>(kOps));
  for (const obs::TraceEvent& e : write_spans) {
    EXPECT_GT(e.ts_ns, 0u);
    EXPECT_GT(e.dur_ns, 0u);  // two readings of a clock that always moves
  }
  for (std::size_t k = reads_before; k < read_spans.size(); ++k) {
    EXPECT_GT(read_spans[k].dur_ns, 0u);
  }
}

TEST(OpClock, CausalLocalOpsGiveTheObserverIntervals) {
  CountingClock clock;
  obs::ScopedClockSource scope(&clock);
  IntervalObserver observer;
  DsmSystem<CausalNode> sys(2, {}, {}, nullptr, &observer);
  NodeStats& s0 = sys.stats().node(0);
  sys.memory(1).write(1, 7);
  EXPECT_EQ(sys.memory(0).read(1), 7);

  const Mark mark(clock, s0);
  const std::size_t reads_before = observer.reads().size();
  const std::size_t writes_before = observer.writes().size();
  run_local_causal_ops(sys.memory(0));
  EXPECT_EQ(mark.read_samples(), 0u);
  EXPECT_EQ(mark.write_samples(), 0u);

  const auto reads = observer.reads();
  const auto writes = observer.writes();
  ASSERT_EQ(reads.size(), reads_before + 2 * kOps);
  ASSERT_EQ(writes.size(), writes_before + kOps);
  for (std::size_t k = reads_before; k < reads.size(); ++k) {
    EXPECT_GT(reads[k].start_ns, 0u);
    EXPECT_LE(reads[k].start_ns, reads[k].end_ns);
  }
  for (std::size_t k = writes_before; k < writes.size(); ++k) {
    EXPECT_GT(writes[k].start_ns, 0u);
    EXPECT_LE(writes[k].start_ns, writes[k].end_ns);
  }
}

TEST(OpClock, AtomicCacheHitReadsNoClockButOwnerOpsKeepSamples) {
  CountingClock clock;
  obs::ScopedClockSource scope(&clock);
  DsmSystem<AtomicNode> sys(2);
  NodeStats& s0 = sys.stats().node(0);
  sys.memory(1).write(1, 7);
  EXPECT_EQ(sys.memory(0).read(1), 7);  // miss: now cached
  EXPECT_EQ(samples(s0, LatencyMetric::kReadNs), 1u);

  const Mark hits(clock, s0);
  for (int k = 0; k < kOps; ++k) EXPECT_EQ(sys.memory(0).read(1), 7);
  EXPECT_EQ(hits.clock_reads(), 0u);
  EXPECT_EQ(hits.read_samples(), 0u);
  EXPECT_EQ(hits.hits(), static_cast<std::uint64_t>(kOps));

  // An owner's read and write can wait out an invalidation round.
  const Mark owned(clock, s0);
  (void)sys.memory(0).read(0);
  sys.memory(0).write(0, 3);
  EXPECT_EQ(owned.read_samples(), 1u);
  EXPECT_EQ(owned.write_samples(), 1u);
}

TEST(OpClock, AtomicCacheHitGivesTheObserverAnInterval) {
  CountingClock clock;
  obs::ScopedClockSource scope(&clock);
  IntervalObserver observer;
  DsmSystem<AtomicNode> sys(2, {}, {}, nullptr, &observer);
  sys.memory(1).write(1, 7);
  EXPECT_EQ(sys.memory(0).read(1), 7);

  const Mark mark(clock, sys.stats().node(0));
  const std::size_t before = observer.reads().size();
  for (int k = 0; k < kOps; ++k) EXPECT_EQ(sys.memory(0).read(1), 7);
  EXPECT_EQ(mark.read_samples(), 0u);
  const auto reads = observer.reads();
  ASSERT_EQ(reads.size(), before + kOps);
  for (std::size_t k = before; k < reads.size(); ++k) {
    EXPECT_GT(reads[k].start_ns, 0u);
    EXPECT_LE(reads[k].start_ns, reads[k].end_ns);
  }
}

TEST(OpClock, BroadcastOpsReadNoClockWithNothingAttached) {
  CountingClock clock;
  obs::ScopedClockSource scope(&clock);
  DsmSystem<BroadcastNode> sys(2);
  NodeStats& s0 = sys.stats().node(0);
  const Mark mark(clock, s0);
  for (int k = 0; k < kOps; ++k) {
    sys.memory(0).write(0, k);
    EXPECT_EQ(sys.memory(0).read(0), k);
  }
  wait_broadcast_quiescent(sys);
  EXPECT_EQ(mark.clock_reads(), 0u);
  EXPECT_EQ(mark.read_samples(), 0u);
  EXPECT_EQ(mark.write_samples(), 0u);
  EXPECT_EQ(mark.hits(), static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(mark.local_writes(), static_cast<std::uint64_t>(kOps));
}

TEST(OpClock, BroadcastOpsKeepSpansAndObserverIntervals) {
  CountingClock clock;
  obs::ScopedClockSource scope(&clock);
  IntervalObserver observer;
  SystemOptions opt;
  opt.trace.enabled = true;
  DsmSystem<BroadcastNode> sys(2, {}, opt, nullptr, &observer);
  const Mark mark(clock, sys.stats().node(0));
  for (int k = 0; k < kOps; ++k) {
    sys.memory(0).write(0, k);
    EXPECT_EQ(sys.memory(0).read(0), k);
  }
  wait_broadcast_quiescent(sys);
  EXPECT_EQ(mark.read_samples(), 0u);
  EXPECT_EQ(mark.write_samples(), 0u);

  const auto read_spans =
      spans(*sys.trace_hub(), obs::TraceEventKind::kReadDone);
  const auto write_spans =
      spans(*sys.trace_hub(), obs::TraceEventKind::kWriteDone);
  ASSERT_EQ(read_spans.size(), static_cast<std::size_t>(kOps));
  ASSERT_EQ(write_spans.size(), static_cast<std::size_t>(kOps));
  for (const auto* list : {&read_spans, &write_spans}) {
    for (const obs::TraceEvent& e : *list) EXPECT_GT(e.dur_ns, 0u);
  }
  const auto reads = observer.reads();
  const auto writes = observer.writes();
  ASSERT_EQ(reads.size(), static_cast<std::size_t>(kOps));
  ASSERT_EQ(writes.size(), static_cast<std::size_t>(kOps));
  for (const auto* list : {&reads, &writes}) {
    for (const OpTiming& t : *list) {
      EXPECT_GT(t.start_ns, 0u);
      EXPECT_LE(t.start_ns, t.end_ns);
    }
  }
}

}  // namespace
}  // namespace causalmem
