// OpClock: when a DSM node's application operation reads the clock, and what
// it records when it completes. One policy for all three memory models.
//
// An operation that completes from its node's own memory (an owned or cached
// read, an owned write, a broadcast replica's read or write) reads the clock
// only when something consumes the reading: the node's tracer, whose
// read/write span carries dur_ns, or its OpObserver, which needs the
// real-time interval for the history. Such an operation records no
// lat.read_ns / lat.write_ns sample; read.hit and write.local count it.
// An operation that sends a request to an owner (or, on atomic memory, may
// wait out an owner's invalidation round) calls start() and is always timed,
// so those two histograms hold exactly the operations that waited on
// another node.
#pragma once

#include <cstdint>

#include "causalmem/dsm/observer.hpp"
#include "causalmem/obs/trace.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {

class OpClock {
 public:
  /// Begins an operation at the node whose counters are `stats`; `observer`
  /// is the node's OpObserver (null when none). Reads the clock only when a
  /// tracer or an observer is attached.
  OpClock(NodeStats& stats, const OpObserver* observer) noexcept
      : stats_(stats),
        tracer_(stats.tracer()),
        timed_(tracer_ != nullptr || observer != nullptr),
        start_ns_(timed_ ? OpTiming::now_ns() : 0) {}

  /// The node's tracer at the operation's start, or null (tracing off).
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Times the operation from here on, whatever is attached: it is about to
  /// wait on another node. Keeps the start of an already timed operation.
  void start() noexcept {
    if (!timed_) {
      timed_ = true;
      start_ns_ = OpTiming::now_ns();
    }
  }

  /// Start of a timed operation (see start()).
  [[nodiscard]] std::uint64_t start_ns() const noexcept { return start_ns_; }

  /// Completes an operation served from local memory: records its `kind`
  /// span when traced and returns the interval for the observer. Untimed,
  /// it reads no clock, records nothing and returns an empty interval.
  OpTiming local_done(obs::TraceEventKind kind, Addr x,
                      std::uint64_t trace_id = 0) const noexcept {
    if (!timed_) return {};
    const OpTiming done{start_ns_, OpTiming::now_ns()};
    trace_span(kind, x, done, trace_id);
    return done;
  }

  /// Completes an operation timed by start(): records its latency sample
  /// in `metric` and, when traced, its `kind` span.
  OpTiming timed_done(LatencyMetric metric, obs::TraceEventKind kind, Addr x,
                      std::uint64_t trace_id = 0) const noexcept {
    const OpTiming done{start_ns_, OpTiming::now_ns()};
    stats_.record_latency(metric, done.end_ns - done.start_ns);
    trace_span(kind, x, done, trace_id);
    return done;
  }

 private:
  void trace_span(obs::TraceEventKind kind, Addr x, const OpTiming& done,
                  std::uint64_t trace_id) const noexcept {
    if (tracer_ != nullptr) {
      tracer_->record(kind, 0, kNoNode, x, nullptr, done.start_ns,
                      done.end_ns - done.start_ns, trace_id);
    }
  }

  NodeStats& stats_;
  obs::Tracer* const tracer_;
  bool timed_;
  std::uint64_t start_ns_;
};

}  // namespace causalmem
