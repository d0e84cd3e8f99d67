// Machine-readable metrics export: one JSON document per benchmark run
// (schema "causalmem-metrics-v1") carrying per-node counters, merged latency
// histograms, run parameters and a trace summary — plus a Chrome-trace /
// Perfetto JSON writer for the event tracer, so a protocol run can be opened
// in ui.perfetto.dev and read alongside the paper's message-count tables.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "causalmem/obs/histogram.hpp"
#include "causalmem/obs/trace.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem::obs {

class JsonWriter;

/// Everything measured about one run (one table row) of a benchmark:
/// configuration parameters, derived scalar results, per-node counter
/// snapshots, merged latency histograms and the tracer's summary.
struct RunMetrics {
  std::string label;

  /// Run configuration knobs, in insertion order (e.g. nodes, iterations).
  std::vector<std::pair<std::string, double>> params;

  /// Derived scalar results, in insertion order (e.g. msgs/node/iter).
  std::vector<std::pair<std::string, double>> values;

  /// Counter snapshot of each node, indexed by NodeId.
  std::vector<StatsSnapshot> nodes;

  /// Latency histograms merged over all nodes, indexed by LatencyMetric.
  std::array<HistogramSnapshot, kNumLatencyMetrics> latency{};

  bool has_trace{false};
  std::uint64_t trace_retained{0};   ///< events still in the ring buffers
  std::uint64_t trace_attempted{0};  ///< record() calls over the whole run
  std::uint64_t trace_dropped{0};    ///< events lost to slot contention

  void set_param(std::string name, double v) {
    params.emplace_back(std::move(name), v);
  }
  void set_value(std::string name, double v) {
    values.emplace_back(std::move(name), v);
  }

  /// Captures per-node counters and merged latency histograms. Call before
  /// the system (and its StatsRegistry) is destroyed.
  void capture(const StatsRegistry& stats);

  /// Captures the trace summary (writers must be quiescent).
  void capture_trace(const TraceHub& hub);

  /// Sum of all nodes' counters.
  [[nodiscard]] StatsSnapshot totals() const;
};

/// Accumulates runs and renders the final JSON document. Runs are held by
/// pointer so `add_run` hands back a reference that stays valid as more runs
/// are added.
class MetricsExporter {
 public:
  explicit MetricsExporter(std::string benchmark)
      : benchmark_(std::move(benchmark)) {}

  /// Free-form string metadata (e.g. memory model, transport) for the
  /// document header.
  void set_meta(std::string key, std::string value) {
    meta_.emplace_back(std::move(key), std::move(value));
  }

  /// Appends a run and returns a stable reference for the caller to fill.
  RunMetrics& add_run(std::string label);

  [[nodiscard]] std::size_t run_count() const noexcept { return runs_.size(); }
  [[nodiscard]] const RunMetrics& run(std::size_t i) const { return *runs_[i]; }

  /// The full document as compact JSON.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::string benchmark_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::unique_ptr<RunMetrics>> runs_;
};

/// Renders events as a Chrome-trace JSON object ({"traceEvents": [...]}) that
/// Perfetto and chrome://tracing load directly: one "process" per node,
/// instant events for point events, complete ("X") events for spans. Each
/// event's args carry the numeric kind/msg_type/trace_id/ts_ns/dur_ns fields
/// so correlate.hpp's trace_events_from_json can reload the file losslessly.
[[nodiscard]] std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                                            std::size_t node_count);

/// Streaming pieces of chrome_trace_json, for writers that append extra
/// records into the same traceEvents array (the TraceCorrelator uses them to
/// interleave flow-arrow records with the events). Usage:
///   JsonWriter w; chrome_trace_begin(w, n);
///   for (ev : events) chrome_trace_event(w, ev);
///   ... extra records ...
///   std::string doc = chrome_trace_end(std::move(w));
void chrome_trace_begin(JsonWriter& w, std::size_t node_count);
void chrome_trace_event(JsonWriter& w, const TraceEvent& ev);
[[nodiscard]] std::string chrome_trace_end(JsonWriter&& w);

/// Drains `hub` (writers must be quiescent) and writes the Chrome-trace JSON
/// to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const TraceHub& hub);

}  // namespace causalmem::obs
