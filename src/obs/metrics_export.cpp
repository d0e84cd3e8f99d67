#include "causalmem/obs/metrics_export.hpp"

#include <fstream>

#include "causalmem/net/message.hpp"
#include "causalmem/obs/json.hpp"

namespace causalmem::obs {

void RunMetrics::capture(const StatsRegistry& stats) {
  nodes.clear();
  nodes.reserve(stats.node_count());
  for (NodeId i = 0; i < stats.node_count(); ++i) {
    nodes.push_back(stats.node_snapshot(i));
  }
  for (std::size_t m = 0; m < kNumLatencyMetrics; ++m) {
    latency[m] = stats.latency_total(static_cast<LatencyMetric>(m));
  }
}

void RunMetrics::capture_trace(const TraceHub& hub) {
  has_trace = true;
  trace_retained = hub.events().size();
  trace_attempted = hub.attempted();
  trace_dropped = hub.dropped();
}

StatsSnapshot RunMetrics::totals() const {
  StatsSnapshot total;
  for (const auto& n : nodes) total += n;
  return total;
}

RunMetrics& MetricsExporter::add_run(std::string label) {
  runs_.push_back(std::make_unique<RunMetrics>());
  runs_.back()->label = std::move(label);
  return *runs_.back();
}

namespace {

void write_counters(JsonWriter& w, const StatsSnapshot& s) {
  w.begin_object();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (s.values[i] == 0) continue;
    w.key(counter_name(static_cast<Counter>(i))).value(s.values[i]);
  }
  w.end_object();
}

void write_histogram(JsonWriter& w, const HistogramSnapshot& h) {
  w.begin_object();
  w.key("count").value(h.count);
  w.key("sum").value(h.sum);
  w.key("max").value(h.max);
  w.key("mean").value(h.mean());
  w.key("p50").value(h.percentile(50.0));
  w.key("p90").value(h.percentile(90.0));
  w.key("p99").value(h.percentile(99.0));
  w.key("buckets").begin_array();
  for (std::size_t b = 0; b < HistogramSnapshot::kBucketCount; ++b) {
    if (h.buckets[b] == 0) continue;
    w.begin_array()
        .value(HistogramSnapshot::bucket_lower(b))
        .value(HistogramSnapshot::bucket_upper(b))
        .value(h.buckets[b])
        .end_array();
  }
  w.end_array();
  w.end_object();
}

void write_run(JsonWriter& w, const RunMetrics& run) {
  w.begin_object();
  w.key("label").value(run.label);
  w.key("params").begin_object();
  for (const auto& [k, v] : run.params) w.key(k).value(v);
  w.end_object();
  w.key("values").begin_object();
  for (const auto& [k, v] : run.values) w.key(k).value(v);
  w.end_object();

  const StatsSnapshot total = run.totals();
  w.key("totals").begin_object();
  w.key("messages_sent").value(total.messages_sent());
  w.key("counters");
  write_counters(w, total);
  w.end_object();

  w.key("nodes").begin_array();
  for (std::size_t i = 0; i < run.nodes.size(); ++i) {
    w.begin_object();
    w.key("node").value(static_cast<std::uint64_t>(i));
    w.key("messages_sent").value(run.nodes[i].messages_sent());
    w.key("counters");
    write_counters(w, run.nodes[i]);
    w.end_object();
  }
  w.end_array();

  w.key("latency").begin_object();
  for (std::size_t m = 0; m < kNumLatencyMetrics; ++m) {
    if (run.latency[m].count == 0) continue;
    w.key(latency_metric_name(static_cast<LatencyMetric>(m)));
    write_histogram(w, run.latency[m]);
  }
  w.end_object();

  if (run.has_trace) {
    w.key("trace").begin_object();
    w.key("retained").value(run.trace_retained);
    w.key("attempted").value(run.trace_attempted);
    w.key("dropped").value(run.trace_dropped);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::string MetricsExporter::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("causalmem-metrics-v1");
  w.key("benchmark").value(benchmark_);
  w.key("meta").begin_object();
  for (const auto& [k, v] : meta_) w.key(k).value(v);
  w.end_object();
  w.key("runs").begin_array();
  for (const auto& run : runs_) write_run(w, *run);
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

bool MetricsExporter::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string doc = to_json();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  out.put('\n');
  return static_cast<bool>(out.flush());
}

namespace {

/// Message-bearing kinds get the MsgType spelled into the event name so the
/// Perfetto timeline reads "send write_reply", not just "send".
bool kind_has_msg_type(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kSend:
    case TraceEventKind::kRecv:
    case TraceEventKind::kRetransmit:
    case TraceEventKind::kDupDrop:
    case TraceEventKind::kFaultDrop:
    case TraceEventKind::kFaultDup:
    case TraceEventKind::kFaultDelay:
      return true;
    default:
      return false;
  }
}

}  // namespace

void chrome_trace_begin(JsonWriter& w, std::size_t node_count) {
  w.begin_object();
  w.key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  // Process-name metadata: one "process" per node.
  for (std::size_t i = 0; i < node_count; ++i) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(static_cast<std::uint64_t>(i));
    w.key("tid").value(0);
    w.key("args").begin_object();
    w.key("name").value("node " + std::to_string(i));
    w.end_object();
    w.end_object();
  }
}

void chrome_trace_event(JsonWriter& w, const TraceEvent& ev) {
  std::string name = trace_event_kind_name(ev.kind);
  if (ev.msg_type != 0 && kind_has_msg_type(ev.kind)) {
    name += ' ';
    name += msg_type_name(static_cast<MsgType>(ev.msg_type));
  }
  w.begin_object();
  w.key("name").value(name);
  w.key("cat").value(ev.dur_ns != 0 ? "op" : "proto");
  w.key("pid").value(static_cast<std::uint64_t>(ev.node));
  w.key("tid").value(0);
  // Chrome trace timestamps are microseconds; fractional values keep the
  // nanosecond resolution.
  w.key("ts").value(static_cast<double>(ev.ts_ns) / 1000.0);
  if (ev.dur_ns != 0) {
    w.key("ph").value("X");
    w.key("dur").value(static_cast<double>(ev.dur_ns) / 1000.0);
  } else {
    w.key("ph").value("i");
    w.key("s").value("t");
  }
  w.key("args").begin_object();
  w.key("seq").value(ev.seq);
  if (ev.peer != kNoNode) {
    w.key("peer").value(static_cast<std::uint64_t>(ev.peer));
  }
  w.key("addr").value(static_cast<std::uint64_t>(ev.addr));
  // Exact numeric fields (the display ts/dur above are lossy microseconds):
  // these make the document a lossless serialization of the TraceEvent, so
  // trace_events_from_json can reload it for offline correlation.
  w.key("kind").value(static_cast<std::uint64_t>(ev.kind));
  if (ev.msg_type != 0) {
    w.key("msg_type").value(static_cast<std::uint64_t>(ev.msg_type));
  }
  if (ev.trace_id != 0) {
    w.key("trace_id").value(ev.trace_id);
  }
  w.key("ts_ns").value(ev.ts_ns);
  if (ev.dur_ns != 0) {
    w.key("dur_ns").value(ev.dur_ns);
  }
  if (!ev.vclock.empty()) {
    w.key("vt").begin_array();
    for (std::uint64_t c : ev.vclock) w.value(c);
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

std::string chrome_trace_end(JsonWriter&& w) {
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              std::size_t node_count) {
  JsonWriter w;
  chrome_trace_begin(w, node_count);
  for (const TraceEvent& ev : events) chrome_trace_event(w, ev);
  return chrome_trace_end(std::move(w));
}

bool write_chrome_trace(const std::string& path, const TraceHub& hub) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string doc = chrome_trace_json(hub.events(), hub.node_count());
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  out.put('\n');
  return static_cast<bool>(out.flush());
}

}  // namespace causalmem::obs
