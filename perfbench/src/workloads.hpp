// The benchmark's workloads. Each run returns every metric it measured; the
// entry point (main.cpp) prints them and picks the end-to-end set (untraced run)
// or the per-layer set (traced run) for the result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causalmem/stats/counters.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string trace_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};  ///< wrong values, failed identities, bad verdicts
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;  ///< measured with tracing off
  std::vector<Metric> per_layer;   ///< filled by the traced run only
  std::vector<Metric> report;      ///< printed, never gated: tails, extras

  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 16) errors.push_back(std::move(why));
  }
};

/// The gated end-to-end metrics; every workload fills all of them.
struct EndToEnd {
  double ops_per_s{0};
  double remote_read_p50_us{0};
  double remote_read_p90_us{0};
  double remote_write_p50_us{0};
  double remote_write_p90_us{0};
  double msgs_per_op{0};
  double setup_s{0};
  double peak_rss_mb{0};
};

/// Protocol message types the causal owner protocol sends.
inline constexpr std::size_t kMsgTypes = 5;
inline constexpr const char* kMsgTypeNames[kMsgTypes] = {
    "read_request", "read_reply", "write_request", "write_reply", "inv_batch"};
inline constexpr causalmem::Counter kMsgTypeCounters[kMsgTypes] = {
    causalmem::Counter::kMsgReadRequest, causalmem::Counter::kMsgReadReply,
    causalmem::Counter::kMsgWriteRequest, causalmem::Counter::kMsgWriteReply,
    causalmem::Counter::kMsgInvalBatch};

/// The per-layer metrics reported by the traced run; every workload fills
/// all of them, with 0 for a layer it does not run (counts only).
struct Layers {
  double read_hit_ratio{0};
  double invalidations_per_op{0};
  double owner_rtt_p50_us{0};
  double msgs_per_op_by_type[kMsgTypes]{};
  double ctx_switches_per_op{0};
  double cpu_us_per_op{0};
  double wire_bytes_per_op{0};
  double wal_bytes_per_write{0};
  double syncs_per_write{0};
  double steps_per_op{0};
  double choices_per_step{0};
  double ctx_switches_per_step{0};
  double check_ns_per_op{0};
  double trace_overhead{0};
};

void emit(const EndToEnd& e, RunResult& out);
void emit(const Layers& l, RunResult& out);

/// Adds the p99 and, when at least ten samples lie beyond it, the p99.9 of
/// a latency distribution to the printed report.
/// `scale` divides nanoseconds into `unit`.
void report_tail(RunResult& out, const std::string& name, const LatencyHist& h,
                 double scale, const std::string& unit);

[[nodiscard]] bool is_threaded_workload(const std::string& name);
[[nodiscard]] RunResult run_threaded(const RunOptions& opt);
[[nodiscard]] RunResult run_sim(const RunOptions& opt);

}  // namespace perfbench
