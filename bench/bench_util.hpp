// Shared helpers for the benchmark harness: run the paper's workloads on a
// chosen memory implementation and collect wall-clock plus the categorized
// message counters that experiments E1/E8–E13 report.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "causalmem/apps/solver/solver.hpp"
#include "causalmem/dsm/atomic/node.hpp"
#include "causalmem/dsm/broadcast/node.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/obs/json.hpp"
#include "causalmem/obs/metrics_export.hpp"
#include "causalmem/stats/table.hpp"

namespace causalmem::bench {

struct SolverRunResult {
  SolverRun run;
  StatsSnapshot stats;
  /// Full per-node counters + merged latency histograms (+ trace summary
  /// when tracing was on), captured before the system was torn down. Benches
  /// copy this into a MetricsExporter run for --json output.
  obs::RunMetrics metrics;
  std::chrono::microseconds elapsed{0};

  /// The paper counts protocol messages; busy-wait re-fetches (a READ +
  /// R_REPLY pair per failed poll) are accounted separately and subtracted.
  [[nodiscard]] double effective_messages() const {
    return static_cast<double>(stats.messages_sent()) -
           2.0 * static_cast<double>(stats[Counter::kSpinRefetch]);
  }

  [[nodiscard]] double effective_per_worker_iter(std::size_t workers) const {
    return effective_messages() /
           static_cast<double>(workers * std::max<std::size_t>(run.iterations, 1));
  }
};

/// Runs the Fig. 6 solver on a fresh DsmSystem<NodeT>. When `trace_path` is
/// non-empty, tracing is enabled for the run and the Chrome-trace JSON
/// (Perfetto-loadable) is written there after the system quiesces.
template <typename NodeT>
SolverRunResult run_solver(const SolverProblem& problem, std::size_t iterations,
                           bool async = false,
                           typename NodeT::Config config = {},
                           SystemOptions options = {},
                           bool protect_constants = true,
                           const std::string& trace_path = {}) {
  if (!trace_path.empty()) options.trace.enabled = true;
  const SolverLayout layout(problem.n);
  DsmSystem<NodeT> sys(layout.node_count(), config, options,
                       layout.make_ownership());
  std::vector<SharedMemory*> mems;
  mems.reserve(layout.node_count());
  for (NodeId i = 0; i < layout.node_count(); ++i) {
    mems.push_back(&sys.memory(i));
  }
  SolverOptions opts;
  opts.protect_constants = protect_constants;
  if (async) {
    opts.iterations = 500000;
    opts.tolerance = 1e-8;
  } else {
    opts.iterations = iterations;
  }
  const auto start = std::chrono::steady_clock::now();
  SolverRunResult result;
  result.run = async ? run_async_solver(problem, layout, mems, opts)
                     : run_sync_solver(problem, layout, mems, opts);
  result.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  result.stats = sys.stats().total();
  result.metrics.capture(sys.stats());
  if (sys.trace_hub() != nullptr) {
    // Quiesce the tracer's writers (solver threads joined above; delivery
    // threads stop here) before draining the rings.
    sys.shutdown();
    result.metrics.capture_trace(*sys.trace_hub());
    if (!trace_path.empty() &&
        !obs::write_chrome_trace(trace_path, *sys.trace_hub())) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
      std::exit(1);
    }
  }
  return result;
}

inline LatencyModel latency_us(std::uint64_t micros) {
  LatencyModel m;
  m.base = std::chrono::microseconds(micros);
  return m;
}

/// Parses `--<flag> <value>` or `--<flag>=<value>` from argv; empty string
/// when absent. `flag` includes the leading dashes (e.g. "--json").
inline std::string parse_flag_value(int argc, char** argv,
                                    std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", std::string(flag).c_str());
        std::exit(1);
      }
      return argv[i + 1];
    }
    if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
        arg[flag.size()] == '=') {
      return std::string(arg.substr(flag.size() + 1));
    }
  }
  return {};
}

/// `--<flag> N` as an unsigned integer; `fallback` when absent.
inline std::uint64_t flag_or(int argc, char** argv, std::string_view flag,
                             std::uint64_t fallback) {
  const std::string v = parse_flag_value(argc, argv, flag);
  return v.empty() ? fallback : std::strtoull(v.c_str(), nullptr, 10);
}

/// Each run's `key` value by run label, from a committed metrics document
/// (the `--compare` baselines); runs without a numeric `key` are skipped.
/// Exits non-zero when the file is missing or does not parse.
inline std::vector<std::pair<std::string, double>> load_baseline(
    const std::string& path, std::string_view key) {
  std::vector<std::pair<std::string, double>> values;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = obs::parse_json(buf.str(), &error);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "baseline %s does not parse: %s\n", path.c_str(),
                 error.c_str());
    std::exit(1);
  }
  const obs::JsonValue* runs = doc->find("runs");
  if (runs == nullptr || !runs->is_array()) return values;
  for (const obs::JsonValue& run : runs->array) {
    const obs::JsonValue* label = run.find("label");
    const obs::JsonValue* run_values = run.find("values");
    if (label == nullptr || run_values == nullptr) continue;
    const obs::JsonValue* v = run_values->find(key);
    if (v != nullptr && v->is_number()) {
      values.emplace_back(label->string, v->number);
    }
  }
  return values;
}

/// `--json <path>`: where to write the machine-readable metrics document
/// (schema causalmem-metrics-v1); empty = no export.
inline std::string parse_json_path(int argc, char** argv) {
  return parse_flag_value(argc, argv, "--json");
}

/// Writes the exporter's document to `path` (when non-empty), exiting
/// non-zero on I/O failure so CI catches a broken export.
inline void maybe_write_metrics(const obs::MetricsExporter& exporter,
                                const std::string& path) {
  if (path.empty()) return;
  if (!exporter.write(path)) {
    std::fprintf(stderr, "failed to write metrics to %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("\nmetrics written to %s\n", path.c_str());
}

/// Parses `--drop-rate=X` (X in [0, 1]) from argv; 0 when absent, so the
/// default benchmark run stays on the fault-free fast path.
inline double parse_drop_rate(int argc, char** argv) {
  constexpr std::string_view kFlag = "--drop-rate=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.substr(0, kFlag.size()) == kFlag) {
      const double rate = std::strtod(arg.data() + kFlag.size(), nullptr);
      if (rate < 0.0 || rate > 1.0) {
        std::fprintf(stderr, "drop rate must be in [0, 1], got %s\n",
                     arg.data() + kFlag.size());
        std::exit(1);
      }
      return rate;
    }
  }
  return 0.0;
}

/// Applies the --drop-rate axis: a positive rate wraps the transport in
/// FaultyTransport(drop_rate) + ReliableChannel, so the measured workload
/// pays real recovery cost (visible in the net.* counters); rate 0 leaves
/// the options untouched — no extra layers, counters stay zero.
inline SystemOptions with_drop_rate(SystemOptions options, double drop_rate) {
  if (drop_rate > 0.0) {
    options.faults.drop_rate = drop_rate;
    options.reliable = true;
  }
  return options;
}

}  // namespace causalmem::bench
