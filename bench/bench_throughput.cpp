// Hot-path throughput: millions of mixed read/write operations driven by
// concurrent application threads across the nodes of a DsmSystem<CausalNode>.
// This is the benchmark behind the BENCH_*.json perf trajectory (see
// docs/PERFORMANCE.md): every scenario reports ops/sec, and --compare diffs
// the rates against a previously committed snapshot so a regression (or an
// optimization claim) is a number, not an anecdote.
//
// Scenarios:
//   local          100% node-local traffic — the allocation-free fast path
//                  (no protocol messages at all).
//   mixed          the headline: --remote-pct of operations target another
//                  node's locations (READ/W + reply round trips, cache fills,
//                  invalidations), codec exercised on every message.
//   mixed_reliable mixed, with the ReliableChannel (seq/ack/retransmit
//                  bookkeeping) on the path — fault-free, so any cost is
//                  pure channel overhead.
//   mixed_traced   mixed, with the per-node trace rings enabled — the delta
//                  against mixed is the full cost of always-on tracing.
//
// The binary self-validates: the metrics document it emits must parse with
// obs::parse_json and contain an ops_per_sec value per scenario, or the
// process exits non-zero. CI runs a tiny --ops version of this as a smoke
// test via ctest (bench_throughput_smoke).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/obs/json.hpp"

using namespace causalmem;
using namespace causalmem::bench;

namespace {

struct Shape {
  std::size_t nodes{4};
  std::size_t threads_per_node{2};
  std::uint64_t total_ops{400000};
  std::uint64_t remote_pct{30};  ///< % of ops targeting another node's data
  std::uint64_t read_pct{50};    ///< % of ops that are reads
  std::uint64_t slots_per_node{64};  ///< distinct locations owned per node
};

struct ScenarioResult {
  double ops_per_sec{0.0};
  std::chrono::microseconds elapsed{0};
  std::uint64_t messages{0};
  obs::RunMetrics metrics;
};

/// Runs one scenario: spawn nodes*threads_per_node app threads, each issuing
/// its share of the mixed workload, and time the whole thing wall-clock.
ScenarioResult run_scenario(const Shape& s, const SystemOptions& options) {
  DsmSystem<CausalNode> sys(s.nodes, {}, options);

  // Pre-populate every slot with a local write so the timed loop reads real
  // values and the owner maps are warm.
  for (NodeId i = 0; i < s.nodes; ++i) {
    for (std::uint64_t k = 0; k < s.slots_per_node; ++k) {
      sys.memory(i).write(i + s.nodes * k, 1);
    }
  }

  const std::size_t n_threads = s.nodes * s.threads_per_node;
  const std::uint64_t per_thread = s.total_ops / n_threads;
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<Value> sink{0};

  std::vector<std::jthread> workers;
  workers.reserve(n_threads);
  for (NodeId i = 0; i < s.nodes; ++i) {
    for (std::size_t t = 0; t < s.threads_per_node; ++t) {
      workers.emplace_back([&, i, t] {
        SharedMemory& mem = sys.memory(i);
        Rng rng(0x6A09E667F3BCC909ULL + i * 131 + t);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        Value acc = 0;
        Value next = 2;
        for (std::uint64_t op = 0; op < per_thread; ++op) {
          NodeId target = i;
          if (s.nodes > 1 && rng.next_below(100) < s.remote_pct) {
            target = static_cast<NodeId>(
                (i + 1 + rng.next_below(s.nodes - 1)) % s.nodes);
          }
          const Addr a = target + s.nodes * rng.next_below(s.slots_per_node);
          if (rng.next_below(100) < s.read_pct) {
            acc += mem.read(a);
          } else {
            mem.write(a, next++);
          }
        }
        sink.fetch_add(acc);
      });
    }
  }
  while (ready.load() < n_threads) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  workers.clear();  // join
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);

  ScenarioResult result;
  result.elapsed = elapsed;
  const std::uint64_t done = per_thread * n_threads;
  result.ops_per_sec = static_cast<double>(done) /
                       (static_cast<double>(elapsed.count()) * 1e-6);
  result.metrics.capture(sys.stats());
  result.messages = sys.stats().total().messages_sent();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Shape shape;
  shape.nodes = flag_or(argc, argv, "--nodes", shape.nodes);
  shape.threads_per_node = flag_or(argc, argv, "--threads", shape.threads_per_node);
  shape.total_ops = flag_or(argc, argv, "--ops", shape.total_ops);
  shape.remote_pct = flag_or(argc, argv, "--remote-pct", shape.remote_pct);
  shape.read_pct = flag_or(argc, argv, "--read-pct", shape.read_pct);
  shape.slots_per_node = flag_or(argc, argv, "--slots", shape.slots_per_node);
  const std::string json_path = parse_json_path(argc, argv);
  const std::string compare_path = parse_flag_value(argc, argv, "--compare");

  std::printf(
      "throughput: %zu nodes x %zu threads, %llu ops total "
      "(%llu%% remote, %llu%% reads, %llu slots/node)\n\n",
      shape.nodes, shape.threads_per_node,
      static_cast<unsigned long long>(shape.total_ops),
      static_cast<unsigned long long>(shape.remote_pct),
      static_cast<unsigned long long>(shape.read_pct),
      static_cast<unsigned long long>(shape.slots_per_node));

  obs::MetricsExporter exporter("bench_throughput");
  exporter.set_meta("workload", "mixed_read_write");

  struct Scenario {
    const char* label;
    Shape shape;
    SystemOptions options;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario local{"local", shape, {}};
    local.shape.remote_pct = 0;
    local.options.exercise_codec = true;
    scenarios.push_back(local);

    Scenario mixed{"mixed", shape, {}};
    mixed.options.exercise_codec = true;
    scenarios.push_back(mixed);

    Scenario rel{"mixed_reliable", shape, {}};
    rel.options.exercise_codec = true;
    rel.options.reliable = true;
    scenarios.push_back(rel);

    // mixed with the tracer rings live: the delta between this row and
    // "mixed" is the whole cost of always-on tracing (ring writes + trace-id
    // minting on every protocol message). docs/PERFORMANCE.md tracks it.
    Scenario traced{"mixed_traced", shape, {}};
    traced.options.exercise_codec = true;
    traced.options.trace.enabled = true;
    scenarios.push_back(traced);
  }

  Table table({"scenario", "ops/sec", "elapsed ms", "messages"});
  for (const Scenario& sc : scenarios) {
    const ScenarioResult r = run_scenario(sc.shape, sc.options);
    table.add_row({sc.label, Table::num(r.ops_per_sec, 0),
                   Table::num(static_cast<double>(r.elapsed.count()) / 1000.0, 1),
                   std::to_string(r.messages)});
    obs::RunMetrics& rm = exporter.add_run(sc.label);
    rm = r.metrics;
    rm.label = sc.label;
    rm.set_param("nodes", static_cast<double>(sc.shape.nodes));
    rm.set_param("threads_per_node",
                 static_cast<double>(sc.shape.threads_per_node));
    rm.set_param("total_ops", static_cast<double>(sc.shape.total_ops));
    rm.set_param("remote_pct", static_cast<double>(sc.shape.remote_pct));
    rm.set_param("read_pct", static_cast<double>(sc.shape.read_pct));
    rm.set_param("slots_per_node",
                 static_cast<double>(sc.shape.slots_per_node));
    rm.set_value("ops_per_sec", r.ops_per_sec);
    rm.set_value("elapsed_us", static_cast<double>(r.elapsed.count()));
    rm.set_value("messages", static_cast<double>(r.messages));
  }
  table.print(std::cout);

  // Self-validation: the emitted document must parse and carry one
  // ops_per_sec per scenario — this is what the ctest smoke run asserts.
  {
    std::string error;
    const auto doc = obs::parse_json(exporter.to_json(), &error);
    if (!doc) {
      std::fprintf(stderr, "FATAL: emitted metrics do not parse: %s\n",
                   error.c_str());
      return 1;
    }
    const obs::JsonValue* runs = doc->find("runs");
    if (runs == nullptr || !runs->is_array() ||
        runs->array.size() != scenarios.size()) {
      std::fprintf(stderr, "FATAL: metrics document missing runs\n");
      return 1;
    }
    for (const obs::JsonValue& run : runs->array) {
      const obs::JsonValue* values = run.find("values");
      const obs::JsonValue* ops =
          values != nullptr ? values->find("ops_per_sec") : nullptr;
      if (ops == nullptr || !ops->is_number() || !(ops->number > 0.0)) {
        std::fprintf(stderr, "FATAL: run missing positive ops_per_sec\n");
        return 1;
      }
    }
    std::printf("\nmetrics self-check: OK (%zu runs)\n", runs->array.size());
  }

  if (!compare_path.empty()) {
    const auto baseline = load_baseline(compare_path, "ops_per_sec");
    std::printf("\nvs baseline %s:\n", compare_path.c_str());
    bool regressed = false;
    for (std::size_t i = 0; i < exporter.run_count(); ++i) {
      const obs::RunMetrics& rm = exporter.run(i);
      for (const auto& [label, base_rate] : baseline) {
        if (label != rm.label) continue;
        double now_rate = 0.0;
        for (const auto& [k, v] : rm.values) {
          if (k == "ops_per_sec") now_rate = v;
        }
        const double ratio = now_rate / base_rate;
        std::printf("  %-16s %12.0f -> %12.0f ops/sec  (%.2fx)\n",
                    label.c_str(), base_rate, now_rate, ratio);
        // Lenient gate: CI hardware varies run to run, so only flag a
        // collapse, not noise. 0.5x against the committed snapshot means
        // something real broke.
        if (ratio < 0.5) regressed = true;
      }
    }
    if (regressed) {
      std::fprintf(stderr,
                   "FATAL: throughput regressed more than 2x vs baseline\n");
      return 1;
    }
  }

  maybe_write_metrics(exporter, json_path);
  return 0;
}
