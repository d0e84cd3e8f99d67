// Scale grid for the sharded copyset layer: nodes x addresses-per-group x
// write-ratio, each cell one deterministic simulated execution (SimScheduler
// + run_causal_scenario) with hash-ring ownership, copysets and push
// invalidation enabled, and bounded sharing groups so every copyset is
// capped at the group size regardless of n.
//
// The headline column is msgs/op: with copyset-scoped invalidation it must
// stay flat as the node count grows (per-write message cost O(|copyset|),
// not O(n)). Because the whole execution is virtual-time deterministic, the
// message metrics are bit-stable run to run — so unlike the wall-clock
// benches, --compare gates EXACTLY: every cell's message count must equal
// the committed snapshot's (bench/BENCH_10.json). A change that means to
// move a count re-commits the snapshot. Wall-clock sim throughput is
// reported for trend-watching only.
//
// The node axis is 16, 64, 256 and 1,024; --max-nodes (default 256) caps
// it, so --max-nodes 1024 adds the four 1,024-node cells.
//
// Every cell's history is also checked with check_consistency(); an
// inconsistent execution exits non-zero (a benchmark that got faster by
// dropping safety is not faster).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/obs/json.hpp"
#include "causalmem/sim/scenarios.hpp"

using namespace causalmem;
using namespace causalmem::bench;

namespace {

/// Fixed sharing-group size: the copyset bound (see docs/SHARDING.md).
constexpr std::size_t kGroupSize = 4;

struct Cell {
  std::size_t nodes;
  std::size_t addrs_per_group;
  std::uint64_t write_pct;
};

struct CellResult {
  double ops_per_sec{0.0};
  double msgs_per_op{0.0};
  double invals_per_write{0.0};
  std::uint64_t messages{0};
  std::uint64_t ops{0};
  std::chrono::microseconds elapsed{0};
  obs::RunMetrics metrics;
};

std::string cell_label(const Cell& c) {
  return "n" + std::to_string(c.nodes) + "_a" +
         std::to_string(c.addrs_per_group) + "_w" +
         std::to_string(c.write_pct);
}

CellResult run_cell(const Cell& c, std::size_t ops_per_node,
                    std::uint64_t seed) {
  sim::CausalScenarioConfig cfg;
  cfg.nodes = c.nodes;
  cfg.sharding = true;
  cfg.config.copysets = true;
  cfg.config.push_invalidation = true;
  cfg.trace = false;
  cfg.scripts.resize(c.nodes);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + c.nodes + c.write_pct);
  for (NodeId p = 0; p < c.nodes; ++p) {
    const Addr base =
        static_cast<Addr>((p / kGroupSize) * c.addrs_per_group);
    for (std::size_t i = 0; i < ops_per_node; ++i) {
      const Addr a =
          base + static_cast<Addr>(rng.next_below(c.addrs_per_group));
      if (rng.next_below(100) < c.write_pct) {
        cfg.scripts[p].push_back(
            sim::ScriptOp::write(a, static_cast<Value>(rng.next() >> 8)));
      } else {
        cfg.scripts[p].push_back(sim::ScriptOp::read(a));
      }
    }
  }

  sim::ScenarioOutcome out;
  sim::RandomWalkStrategy walk(seed);
  const auto start = std::chrono::steady_clock::now();
  const sim::ExecutionResult res = sim::run_causal_scenario(cfg, walk, &out);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  if (!res.report.ok()) {
    std::fprintf(stderr, "FATAL: %s did not complete: %s\n",
                 cell_label(c).c_str(), res.report.error.c_str());
    std::exit(1);
  }
  if (!res.consistent) {
    std::fprintf(stderr, "FATAL: %s is not causally consistent: %s\n",
                 cell_label(c).c_str(), res.violation.c_str());
    std::exit(1);
  }

  CellResult r;
  r.elapsed = elapsed;
  r.ops = static_cast<std::uint64_t>(c.nodes) * ops_per_node;
  r.messages = out.totals.messages_sent();
  r.msgs_per_op =
      static_cast<double>(r.messages) / static_cast<double>(r.ops);
  const std::uint64_t writes = out.totals[Counter::kWriteLocal] +
                               out.totals[Counter::kWriteRemote];
  r.invals_per_write =
      writes == 0 ? 0.0
                  : static_cast<double>(
                        out.totals[Counter::kShardInvalQueued]) /
                        static_cast<double>(writes);
  r.ops_per_sec = static_cast<double>(r.ops) /
                  (static_cast<double>(elapsed.count()) * 1e-6);
  r.metrics.label = cell_label(c);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t ops_per_node =
      static_cast<std::size_t>(flag_or(argc, argv, "--ops", 16));
  const std::size_t max_nodes =
      static_cast<std::size_t>(flag_or(argc, argv, "--max-nodes", 256));
  const std::string json_path = parse_json_path(argc, argv);
  const std::string compare_path = parse_flag_value(argc, argv, "--compare");

  std::vector<Cell> grid;
  // Seeds follow grid order. The axis ascends and --max-nodes cuts only its
  // tail, so every cell keeps its seed whatever the cap.
  for (const std::size_t nodes : {std::size_t{16}, std::size_t{64},
                                  std::size_t{256}, std::size_t{1024}}) {
    if (nodes > max_nodes) continue;
    for (const std::size_t addrs : {std::size_t{4}, std::size_t{16}}) {
      for (const std::uint64_t wpct : {std::uint64_t{20}, std::uint64_t{50}}) {
        grid.push_back(Cell{nodes, addrs, wpct});
      }
    }
  }

  std::printf("scale grid: %zu cells, %zu ops/node, sharing groups of %zu\n\n",
              grid.size(), ops_per_node, kGroupSize);

  obs::MetricsExporter exporter("bench_scale");
  exporter.set_meta("workload", "sharded_group_random_walk");

  Table table({"cell", "msgs/op", "invals/write", "messages", "sim ops/sec",
               "elapsed ms"});
  std::uint64_t seed = 40;
  for (const Cell& c : grid) {
    const CellResult r = run_cell(c, ops_per_node, ++seed);
    table.add_row({cell_label(c), Table::num(r.msgs_per_op, 3),
                   Table::num(r.invals_per_write, 3),
                   std::to_string(r.messages), Table::num(r.ops_per_sec, 0),
                   Table::num(static_cast<double>(r.elapsed.count()) / 1000.0,
                              1)});
    obs::RunMetrics& rm = exporter.add_run(cell_label(c));
    rm.label = cell_label(c);
    rm.set_param("nodes", static_cast<double>(c.nodes));
    rm.set_param("addrs_per_group", static_cast<double>(c.addrs_per_group));
    rm.set_param("write_pct", static_cast<double>(c.write_pct));
    rm.set_param("group_size", static_cast<double>(kGroupSize));
    rm.set_param("ops_per_node", static_cast<double>(ops_per_node));
    rm.set_value("msgs_per_op", r.msgs_per_op);
    rm.set_value("invals_per_write", r.invals_per_write);
    rm.set_value("messages", static_cast<double>(r.messages));
    rm.set_value("ops_per_sec", r.ops_per_sec);
    rm.set_value("elapsed_us", static_cast<double>(r.elapsed.count()));
  }
  table.print(std::cout);

  // Self-validation: the document must parse and carry a positive
  // msgs_per_op per cell (what the ctest smoke run asserts).
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
        runs->array.size() != grid.size()) {
      std::fprintf(stderr, "FATAL: metrics document missing runs\n");
      return 1;
    }
    for (const obs::JsonValue& run : runs->array) {
      const obs::JsonValue* values = run.find("values");
      const obs::JsonValue* mpo =
          values != nullptr ? values->find("msgs_per_op") : nullptr;
      if (mpo == nullptr || !mpo->is_number() || !(mpo->number > 0.0)) {
        std::fprintf(stderr, "FATAL: run missing positive msgs_per_op\n");
        return 1;
      }
    }
    std::printf("\nmetrics self-check: OK (%zu cells)\n", runs->array.size());
  }

  if (!compare_path.empty()) {
    const auto baseline = load_baseline(compare_path, "messages");
    std::printf("\nvs baseline %s:\n", compare_path.c_str());
    std::size_t changed = 0;
    for (std::size_t i = 0; i < exporter.run_count(); ++i) {
      const obs::RunMetrics& rm = exporter.run(i);
      for (const auto& [label, base] : baseline) {
        if (label != rm.label) continue;
        double now = 0.0;
        for (const auto& [k, v] : rm.values) {
          if (k == "messages") now = v;
        }
        // Exact gate: the simulated execution is deterministic, so its
        // message count moves only when the protocol does, in either
        // direction. (Only labels both grids hold are compared.)
        const bool same = now == base;
        if (!same) ++changed;
        std::printf("  %-14s %8.0f -> %8.0f messages  %s\n", label.c_str(),
                    base, now, same ? "same" : "CHANGED");
      }
    }
    if (changed != 0) {
      std::fprintf(stderr,
                   "FATAL: %zu cell(s) changed their message count vs "
                   "baseline\n",
                   changed);
      return 1;
    }
  }

  maybe_write_metrics(exporter, json_path);
  return 0;
}
