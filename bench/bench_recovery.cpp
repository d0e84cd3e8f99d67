// Restart-to-serving: how fast does a crashed owner get back to answering
// reads for its pages? Two recovery strategies over identical populated
// systems, at 10^3 / 10^4 / 10^5 pages:
//
//   local_replay    the disk survived — rejoin restores every owned cell
//                   from checkpoint + WAL, zero protocol messages, and the
//                   first read of every page is a local hit.
//   election_only   the disk was lost (persist::Store::lose_disk before the
//                   restart) — every page must win a per-page recovery
//                   election (one payload-free poll round trip per live
//                   peer) before it is servable again.
//
// The headline number is pages/sec of restart-to-serving (restart_node()
// plus reading every owned page once). Local replay costs O(pages) of local
// decode; election-only costs O(pages) of round trips — the gap widens with
// scale, and BENCH_8.json pins it at each tier. The store runs on a MemVfs
// so the numbers measure replay/election cost, not container disk jitter.
//
// Self-validating like bench_throughput: the emitted causalmem-metrics-v1
// document must parse and carry a positive pages_per_sec per run, or the
// process exits non-zero (ctest runs a tiny smoke version).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "causalmem/obs/json.hpp"
#include "causalmem/persist/vfs.hpp"

using namespace causalmem;
using namespace causalmem::bench;

namespace {

struct RecoveryResult {
  std::chrono::microseconds populate{0};
  std::chrono::microseconds restart{0};  ///< restart_node() wall time
  std::chrono::microseconds serve{0};    ///< first read of every owned page
  std::uint64_t restored_cells{0};
  std::uint64_t recover_requests{0};  ///< fo.recover_request
  std::uint64_t wal_replayed{0};
  std::uint64_t checkpoints{0};

  [[nodiscard]] double pages_per_sec(std::uint64_t pages) const {
    const double us =
        static_cast<double>(restart.count() + serve.count());
    return us > 0.0 ? static_cast<double>(pages) / (us * 1e-6) : 0.0;
  }
};

RecoveryResult run_recovery(std::uint64_t pages, bool keep_disk) {
  persist::MemVfs vfs;
  CausalConfig cfg;
  cfg.request_timeout = std::chrono::seconds(10);  // no deadline noise
  cfg.request_retries = 2;
  SystemOptions options;
  options.fault_layer = true;
  options.failover.enabled = true;
  options.persist.enabled = true;
  options.persist.dir = "bench";
  options.persist.vfs = &vfs;
  // A checkpoint every quarter of the workload: recovery replays a mix of
  // snapshot cells and WAL-tail records, like a long-running node would.
  options.persist.checkpoint_every =
      static_cast<std::uint32_t>(pages / 4 > 0 ? pages / 4 : 1);
  DsmSystem<CausalNode> sys(2, cfg, options);

  RecoveryResult r;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < pages; ++k) {
    // Striped 2-node layout: even addresses are node 0's own pages.
    sys.memory(0).write(2 * k, static_cast<Value>(k) + 1);
  }
  const auto t1 = std::chrono::steady_clock::now();

  sys.faulty_transport()->crash_node(0);
  if (!keep_disk) sys.store(0)->lose_disk();
  const auto t2 = std::chrono::steady_clock::now();
  (void)sys.restart_node(0);
  const auto t3 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < pages; ++k) {
    // Blocking read: returns only once the page is actually servable again
    // (local hit after replay, or election completion after media loss).
    (void)sys.memory(0).read(2 * k);
  }
  const auto t4 = std::chrono::steady_clock::now();

  const auto us = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::microseconds>(b - a);
  };
  r.populate = us(t0, t1);
  r.restart = us(t2, t3);
  r.serve = us(t3, t4);
  const StatsSnapshot stats = sys.stats().total();
  r.restored_cells = stats[Counter::kPersistRestoredCells];
  r.recover_requests = stats[Counter::kFoRecoverRequest];
  r.wal_replayed = stats[Counter::kPersistWalReplayed];
  r.checkpoints = stats[Counter::kPersistCheckpoint];
  return r;
}

/// The same populate loop on a persistence-free system: the write-path
/// overhead of the WAL (fsync-per-apply on the MemVfs) is the ratio of the
/// two populate times, recorded in the metrics document per tier.
std::chrono::microseconds run_volatile_populate(std::uint64_t pages) {
  CausalConfig cfg;
  cfg.request_timeout = std::chrono::seconds(10);
  SystemOptions options;
  options.fault_layer = true;
  options.failover.enabled = true;
  DsmSystem<CausalNode> sys(2, cfg, options);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < pages; ++k) {
    sys.memory(0).write(2 * k, static_cast<Value>(k) + 1);
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t max_pages = flag_or(argc, argv, "--max-pages", 100'000);
  const std::string json_path = parse_json_path(argc, argv);

  std::vector<std::uint64_t> tiers;
  for (const std::uint64_t p : {1'000ULL, 10'000ULL, 100'000ULL}) {
    if (p <= max_pages) tiers.push_back(p);
  }
  if (tiers.empty()) tiers.push_back(max_pages);

  std::printf("recovery: restart-to-serving, 2 nodes, tiers up to %llu pages\n\n",
              static_cast<unsigned long long>(max_pages));

  obs::MetricsExporter exporter("bench_recovery");
  exporter.set_meta("workload", "restart_to_serving");

  Table table({"scenario", "pages", "restart ms", "serve ms", "pages/sec",
               "restored", "recover reqs"});
  std::size_t expected_runs = 0;
  for (const std::uint64_t pages : tiers) {
    // Write-path overhead receipt: identical populate loop without a store.
    const auto volatile_us = run_volatile_populate(pages);
    {
      obs::RunMetrics& rm = exporter.add_run("write_path_volatile");
      rm.label = "write_path_volatile";
      rm.set_param("pages", static_cast<double>(pages));
      rm.set_value("populate_us", static_cast<double>(volatile_us.count()));
      rm.set_value("pages_per_sec",
                   volatile_us.count() > 0
                       ? static_cast<double>(pages) /
                             (static_cast<double>(volatile_us.count()) * 1e-6)
                       : 0.0);
      ++expected_runs;
    }
    for (const bool keep_disk : {true, false}) {
      const char* label = keep_disk ? "local_replay" : "election_only";
      const RecoveryResult r = run_recovery(pages, keep_disk);
      table.add_row(
          {label, std::to_string(pages),
           Table::num(static_cast<double>(r.restart.count()) / 1000.0, 2),
           Table::num(static_cast<double>(r.serve.count()) / 1000.0, 2),
           Table::num(r.pages_per_sec(pages), 0),
           std::to_string(r.restored_cells),
           std::to_string(r.recover_requests)});
      obs::RunMetrics& rm = exporter.add_run(label);
      rm.label = label;
      rm.set_param("pages", static_cast<double>(pages));
      rm.set_param("keep_disk", keep_disk ? 1.0 : 0.0);
      rm.set_value("pages_per_sec", r.pages_per_sec(pages));
      rm.set_value("restart_us", static_cast<double>(r.restart.count()));
      rm.set_value("serve_us", static_cast<double>(r.serve.count()));
      rm.set_value("restart_to_serving_us",
                   static_cast<double>(r.restart.count() + r.serve.count()));
      rm.set_value("populate_us", static_cast<double>(r.populate.count()));
      rm.set_value("restored_cells", static_cast<double>(r.restored_cells));
      rm.set_value("recover_requests",
                   static_cast<double>(r.recover_requests));
      rm.set_value("wal_replayed", static_cast<double>(r.wal_replayed));
      rm.set_value("checkpoints", static_cast<double>(r.checkpoints));
      ++expected_runs;
    }
  }
  table.print(std::cout);

  // Self-validation: the document must parse and carry a positive
  // pages_per_sec per run (what the ctest smoke run asserts).
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
        runs->array.size() != expected_runs) {
      std::fprintf(stderr, "FATAL: metrics document missing runs\n");
      return 1;
    }
    for (const obs::JsonValue& run : runs->array) {
      const obs::JsonValue* values = run.find("values");
      const obs::JsonValue* pps =
          values != nullptr ? values->find("pages_per_sec") : nullptr;
      if (pps == nullptr || !pps->is_number() || !(pps->number > 0.0)) {
        std::fprintf(stderr, "FATAL: run missing positive pages_per_sec\n");
        return 1;
      }
    }
    std::printf("\nmetrics self-check: OK (%zu runs)\n", runs->array.size());
  }

  maybe_write_metrics(exporter, json_path);
  return 0;
}
