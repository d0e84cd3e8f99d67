// Checker throughput and memory: the streaming polynomial-time causal
// checker (docs/CHECKING.md) against the brute Definition-1 oracle, on
// synthetic causally-consistent histories from 10^3 to 10^6 ops. The brute
// arm re-walks the causality graph per read and is capped (--brute-cap,
// default 10^4 ops) — past that it is the reason the streaming checker
// exists. Each streaming row also reports the checker's own peak state
// estimate, which must stay a small fraction of the history: the GC'd write
// table + vector clocks are the whole point of the design.
//
// Every run must come back checker-clean (the generator is proven causal —
// see synthetic.hpp) and, where both arms run, the verdicts must agree; the
// binary exits non-zero otherwise, so CI's smoke invocation doubles as a
// correctness check. Emits a causalmem-metrics-v1 document (--json) whose
// committed snapshot is bench/BENCH_9.json.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "causalmem/history/causal_checker.hpp"
#include "causalmem/history/streaming_checker.hpp"
#include "causalmem/history/synthetic.hpp"
#include "causalmem/obs/json.hpp"

using namespace causalmem;
using namespace causalmem::bench;

namespace {

std::uint64_t maxrss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

struct ArmResult {
  double ops_per_sec{0.0};
  std::chrono::microseconds elapsed{0};
  bool clean{true};
  std::uint64_t peak_bytes{0};       ///< streaming only
  std::uint64_t peak_live_writes{0};  ///< streaming only
  std::uint64_t tombstones{0};        ///< streaming only
};

ArmResult time_streaming(const History& h) {
  const auto start = std::chrono::steady_clock::now();
  const auto res = StreamingCausalChecker::check(h);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  ArmResult r;
  r.elapsed = elapsed;
  r.ops_per_sec = static_cast<double>(res.stats.ops_seen) /
                  (static_cast<double>(elapsed.count()) * 1e-6);
  r.clean = res.causal;
  r.peak_bytes = res.stats.peak_approx_bytes;
  r.peak_live_writes = res.stats.peak_live_writes;
  r.tombstones = res.stats.tombstones;
  return r;
}

ArmResult time_brute(const History& h, std::uint64_t ops) {
  const auto start = std::chrono::steady_clock::now();
  const CausalChecker checker(h);
  const auto violation = checker.check();
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  ArmResult r;
  r.elapsed = elapsed;
  r.ops_per_sec = static_cast<double>(ops) /
                  (static_cast<double>(elapsed.count()) * 1e-6);
  r.clean = !violation.has_value();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t max_ops = flag_or(argc, argv, "--max-ops", 1'000'000);
  const std::uint64_t brute_cap = flag_or(argc, argv, "--brute-cap", 10'000);
  const std::uint64_t procs = flag_or(argc, argv, "--procs", 4);
  const std::uint64_t addrs = flag_or(argc, argv, "--addrs", 64);
  const std::string json_path = parse_json_path(argc, argv);

  std::vector<std::uint64_t> sizes;
  for (std::uint64_t n = 1'000; n <= max_ops; n *= 10) sizes.push_back(n);
  if (sizes.empty()) sizes.push_back(max_ops);

  std::printf("checker bench: %llu procs, %llu addrs, sizes up to %llu ops "
              "(brute capped at %llu)\n\n",
              static_cast<unsigned long long>(procs),
              static_cast<unsigned long long>(addrs),
              static_cast<unsigned long long>(max_ops),
              static_cast<unsigned long long>(brute_cap));

  obs::MetricsExporter exporter("bench_checker");
  exporter.set_meta("workload", "synthetic_causal_lamport_lww");

  Table table({"checker", "ops", "ops/sec", "elapsed ms", "peak state KB",
               "live writes", "tombstones"});
  table.set_align(0, Table::Align::kLeft);

  bool failed = false;
  for (const std::uint64_t n : sizes) {
    SyntheticWorkload w;
    w.procs = procs;
    w.addrs = addrs;
    w.ops = n;
    w.deliver_ratio = 0.8;
    const History h = make_synthetic_causal_history(w, /*seed=*/41 + n);

    const ArmResult sr = time_streaming(h);
    table.add_row({"streaming", std::to_string(n), Table::num(sr.ops_per_sec, 0),
                   Table::num(static_cast<double>(sr.elapsed.count()) / 1e3, 1),
                   Table::num(static_cast<double>(sr.peak_bytes) / 1024.0, 1),
                   std::to_string(sr.peak_live_writes),
                   std::to_string(sr.tombstones)});
    obs::RunMetrics& srm = exporter.add_run("streaming_" + std::to_string(n));
    srm.set_param("ops", static_cast<double>(n));
    srm.set_param("procs", static_cast<double>(procs));
    srm.set_param("addrs", static_cast<double>(addrs));
    srm.set_value("ops_per_sec", sr.ops_per_sec);
    srm.set_value("elapsed_us", static_cast<double>(sr.elapsed.count()));
    srm.set_value("peak_state_bytes", static_cast<double>(sr.peak_bytes));
    srm.set_value("peak_live_writes",
                  static_cast<double>(sr.peak_live_writes));
    if (!sr.clean) {
      std::fprintf(stderr,
                   "FATAL: streaming checker flagged a synthetic history "
                   "(%llu ops) that is causal by construction\n",
                   static_cast<unsigned long long>(n));
      failed = true;
    }

    if (n <= brute_cap) {
      const ArmResult br = time_brute(h, n);
      table.add_row(
          {"brute", std::to_string(n), Table::num(br.ops_per_sec, 0),
           Table::num(static_cast<double>(br.elapsed.count()) / 1e3, 1), "-",
           "-", "-"});
      obs::RunMetrics& brm = exporter.add_run("brute_" + std::to_string(n));
      brm.set_param("ops", static_cast<double>(n));
      brm.set_value("ops_per_sec", br.ops_per_sec);
      brm.set_value("elapsed_us", static_cast<double>(br.elapsed.count()));
      if (br.clean != sr.clean) {
        std::fprintf(stderr,
                     "FATAL: brute and streaming verdicts disagree at %llu "
                     "ops\n",
                     static_cast<unsigned long long>(n));
        failed = true;
      }
    }
  }
  table.print(std::cout);
  exporter.set_meta("maxrss_kb", std::to_string(maxrss_kb()));
  std::printf("\nprocess peak RSS: %llu KB (includes the in-memory input "
              "histories; the checker's own state is the peak-state column)\n",
              static_cast<unsigned long long>(maxrss_kb()));

  // Self-validation, same contract as the other benches: the document must
  // parse and every run must carry a positive ops_per_sec.
  {
    std::string error;
    const auto doc = obs::parse_json(exporter.to_json(), &error);
    if (!doc) {
      std::fprintf(stderr, "FATAL: emitted metrics do not parse: %s\n",
                   error.c_str());
      return 1;
    }
    const obs::JsonValue* runs = doc->find("runs");
    if (runs == nullptr || !runs->is_array() || runs->array.empty()) {
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
    std::printf("metrics self-check: OK (%zu runs)\n", runs->array.size());
  }

  maybe_write_metrics(exporter, json_path);
  return failed ? 1 : 0;
}
