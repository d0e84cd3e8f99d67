// Benchmark entry point: runs one workload for a given time and prints every
// metric by name with its unit, then one JSON result line (the last line of
// standard output). With --trace 0 the result carries the end-to-end
// metrics, with --trace 1 the per-layer metrics of the traced run. The exit
// code is non-zero when any output was wrong.
//
//   perfbench --workload rw_inmem --seed 1 --seconds 10 --trace 0
//                    [--trace-dir DIR]
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

namespace {

void add(std::vector<Metric>& to, std::string name, double value,
         std::string unit) {
  to.push_back({std::move(name), value, std::move(unit)});
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace

void emit(const EndToEnd& e, RunResult& out) {
  auto& m = out.end_to_end;
  add(m, "ops_per_s", e.ops_per_s, "1/s");
  add(m, "remote_read_p50_us", e.remote_read_p50_us, "us");
  add(m, "remote_read_p90_us", e.remote_read_p90_us, "us");
  add(m, "remote_write_p50_us", e.remote_write_p50_us, "us");
  add(m, "remote_write_p90_us", e.remote_write_p90_us, "us");
  add(m, "msgs_per_op", e.msgs_per_op, "count");
  add(m, "setup_s", e.setup_s, "s");
  add(m, "peak_rss_mb", e.peak_rss_mb, "MB");
}

void emit(const Layers& l, RunResult& out) {
  auto& m = out.per_layer;
  add(m, "dsm.read_hit_ratio", l.read_hit_ratio, "ratio");
  add(m, "dsm.invalidations_per_op", l.invalidations_per_op, "count");
  add(m, "dsm.owner_rtt_p50_us", l.owner_rtt_p50_us, "us");
  for (std::size_t k = 0; k < kMsgTypes; ++k) {
    add(m, std::string("net.msgs_per_op.") + kMsgTypeNames[k],
        l.msgs_per_op_by_type[k], "count");
  }
  add(m, "net.ctx_switches_per_op", l.ctx_switches_per_op, "count");
  add(m, "net.cpu_us_per_op", l.cpu_us_per_op, "us");
  add(m, "net.wire_bytes_per_op", l.wire_bytes_per_op, "B");
  add(m, "persist.wal_bytes_per_write", l.wal_bytes_per_write, "B");
  add(m, "persist.syncs_per_write", l.syncs_per_write, "count");
  add(m, "sim.steps_per_op", l.steps_per_op, "count");
  add(m, "sim.choices_per_step", l.choices_per_step, "count");
  add(m, "sim.ctx_switches_per_step", l.ctx_switches_per_step, "count");
  add(m, "history.check_ns_per_op", l.check_ns_per_op, "ns");
  add(m, "obs.trace_overhead", l.trace_overhead, "ratio");
}

void report_tail(RunResult& out, const std::string& name, const LatencyHist& h,
                 double scale, const std::string& unit) {
  add(out.report, name + "_samples", static_cast<double>(h.count()), "count");
  add(out.report, name + "_p99_" + unit, h.quantile(0.99) / scale, unit);
  // p99.9 only where at least ten samples lie beyond it.
  if (static_cast<double>(h.count()) * 0.001 >= 10.0) {
    add(out.report, name + "_p999_" + unit, h.quantile(0.999) / scale, unit);
  }
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "rw_inmem|read_hot|durable_tcp|sim_256 --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

void print_span_summary(RunResult& r) {
  Tracer::collect();
  const auto& totals = Tracer::totals();
  for (std::size_t k = 0; k < kSpanNames; ++k) {
    const SpanTotals& t = totals[k];
    if (t.count == 0) continue;
    const std::string name = std::string("span.") + span_name(static_cast<SpanName>(k));
    r.report.push_back({name + ".count", static_cast<double>(t.count), "count"});
    r.report.push_back({name + ".self_frac",
                        static_cast<double>(t.self_ns) /
                            static_cast<double>(std::max<std::uint64_t>(1, t.total_ns)),
                        "ratio"});
    r.report.push_back({name + ".p50_ns", t.dur.quantile(0.5), "ns"});
    report_tail(r, name, t.dur, 1.0, "ns");
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) usage("bad --seconds");

  std::printf("workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::fflush(stdout);
  RunResult r;
  if (is_threaded_workload(opt.workload)) {
    r = run_threaded(opt);
  } else if (opt.workload == "sim_256") {
    r = run_sim(opt);
  } else {
    usage("unknown workload");
  }

  if (opt.trace) {
    print_span_summary(r);
    if (!opt.trace_dir.empty()) {
      const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".jsonl";
      if (Tracer::write_jsonl(path)) {
        std::printf("spans written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      }
    }
  }

  const std::vector<Metric>& gated = opt.trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : gated) {
    if (!std::isfinite(m.value)) r.fail("metric " + m.name + " is not finite");
  }
  for (const Metric& m : r.end_to_end) {
    std::printf("  end_to_end %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.per_layer) {
    std::printf("  per_layer  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.report) {
    std::printf("  report     %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  report     %-34s %16.6g ratio\n", "failed_frac",
              static_cast<double>(r.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, r.attempted)));
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "INCORRECT: %s\n", e.c_str());
  }

  std::string line = std::string("{\"correct\": ") +
                     (r.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t k = 0; k < gated.size(); ++k) {
    if (k > 0) line += ", ";
    line += "\"" + gated[k].name + "\": {\"value\": " +
            number(std::isfinite(gated[k].value) ? gated[k].value : 0.0) +
            ", \"unit\": \"" + gated[k].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
