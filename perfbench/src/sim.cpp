// sim_256: deterministic simulated executions of 256 nodes through
// sim::run_causal_scenario, in the sharded configuration of bench_scale
// (hash ring + copysets + push invalidation), sharing groups of 4 nodes over
// 4 addresses, 50% writes, a seeded random walk, online checking on.
//
// A run repeats executions (each with its own sub-seed) until its time is
// up. Wall-clock figures take the median over executions. Figures that are
// exact functions of the seed (messages, scheduler steps and choices, and
// operation latencies, which are in simulated time) come from the first
// kExactExecutions executions only, so two runs with one seed agree on them
// to the last digit however many executions fit in the time.
#include <algorithm>
#include <vector>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/sharding.hpp"
#include "causalmem/history/streaming_checker.hpp"
#include "causalmem/sim/scenarios.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace causalmem;

constexpr std::size_t kNodes = 256;
constexpr std::size_t kGroup = 4;
constexpr Addr kAddrsPerGroup = 4;
constexpr std::uint64_t kWritePct = 50;
constexpr std::size_t kOpsPerNode = 2;
constexpr std::size_t kExactExecutions = 8;
constexpr std::size_t kAddrs = kNodes / kGroup * kAddrsPerGroup;

/// One scripted operation, as the decorator needs to know it.
struct ScriptedOp {
  bool write;
  bool remote;
};

/// Strategy decorator over RandomWalkStrategy: counts steps and choices,
/// stamps the first and last step (the simulation proper, between set-up
/// and teardown), records a span around each pick in traced runs, and
/// times every scripted operation in scheduler steps.
///
/// Task i runs node i's script and yields after each operation, so after a
/// step of task i the task is either runnable again (its operation returned)
/// or parked inside the operation, waiting for an owner reply. An operation
/// therefore lasts from the step that started it to the step after which
/// its task is runnable again; at one simulated tick per step that is its
/// latency in simulated time.
class TimedWalk final : public sim::Strategy {
 public:
  TimedWalk(std::uint64_t seed, std::vector<std::vector<ScriptedOp>> scripts)
      : walk_(seed),
        scripts_(std::move(scripts)),
        tasks_(scripts_.size()) {}

  std::size_t pick(const std::vector<sim::Choice>& choices) override {
    const std::uint64_t now = wall_ns();
    if (steps_ == 0) {
      first_ns_ = now;
      first_usage_ = Usage::now();
    } else if (last_task_ < tasks_.size()) {
      settle(last_task_, choices);
    }
    choices_ += choices.size();
    std::size_t k = 0;
    {
      ScopedSpan span(SpanName::kSimPick);
      k = walk_.pick(choices);
    }
    last_task_ = choices[k].kind == sim::ChoiceKind::kStep ? choices[k].actor
                                                             : kNoTask;
    ++steps_;
    last_ns_ = wall_ns();
    last_usage_ = Usage::now();
    return k;
  }

  std::uint64_t steps_{0};
  std::uint64_t choices_{0};
  std::uint64_t first_ns_{0};
  std::uint64_t last_ns_{0};
  std::uint64_t timed_ops_{0};
  Usage first_usage_;
  Usage last_usage_;
  LatencyHist remote_read;   ///< steps x tick, in simulated ns
  LatencyHist remote_write;  ///< steps x tick, in simulated ns
  LatencyHist round_trip;    ///< every operation that parked for a reply

 private:
  static constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);
  struct Task {
    std::size_t next{0};        ///< index of the operation in progress
    std::uint64_t started{0};   ///< step that started it
    bool parked{false};
  };

  /// The previous pick ran a step of `task`; `choices` shows whether the
  /// task is runnable again.
  void settle(std::size_t task, const std::vector<sim::Choice>& choices) {
    Task& t = tasks_[task];
    const std::vector<ScriptedOp>& script = scripts_[task];
    if (t.next >= script.size()) return;  // the step that ends the task
    const std::uint64_t step = steps_ - 1;
    if (!t.parked) t.started = step;
    const bool runnable = std::any_of(
        choices.begin(), choices.end(), [task](const sim::Choice& c) {
          return c.kind == sim::ChoiceKind::kStep && c.actor == task;
        });
    if (!runnable) {
      t.parked = true;
      return;
    }
    const std::uint64_t ns = (step - t.started) * kTickNs;
    const ScriptedOp& op = script[t.next];
    if (op.remote) (op.write ? remote_write : remote_read).record(ns);
    if (ns > 0) round_trip.record(ns);
    ++timed_ops_;
    ++t.next;
    t.parked = false;
  }

  static constexpr std::uint64_t kTickNs = sim::SimOptions{}.event_tick_ns;

  sim::RandomWalkStrategy walk_;
  std::vector<std::vector<ScriptedOp>> scripts_;
  std::vector<Task> tasks_;
  std::size_t last_task_{kNoTask};
};

struct Execution {
  bool traced{false};
  double setup_s{0};
  double ops_per_s{0};
  std::uint64_t ops{0};
  std::uint64_t steps{0};
  std::uint64_t choices{0};
  Usage usage;
  StatsSnapshot totals;
  LatencyHist remote_read;   ///< simulated ns
  LatencyHist remote_write;  ///< simulated ns
  LatencyHist round_trip;    ///< simulated ns of every op that waited
};

Execution run_execution(std::uint64_t seed, std::size_t index, bool traced,
                        const Ownership& owner, RunResult& result) {
  sim::CausalScenarioConfig cfg;
  cfg.nodes = kNodes;
  cfg.sharding = true;
  cfg.config.copysets = true;
  cfg.config.push_invalidation = true;
  cfg.trace = false;
  cfg.online_check = true;
  cfg.scripts.resize(kNodes);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + index * 0xD1B54A32D192ED03ULL);
  std::vector<std::uint64_t> writes_by(kNodes, 0);
  std::vector<std::vector<ScriptedOp>> scripted(kNodes);
  for (NodeId p = 0; p < kNodes; ++p) {
    const Addr base = static_cast<Addr>(p / kGroup) * kAddrsPerGroup;
    for (std::size_t i = 0; i < kOpsPerNode; ++i) {
      const Addr a = base + rng.next_below(kAddrsPerGroup);
      const bool write = rng.next_below(100) < kWritePct;
      if (write) {
        cfg.scripts[p].push_back(
            sim::ScriptOp::write(a, codec::encode(a, p, ++writes_by[p])));
      } else {
        cfg.scripts[p].push_back(sim::ScriptOp::read(a));
      }
      scripted[p].push_back({write, owner.owner(a) != p});
    }
  }

  Execution ex;
  ex.traced = traced;
  ex.ops = kNodes * kOpsPerNode;
  sim::ScenarioOutcome out;
  TimedWalk walk(rng.next(), std::move(scripted));
  Tracer::set_enabled(traced);
  const std::uint64_t t0 = wall_ns();
  const sim::ExecutionResult res = sim::run_causal_scenario(cfg, walk, &out);
  Tracer::set_enabled(false);
  ex.setup_s = static_cast<double>(walk.first_ns_ - t0) * 1e-9;
  ex.ops_per_s = static_cast<double>(ex.ops) /
                 (static_cast<double>(walk.last_ns_ - walk.first_ns_) * 1e-9);
  ex.steps = walk.steps_;
  ex.choices = walk.choices_;
  ex.usage = walk.last_usage_ - walk.first_usage_;
  ex.totals = out.totals;
  ex.remote_read = walk.remote_read;
  ex.remote_write = walk.remote_write;
  ex.round_trip = walk.round_trip;
  result.attempted += ex.ops;
  if (res.failed()) result.fail("sim execution: " + res.failure());
  if (walk.timed_ops_ != ex.ops) {
    result.fail("sim: timed " + std::to_string(walk.timed_ops_) + " of " +
                std::to_string(ex.ops) + " scripted operations");
  }

  // Every read returns the initial value or a value written to its address
  // by an issued write, and never an own write older than the reader's last.
  for (NodeId p = 0; p < out.history.per_process.size(); ++p) {
    std::vector<std::uint64_t> last_own(kAddrs, 0);
    for (const Operation& op : out.history.per_process[p]) {
      if (op.kind == OpKind::kWrite) {
        last_own[op.addr] = codec::decode(op.value).seq;
        continue;
      }
      bool ok = false;
      if (op.value == 0) {
        ok = last_own[op.addr] == 0;
      } else {
        const codec::Decoded d = codec::decode(op.value);
        ok = d.addr == op.addr && d.writer < kNodes && d.seq >= 1 &&
             d.seq <= writes_by[d.writer] &&
             (d.writer != p || d.seq == last_own[op.addr]);
      }
      if (!ok) {
        result.fail("sim: p" + std::to_string(p) + " read " +
                    std::to_string(op.addr) + " -> " + std::to_string(op.value));
      }
    }
  }

  if (traced) {
    // The history goes through a StreamingCausalChecker once more, from the
    // benchmark, so the checker's cost per operation is measured here.
    Tracer::set_enabled(true);
    StreamingCausalChecker checker(kNodes);
    for (const auto& ops : out.history.per_process) {
      for (const Operation& op : ops) {
        ScopedSpan span(SpanName::kHistoryFeed);
        checker.on_op(op);
      }
    }
    checker.finish();
    Tracer::set_enabled(false);
    if (!checker.causal_ok()) result.fail("sim: streaming checker violation");
  }
  return ex;
}

}  // namespace

RunResult run_sim(const RunOptions& opt) {
  RunResult result;
  const HashRingOwnership owner(kNodes, 1, sim::CausalScenarioConfig{}.ring_vnodes);
  const std::uint64_t deadline =
      wall_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<Execution> runs;
  double first_rss = 0;
  while (runs.size() < kExactExecutions || wall_ns() < deadline) {
    const bool traced = opt.trace && runs.size() % 2 == 1;
    runs.push_back(run_execution(opt.seed, runs.size(), traced, owner, result));
    if (runs.size() == 1) first_rss = peak_rss_mb();
  }

  StatsSnapshot exact;
  LatencyHist rr;
  LatencyHist rw;
  LatencyHist rtt;
  std::uint64_t exact_ops = 0;
  std::uint64_t exact_steps = 0;
  std::uint64_t exact_choices = 0;
  for (std::size_t k = 0; k < kExactExecutions; ++k) {
    exact += runs[k].totals;
    rr.merge(runs[k].remote_read);
    rw.merge(runs[k].remote_write);
    rtt.merge(runs[k].round_trip);
    exact_ops += runs[k].ops;
    exact_steps += runs[k].steps;
    exact_choices += runs[k].choices;
  }
  std::vector<double> rates;
  std::vector<double> traced_rates;
  std::vector<double> setups;
  Usage usage;
  std::uint64_t steps = 0;
  std::uint64_t ops = 0;
  double sim_ns = 0;
  for (const Execution& ex : runs) {
    if (ex.traced) {
      traced_rates.push_back(ex.ops_per_s);
      continue;
    }
    rates.push_back(ex.ops_per_s);
    setups.push_back(ex.setup_s);
    usage.cpu_us += ex.usage.cpu_us;
    usage.ctx_switches += ex.usage.ctx_switches;
    steps += ex.steps;
    ops += ex.ops;
    sim_ns += static_cast<double>(ex.ops) / ex.ops_per_s * 1e9;
  }

  const double exact_ops_d = static_cast<double>(exact_ops);
  EndToEnd e;
  e.ops_per_s = median(rates);
  e.remote_read_p50_us = rr.quantile(0.5) * 1e-3;
  e.remote_read_p90_us = rr.quantile(0.9) * 1e-3;
  e.remote_write_p50_us = rw.quantile(0.5) * 1e-3;
  e.remote_write_p90_us = rw.quantile(0.9) * 1e-3;
  e.msgs_per_op = ratio(static_cast<double>(exact.messages_sent()), exact_ops_d);
  e.setup_s = median(setups);
  e.peak_rss_mb = first_rss;
  emit(e, result);
  report_tail(result, "remote_read", rr, 1e3, "us");
  report_tail(result, "remote_write", rw, 1e3, "us");
  result.report.push_back({"sim.executions", static_cast<double>(runs.size()), "count"});
  result.report.push_back(
      {"sim.us_per_step", ratio(sim_ns * 1e-3, static_cast<double>(steps)), "us"});
  if (!opt.trace) return result;

  Layers l;
  const double hits = static_cast<double>(exact[Counter::kReadHit]);
  l.read_hit_ratio =
      ratio(hits, hits + static_cast<double>(exact[Counter::kReadMiss]));
  l.invalidations_per_op =
      ratio(static_cast<double>(exact[Counter::kInvalidationApplied]), exact_ops_d);
  l.owner_rtt_p50_us = rtt.quantile(0.5) * 1e-3;
  for (std::size_t k = 0; k < kMsgTypes; ++k) {
    l.msgs_per_op_by_type[k] =
        ratio(static_cast<double>(exact[kMsgTypeCounters[k]]), exact_ops_d);
  }
  const double ops_d = static_cast<double>(ops);
  l.ctx_switches_per_op = ratio(static_cast<double>(usage.ctx_switches), ops_d);
  l.cpu_us_per_op = ratio(usage.cpu_us, ops_d);
  l.steps_per_op = ratio(static_cast<double>(exact_steps), exact_ops_d);
  l.choices_per_step =
      ratio(static_cast<double>(exact_choices), static_cast<double>(exact_steps));
  l.ctx_switches_per_step =
      ratio(static_cast<double>(usage.ctx_switches), static_cast<double>(steps));
  Tracer::collect();
  const auto& feed =
      Tracer::totals()[static_cast<std::size_t>(SpanName::kHistoryFeed)];
  l.check_ns_per_op =
      ratio(static_cast<double>(feed.total_ns), static_cast<double>(feed.count));
  l.trace_overhead = ratio(median(traced_rates), e.ops_per_s);
  emit(l, result);

  // Identities: every message is one of the named types, and the counters
  // account for every scripted operation.
  std::uint64_t by_type = 0;
  for (const Counter m : kMsgTypeCounters) by_type += exact[m];
  if (by_type != exact.messages_sent()) {
    result.fail("counter identity: per-type messages != messages sent");
  }
  const std::uint64_t counted = exact[Counter::kReadHit] +
                                exact[Counter::kReadMiss] +
                                exact[Counter::kWriteLocal] +
                                exact[Counter::kWriteRemote];
  if (counted != exact_ops) {
    result.fail("counter identity: hits + misses + writes != ops issued");
  }
  return result;
}

}  // namespace perfbench
