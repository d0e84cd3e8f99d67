#include "causalmem/sim/scenarios.hpp"

#include <utility>

#include "causalmem/common/coop.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"
#include "causalmem/obs/trace.hpp"
#include "causalmem/persist/store.hpp"
#include "causalmem/persist/vfs.hpp"

namespace causalmem::sim {

namespace {

/// Shared between the chaos task (writer) and the workload tasks (readers).
/// Plain fields are safe: every task is a fiber on the scheduler's thread,
/// and exactly one of them runs at a time.
struct ChaosState {
  std::vector<std::uint8_t> crashed;
  bool finished{false};
};

std::string format_history(const History& h) {
  std::string out;
  for (std::size_t p = 0; p < h.per_process.size(); ++p) {
    out += 'p';
    out += std::to_string(p);
    out += ':';
    for (const Operation& op : h.per_process[p]) {
      out += ' ';
      out += op.to_string();
      out += ';';
    }
    out += '\n';
  }
  return out;
}

std::string format_trace(const std::vector<obs::TraceEvent>& events) {
  std::string out;
  for (const obs::TraceEvent& e : events) {
    out += std::to_string(e.ts_ns);
    out += " n";
    out += std::to_string(e.node);
    out += ' ';
    out += obs::trace_event_kind_name(e.kind);
    out += " seq=";
    out += std::to_string(e.seq);
    out += " peer=";
    out += std::to_string(e.peer);
    out += " type=";
    out += std::to_string(e.msg_type);
    out += " addr=";
    out += std::to_string(e.addr);
    out += " dur=";
    out += std::to_string(e.dur_ns);
    if (!e.vclock.empty()) {
      out += " vt=[";
      for (std::size_t k = 0; k < e.vclock.size(); ++k) {
        if (k != 0) out += ',';
        out += std::to_string(e.vclock[k]);
      }
      out += ']';
    }
    out += '\n';
  }
  return out;
}

std::string format_counters(StatsRegistry& stats) {
  std::string out;
  for (NodeId i = 0; i < stats.node_count(); ++i) {
    const StatsSnapshot s = stats.node_snapshot(i);
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      out += 'n';
      out += std::to_string(i);
      out += '.';
      out += counter_name(static_cast<Counter>(c));
      out += '=';
      out += std::to_string(s.values[c]);
      out += '\n';
    }
  }
  return out;
}

/// Parks until the node is live again; returns false when chaos ended with
/// the node still down (the workload then abandons its remaining script).
bool await_alive(const ChaosState& st, NodeId i) {
  while (st.crashed[i] != 0) {
    if (st.finished) return false;
    coop::park(
        [&st, i] { return st.crashed[i] == 0 || st.finished; }, 0,
        "crashed");
  }
  return true;
}

template <typename SystemT>
void run_chaos_script(SystemT& sys, SimScheduler& sched, ChaosState& st,
                      const std::vector<ChaosEvent>& events,
                      std::uint64_t base_ns) {
  for (const ChaosEvent& ev : events) {
    const std::uint64_t due = base_ns + ev.after_ns;
    // Nothing wakes the chaos task: it runs again when its deadline passes.
    while (sched.now_ns() < due) coop::park({}, due, "chaos_wait");
    switch (ev.kind) {
      case ChaosEvent::Kind::kCrash:
      case ChaosEvent::Kind::kCrashWithDisk:
      case ChaosEvent::Kind::kCrashLosingDisk:
        st.crashed[ev.node] = 1;
        sys.sim_transport()->crash_node(ev.node);
        // Every store write is synced, so a crash loses nothing on disk;
        // a media loss takes the files with it.
        if (ev.kind == ChaosEvent::Kind::kCrashLosingDisk) {
          sys.store(ev.node)->lose_disk();
        }
        break;
      case ChaosEvent::Kind::kRestart:
      case ChaosEvent::Kind::kRecoverFromDisk:
        // rejoin parks awaiting peer resyncs; only after it returns is the
        // node's workload released against recovered state. With a store
        // attached, rejoin restores owned cells from checkpoint + WAL
        // first, so the two kinds differ only in intent at the call site.
        sys.restart_node(ev.node);
        st.crashed[ev.node] = 0;
        break;
      case ChaosEvent::Kind::kCheckpoint:
        // Persist chaos implies failover, so the node holds a recovery
        // component (and a store) to checkpoint through.
        (void)sys.recovery(ev.node)->checkpoint_now();
        break;
      case ChaosEvent::Kind::kPartition:
        sys.sim_transport()->set_partition(ev.from, ev.to, true);
        break;
      case ChaosEvent::Kind::kHeal:
        sys.sim_transport()->set_partition(ev.from, ev.to, false);
        break;
    }
  }
  st.finished = true;
}

template <typename SystemT>
ExecutionResult finish_run(RunReport report, const Recorder& recorder,
                           SystemT& sys, ScenarioOutcome* out) {
  History hist = recorder.history();
  const ConsistencyReport cons = check_consistency(hist);
  ExecutionResult res;
  res.consistent = cons.ok();
  if (!cons.ok()) {
    res.violation = cons.reason;
    // File the violation while the system is still alive so the recorder can
    // snapshot trace rings, counters and clocks at the point of failure.
    if (obs::FlightRecorder* fr = sys.flight_recorder()) {
      fr->on_violation(cons.reason);
      res.flight_artifact = fr->artifact_path();
    }
  }
  if (OnlineChecker* oc = sys.online_checker()) {
    // cfg.online_check ran a StreamingCausalChecker over the same op stream
    // the recorder saw, in execution order; check_consistency fed the
    // recorded history round-robin. The verdict does not depend on the
    // feeding order, so a disagreement is a checker bug, reported as loudly
    // as a protocol bug.
    oc->finish();
    if (oc->ok() != cons.causal) {
      res.consistent = false;
      res.violation += std::string(res.violation.empty() ? "" : "; ") +
                       "online/post-hoc causal checker disagreement: online=" +
                       (oc->ok() ? "clean" : "violating") +
                       " post-hoc=" + (cons.causal ? "clean" : "violating");
    }
  }
  if (out != nullptr) {
    out->history_text = format_history(hist);
    out->counters_text = format_counters(sys.stats());
    out->node_stats.clear();
    out->totals = StatsSnapshot{};
    for (NodeId i = 0; i < sys.stats().node_count(); ++i) {
      out->node_stats.push_back(sys.stats().node_snapshot(i));
      for (std::size_t c = 0; c < kNumCounters; ++c) {
        out->totals.values[c] += out->node_stats.back().values[c];
      }
    }
    out->trace_text = sys.trace_hub() != nullptr
                          ? format_trace(sys.trace_hub()->events())
                          : std::string{};
    out->history = std::move(hist);
  }
  res.report = std::move(report);
  return res;
}

}  // namespace

ExecutionResult run_causal_scenario(const CausalScenarioConfig& cfg,
                                    Strategy& strategy, ScenarioOutcome* out) {
  CM_EXPECTS_MSG(cfg.scripts.size() <= cfg.nodes, "more scripts than nodes");
  for (const ChaosEvent& ev : cfg.chaos) {
    CM_EXPECTS_MSG((ev.kind != ChaosEvent::Kind::kRestart &&
                    ev.kind != ChaosEvent::Kind::kRecoverFromDisk) ||
                       cfg.failover,
                   "restart chaos requires failover");
    CM_EXPECTS_MSG((ev.kind != ChaosEvent::Kind::kCheckpoint &&
                    ev.kind != ChaosEvent::Kind::kCrashWithDisk &&
                    ev.kind != ChaosEvent::Kind::kCrashLosingDisk &&
                    ev.kind != ChaosEvent::Kind::kRecoverFromDisk) ||
                       cfg.persist,
                   "persist chaos requires CausalScenarioConfig::persist");
  }
  SimScheduler sched(cfg.sim);
  Recorder recorder(cfg.nodes);
  // Scenario-owned disk: declared before the system so nodes can append to
  // their stores until the transport stops.
  persist::MemVfs vfs;
  SystemOptions opts;
  opts.sim = &sched;
  if (cfg.persist) {
    opts.persist.enabled = true;
    opts.persist.dir = "sim-persist";
    opts.persist.checkpoint_every = cfg.checkpoint_every;
    opts.persist.sync_every_append = true;
    opts.persist.vfs = &vfs;
  }
  opts.trace.enabled = cfg.trace;
  if (!cfg.flight_dir.empty()) {
    opts.flight.enabled = true;
    opts.flight.force_trace = cfg.trace;  // don't force tracing if opted out
    opts.flight.recorder.artifact_dir = cfg.flight_dir;
    opts.flight.recorder.run_label = "causal_scenario";
  }
  opts.failover.enabled = cfg.failover;
  opts.failover.heartbeat = cfg.heartbeat;
  opts.failover.heartbeat_config.interval = cfg.heartbeat_interval;
  opts.failover.heartbeat_config.suspect_after = cfg.heartbeat_suspect_after;
  opts.sharding.enabled = cfg.sharding;
  opts.sharding.virtual_nodes = cfg.ring_vnodes;
  opts.online_check.enabled = cfg.online_check;
  DsmSystem<CausalNode> sys(cfg.nodes, cfg.config, opts, nullptr, &recorder);

  ChaosState st;
  st.crashed.assign(cfg.nodes, 0);
  st.finished = cfg.chaos.empty();
  const std::uint64_t base_ns = sched.now_ns();
  const bool bounded = cfg.config.request_timeout.count() > 0;
  for (NodeId i = 0; i < cfg.scripts.size(); ++i) {
    if (cfg.scripts[i].empty()) continue;
    sched.add_task(
        "p" + std::to_string(i),
        [&sys, &sched, &st, &script = cfg.scripts[i], i, bounded, base_ns] {
          CausalNode& node = sys.node(i);
          for (const ScriptOp& op : script) {
            if (!await_alive(st, i)) return;
            if (op.kind == ScriptOp::Kind::kSleep) {
              const std::uint64_t due =
                  base_ns + static_cast<std::uint64_t>(op.value);
              while (sched.now_ns() < due) {
                coop::park({}, due, "script_sleep");
              }
              continue;
            }
            if (op.kind == ScriptOp::Kind::kWrite) {
              if (bounded) {
                (void)node.try_write(op.addr, op.value);
              } else {
                node.write(op.addr, op.value);
              }
            } else {
              if (bounded) {
                (void)node.try_read(op.addr);
              } else {
                (void)node.read(op.addr);
              }
            }
            // One choice point per script position, so the explorer can
            // interleave peers (and faults) between any two operations.
            coop::yield();
          }
        });
  }
  if (!cfg.chaos.empty()) {
    sched.add_task("chaos", [&sys, &sched, &st, &events = cfg.chaos, base_ns] {
      run_chaos_script(sys, sched, st, events, base_ns);
    });
  }

  RunReport report = sched.run(strategy);
  sys.shutdown();
  return finish_run(std::move(report), recorder, sys, out);
}

ExecutionResult run_broadcast_scenario(const BroadcastScenarioConfig& cfg,
                                       Strategy& strategy,
                                       ScenarioOutcome* out) {
  CM_EXPECTS_MSG(cfg.scripts.size() <= cfg.nodes, "more scripts than nodes");
  SimScheduler sched(cfg.sim);
  Recorder recorder(cfg.nodes);
  SystemOptions opts;
  opts.sim = &sched;
  opts.trace.enabled = cfg.trace;
  if (!cfg.flight_dir.empty()) {
    opts.flight.enabled = true;
    opts.flight.force_trace = cfg.trace;
    opts.flight.recorder.artifact_dir = cfg.flight_dir;
    opts.flight.recorder.run_label = "broadcast_scenario";
  }
  opts.online_check.enabled = cfg.online_check;
  DsmSystem<BroadcastNode> sys(cfg.nodes, cfg.config, opts, nullptr,
                               &recorder);

  for (NodeId i = 0; i < cfg.scripts.size(); ++i) {
    if (cfg.scripts[i].empty()) continue;
    sched.add_task("p" + std::to_string(i),
                   [&sys, &script = cfg.scripts[i], i] {
                     BroadcastNode& node = sys.node(i);
                     for (const ScriptOp& op : script) {
                       if (op.kind == ScriptOp::Kind::kWrite) {
                         node.write(op.addr, op.value);
                       } else {
                         (void)node.read(op.addr);
                       }
                       coop::yield();
                     }
                   });
  }

  RunReport report = sched.run(strategy);
  sys.shutdown();
  return finish_run(std::move(report), recorder, sys, out);
}

RunFn make_causal_run(CausalScenarioConfig cfg) {
  return [cfg = std::move(cfg)](Strategy& s) {
    return run_causal_scenario(cfg, s);
  };
}

RunFn make_broadcast_run(BroadcastScenarioConfig cfg) {
  return [cfg = std::move(cfg)](Strategy& s) {
    return run_broadcast_scenario(cfg, s);
  };
}

CausalScenarioConfig small_scope_causal() {
  CausalScenarioConfig c;
  c.nodes = 2;
  // The classic cross-write probe: each node writes its own location, then
  // reads the other's. Two ops per process keeps exhaustive DFS tractable
  // (a few thousand schedules); a third op per process inflates the tree
  // ~20x past any reasonable unit-test budget.
  c.scripts = {
      {ScriptOp::write(0, 1), ScriptOp::read(1)},
      {ScriptOp::write(1, 3), ScriptOp::read(0)},
  };
  return c;
}

BroadcastScenarioConfig small_scope_broadcast(bool causal_delivery) {
  BroadcastScenarioConfig b;
  b.nodes = 3;
  b.config.causal_delivery = causal_delivery;
  b.scripts = {
      {ScriptOp::write(0, 1)},
      {ScriptOp::read(0), ScriptOp::write(1, 2)},
      {ScriptOp::read(1), ScriptOp::read(0)},
  };
  return b;
}

}  // namespace causalmem::sim
