// Property tests: for every configuration of the causal DSM, every recorded
// random concurrent execution must satisfy Definition 2 (checked by the
// Definition-1 oracle). This is the main falsification harness for the
// protocol implementation — invalidation strategies, conflict policies,
// write modes, page sizes, latency/jitter, cache pressure and the TCP
// transport are all swept.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <cstdlib>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/causal_checker.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/streaming_checker.hpp"
#include "causalmem/obs/flight_recorder.hpp"
#include "causalmem/history/recorder.hpp"
#include "causalmem/sim/scenarios.hpp"

namespace causalmem {
namespace {

struct PropertyCase {
  std::string name;
  std::size_t nodes{3};
  std::size_t addrs{8};
  int ops_per_node{150};
  int threads_per_node{1};
  double write_ratio{0.5};
  double discard_ratio{0.0};
  CausalConfig config{};
  SystemOptions options{};
  std::uint64_t seeds{3};
};

std::ostream& operator<<(std::ostream& os, const PropertyCase& c) {
  return os << c.name;
}

class CausalPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(CausalPropertyTest, RandomExecutionIsCausallyConsistent) {
  const PropertyCase& pc = GetParam();
  for (std::uint64_t seed = 1; seed <= pc.seeds; ++seed) {
    Recorder recorder(pc.nodes);
    std::string flight_artifact;
    // The checker runs while the system is still alive: configs that arm
    // the flight recorder dump the full observability state (correlated
    // trace, counters, clocks, recent ops) on a violation, before teardown
    // discards it. CI uploads the artifact directory on failure.
    std::optional<CausalViolation> violation;
    {
      DsmSystem<CausalNode> sys(pc.nodes, pc.config, pc.options, nullptr,
                                &recorder);
      {
        std::vector<std::jthread> threads;
        for (NodeId p = 0; p < pc.nodes; ++p) {
          for (int t = 0; t < pc.threads_per_node; ++t) {
            threads.emplace_back([&sys, &pc, p, t, seed] {
              Rng rng(seed * 7919 + p * 104729 + t * 7547);
              SharedMemory& mem = sys.memory(p);
              for (int i = 0; i < pc.ops_per_node; ++i) {
                const Addr a = rng.next_below(pc.addrs);
                const double roll = rng.next_double();
                if (roll < pc.write_ratio) {
                  mem.write(a, static_cast<Value>(rng.next() >> 8));
                } else if (roll < pc.write_ratio + pc.discard_ratio) {
                  (void)mem.discard(a);
                } else {
                  (void)mem.read(a);
                }
              }
              mem.flush();
            });
          }
        }
      }
      const History h = recorder.history();
      violation = CausalChecker(h).check();
      if (violation.has_value()) {
        if (obs::FlightRecorder* fr = sys.flight_recorder()) {
          fr->on_violation(violation->reason);
          flight_artifact = fr->artifact_path();
        }
      }
      // Differential cross-validation on real protocol histories: the
      // streaming checker must agree with the brute Definition-1 oracle on
      // every configuration of the sweep (its small-scope half; the
      // BigHistory suite below covers the 10^5..10^6-op scale brute force
      // cannot reach).
      const auto stream = StreamingCausalChecker::check(h);
      ASSERT_EQ(stream.causal, !violation.has_value())
          << pc.name << " seed=" << seed
          << ": streaming/brute verdict disagreement"
          << (violation.has_value() ? " (brute: " + violation->reason + ")"
                                    : "");
    }
    ASSERT_FALSE(violation.has_value())
        << pc.name << " seed=" << seed << ": " << violation->reason
        << (flight_artifact.empty()
                ? ""
                : "\nflight-recorder dump: " + flight_artifact);
  }
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;

  PropertyCase base;
  base.name = "figure4_default";
  cases.push_back(base);

  PropertyCase two = base;
  two.name = "two_nodes_hot_location";
  two.nodes = 2;
  two.addrs = 2;
  two.ops_per_node = 250;
  cases.push_back(two);

  PropertyCase five = base;
  five.name = "five_nodes";
  five.nodes = 5;
  five.ops_per_node = 80;
  cases.push_back(five);

  PropertyCase writes = base;
  writes.name = "write_heavy";
  writes.write_ratio = 0.8;
  cases.push_back(writes);

  PropertyCase reads = base;
  reads.name = "read_heavy_with_discards";
  reads.write_ratio = 0.2;
  reads.discard_ratio = 0.2;
  cases.push_back(reads);

  PropertyCase flush = base;
  flush.name = "flush_all_invalidation";
  flush.config.invalidation = InvalidationStrategy::kFlushAll;
  cases.push_back(flush);

  PropertyCase owner_wins = base;
  owner_wins.name = "owner_wins_conflicts";
  owner_wins.config.conflict = ConflictPolicy::kOwnerWins;
  owner_wins.write_ratio = 0.7;
  owner_wins.addrs = 3;
  cases.push_back(owner_wins);

  // The two stress configs most likely to shake out an ordering bug arm the
  // flight recorder: a checker violation leaves a post-mortem artifact under
  // flightrec/ (relative to the test working directory) for CI to upload.
  const auto arm_flight = [](PropertyCase* c) {
    c->options.flight.enabled = true;
    c->options.flight.recorder.artifact_dir = "flightrec";
    c->options.flight.recorder.run_label = "property_" + c->name;
  };

  PropertyCase async = base;
  async.name = "async_writes";
  async.config.write_mode = WriteMode::kAsync;
  arm_flight(&async);
  cases.push_back(async);

  PropertyCase paged = base;
  paged.name = "page_size_4";
  paged.config.page_size = 4;
  paged.addrs = 16;
  cases.push_back(paged);

  PropertyCase tiny_cache = base;
  tiny_cache.name = "cache_pressure";
  tiny_cache.config.cache_capacity_pages = 2;
  cases.push_back(tiny_cache);

  PropertyCase jitter = base;
  jitter.name = "latency_jitter";
  jitter.options.latency.base = std::chrono::microseconds(20);
  jitter.options.latency.jitter = std::chrono::microseconds(80);
  jitter.ops_per_node = 60;
  jitter.seeds = 2;
  cases.push_back(jitter);

  PropertyCase codec = base;
  codec.name = "codec_exercised";
  codec.options.exercise_codec = true;
  codec.seeds = 2;
  cases.push_back(codec);

  PropertyCase tcp = base;
  tcp.name = "tcp_transport";
  tcp.options.use_tcp = true;
  tcp.ops_per_node = 60;
  tcp.seeds = 2;
  cases.push_back(tcp);

  PropertyCase faulty = base;
  faulty.name = "faulty_reliable_drop15";
  faulty.options.faults.drop_rate = 0.15;
  faulty.options.faults.dup_rate = 0.05;
  faulty.options.faults.delay_rate = 0.05;
  faulty.options.faults.delay_base = std::chrono::microseconds(200);
  faulty.options.faults.delay_jitter = std::chrono::microseconds(500);
  faulty.options.reliable = true;
  faulty.ops_per_node = 60;
  faulty.seeds = 2;
  cases.push_back(faulty);

  PropertyCase faulty_paged = faulty;
  faulty_paged.name = "faulty_reliable_pages";
  faulty_paged.config.page_size = 4;
  faulty_paged.addrs = 16;
  arm_flight(&faulty_paged);
  cases.push_back(faulty_paged);

  PropertyCase async_paged = base;
  async_paged.name = "async_plus_pages";
  async_paged.config.write_mode = WriteMode::kAsync;
  async_paged.config.page_size = 4;
  async_paged.addrs = 16;
  cases.push_back(async_paged);

  PropertyCase read_through = base;
  read_through.name = "read_through_atomic_mode";
  read_through.config.read_through = true;
  read_through.ops_per_node = 80;
  cases.push_back(read_through);

  // NOTE deliberately absent: a "threads_per_node > 1, check the per-NODE
  // history" case. A node shared by several application threads is NOT one
  // causal process: two concurrent in-flight reads can complete out of
  // knowledge order, so the interleaved per-node sequence can violate
  // Definition 1 even though each *thread's* own sequence is causal (see
  // tests/dsm/scale_test.cpp and DESIGN.md §6 rule 5).

  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CausalPropertyTest, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return info.param.name;
    });

// --- big-history property run --------------------------------------------
//
// The sweep above keeps histories small enough for the brute oracle; this
// suite drives the real protocol at the scale only the streaming checker can
// reach. The online checker rides the observer chain during the run, so a
// violation is caught at the op that commits it (and, were the flight
// recorder armed, dumped with live state). Default is ~10^5 total ops;
// CI's big-history job sets CAUSALMEM_BIG_HISTORY_OPS=333334 per node for
// the 10^6-op acceptance run.
TEST(BigHistory, OnlineCheckedThreadedRunAtScale) {
  const int ops_per_node = [] {
    if (const char* env = std::getenv("CAUSALMEM_BIG_HISTORY_OPS")) {
      return static_cast<int>(std::strtol(env, nullptr, 10));
    }
    return 33'334;
  }();
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kAddrs = 64;
  const std::uint64_t total =
      static_cast<std::uint64_t>(ops_per_node) * kNodes;

  // Post-hoc cross-validation needs the whole history in memory; keep the
  // recorder (and the second checking pass) for the default size and rely
  // on the online verdict alone at the 10^6 scale.
  const bool record = total <= 200'000;
  Recorder recorder(kNodes);

  SystemOptions options;
  options.online_check.enabled = true;
  DsmSystem<CausalNode> sys(kNodes, {}, options, nullptr,
                            record ? &recorder : nullptr);
  {
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < kNodes; ++p) {
      threads.emplace_back([&sys, p, ops_per_node] {
        Rng rng(0xB16'41570ULL + p * 104729);
        SharedMemory& mem = sys.memory(p);
        for (int i = 0; i < ops_per_node; ++i) {
          const Addr a = rng.next_below(kAddrs);
          if (rng.next_double() < 0.4) {
            mem.write(a, static_cast<Value>(rng.next() >> 8));
          } else {
            (void)mem.read(a);
          }
        }
        mem.flush();
      });
    }
  }

  OnlineChecker* oc = sys.online_checker();
  ASSERT_NE(oc, nullptr);
  oc->finish();
  ASSERT_TRUE(oc->ok())
      << "online causal violation in a " << total << "-op run: "
      << (oc->violation().has_value() ? oc->violation()->detail : "<none>");
  const StreamingStats st = oc->stats();
  EXPECT_EQ(st.ops_seen, total);
  EXPECT_EQ(st.ops_processed, total);
  EXPECT_EQ(st.pending_ops, 0u);
  // The point of streaming: state must stay a small fraction of the
  // history. The bound is deliberately loose — it exists to catch a GC
  // regression (unbounded growth), not to pin the constant.
  EXPECT_LT(st.peak_approx_bytes, 64u << 20)
      << "streaming checker state grew past 64 MiB on " << total << " ops";

  if (record) {
    const ConsistencyReport cons = check_consistency(recorder.history());
    EXPECT_TRUE(cons.ok()) << cons.reason;
    EXPECT_EQ(cons.causal, oc->ok())
        << "online and post-hoc verdicts disagree on the same run";
  }
}

// --- deterministic-simulation seed matrix --------------------------------
//
// The thread-based sweep above explores whatever interleavings the OS
// scheduler happens to produce; this matrix drives the same protocol under
// sim::SimScheduler random walks, where every interleaving decision is a
// recorded choice. A failing seed is therefore a complete reproduction
// recipe (rerun the seed), not a flake.

/// Per-seed random scenario: 3 nodes, 4 locations, 6 scripted ops per node.
/// With `chaos`, a seed-chosen victim crashes at a seed-chosen virtual time
/// and restarts later; bounded requests + failover keep clients live.
sim::CausalScenarioConfig sim_property_case(std::uint64_t seed, bool chaos) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  sim::CausalScenarioConfig cfg;
  cfg.nodes = 3;
  cfg.scripts.resize(cfg.nodes);
  for (auto& script : cfg.scripts) {
    for (int i = 0; i < 6; ++i) {
      const Addr a = static_cast<Addr>(rng.next_below(4));
      if (rng.next_double() < 0.5) {
        script.push_back(
            sim::ScriptOp::write(a, static_cast<Value>(rng.next() >> 8)));
      } else {
        script.push_back(sim::ScriptOp::read(a));
      }
    }
  }
  if (chaos) {
    cfg.failover = true;
    cfg.heartbeat = true;
    cfg.heartbeat_interval = std::chrono::microseconds(100);
    cfg.heartbeat_suspect_after = std::chrono::microseconds(400);
    cfg.config.request_timeout = std::chrono::microseconds(200);
    cfg.config.request_retries = 2;
    const NodeId victim = static_cast<NodeId>(rng.next_below(cfg.nodes));
    const std::uint64_t crash_at = 10'000 + rng.next_below(90'000);
    cfg.chaos = {sim::ChaosEvent::crash(crash_at, victim),
                 sim::ChaosEvent::restart(crash_at + 400'000, victim)};
  }
  return cfg;
}

TEST(CausalSimProperty, RandomWalkSeedMatrixCheckerClean) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const sim::CausalScenarioConfig cfg = sim_property_case(seed, false);
    sim::RandomWalkStrategy walk(seed);
    const sim::ExecutionResult res = sim::run_causal_scenario(cfg, walk);
    ASSERT_TRUE(res.report.ok())
        << "seed " << seed << ": " << res.report.error;
    ASSERT_TRUE(res.consistent) << "seed " << seed << ": " << res.violation
                                << "\nschedule:\n"
                                << res.report.schedule.to_text();
  }
}

/// Deep sim matrix: much longer scripts than the 6-op cases above, with the
/// online streaming checker running during the schedule in addition to the
/// post-hoc check_consistency (finish_run fails loudly if the two verdicts
/// ever disagree). Script length scales with CAUSALMEM_BIG_SIM_OPS for the
/// CI big-history job.
TEST(CausalSimProperty, DeepRandomWalkOnlineCheckedSeedMatrix) {
  const std::size_t ops_per_node = [] {
    if (const char* env = std::getenv("CAUSALMEM_BIG_SIM_OPS")) {
      return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    }
    // Both checks are linear, so the cost of a larger setting is the
    // simulated run itself; the default keeps tier-1 short.
    return static_cast<std::size_t>(30);
  }();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 0xD1B54A32D192ED03ULL + 7);
    sim::CausalScenarioConfig cfg;
    cfg.nodes = 3;
    cfg.online_check = true;
    cfg.scripts.resize(cfg.nodes);
    for (auto& script : cfg.scripts) {
      for (std::size_t i = 0; i < ops_per_node; ++i) {
        const Addr a = static_cast<Addr>(rng.next_below(6));
        if (rng.next_double() < 0.45) {
          script.push_back(
              sim::ScriptOp::write(a, static_cast<Value>(rng.next() >> 8)));
        } else {
          script.push_back(sim::ScriptOp::read(a));
        }
      }
    }
    sim::RandomWalkStrategy walk(seed);
    const sim::ExecutionResult res = sim::run_causal_scenario(cfg, walk);
    ASSERT_TRUE(res.report.ok())
        << "seed " << seed << ": " << res.report.error;
    ASSERT_TRUE(res.consistent) << "seed " << seed << ": " << res.violation;
  }
}

/// Same shape over the broadcast memory with vector-clock delivery gating.
/// Gated broadcast delivers causally, but concurrent writes are applied
/// last-delivery-wins without arbitration, so longer schedules can (and do)
/// produce genuine read-kill violations — a replica overwrites its own newer
/// value with a concurrent remote write and later reads resurrect it. This
/// matrix is therefore a *differential* test, not a cleanliness test: the
/// online streaming checker and the post-hoc check_consistency must agree on
/// every verdict (finish_run appends a "disagreement" marker when they
/// split), the brute Definition-1 oracle must agree with both on every
/// seed, and the deterministic scheduler must reproduce at least one
/// violating seed.
TEST(CausalSimProperty, DeepBroadcastRandomWalkCheckersAgree) {
  std::size_t violating = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 0xA24BAED4963EE407ULL + 3);
    sim::BroadcastScenarioConfig cfg = sim::small_scope_broadcast(true);
    cfg.online_check = true;
    cfg.scripts.assign(cfg.nodes, {});
    for (auto& script : cfg.scripts) {
      for (int i = 0; i < 40; ++i) {
        const Addr a = static_cast<Addr>(rng.next_below(4));
        if (rng.next_double() < 0.45) {
          script.push_back(
              sim::ScriptOp::write(a, static_cast<Value>(rng.next() >> 8)));
        } else {
          script.push_back(sim::ScriptOp::read(a));
        }
      }
    }
    sim::RandomWalkStrategy walk(seed);
    sim::ScenarioOutcome out;
    const sim::ExecutionResult res =
        sim::run_broadcast_scenario(cfg, walk, &out);
    ASSERT_TRUE(res.report.ok())
        << "seed " << seed << ": " << res.report.error;
    const auto oracle = CausalChecker(out.history).check();
    ASSERT_EQ(!oracle.has_value(), res.consistent)
        << "seed " << seed << ": oracle says "
        << (oracle.has_value() ? oracle->reason : std::string("clean"))
        << ", the run says "
        << (res.consistent ? std::string("clean") : res.violation);
    if (!res.consistent) {
      ASSERT_EQ(res.violation.find("disagreement"), std::string::npos)
          << "seed " << seed
          << ": online and post-hoc checkers split: " << res.violation;
      ++violating;
    }
  }
  EXPECT_GE(violating, 1u)
      << "expected the deterministic matrix to reproduce at least one "
         "concurrent-write inversion in the unarbitrated broadcast memory";
  EXPECT_LT(violating, 24u) << "every seed violating suggests a checker bug";
}

TEST(CausalSimProperty, ChaosCrashRestartSeedMatrixCheckerClean) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const sim::CausalScenarioConfig cfg = sim_property_case(seed, true);
    sim::RandomWalkStrategy walk(seed);
    const sim::ExecutionResult res = sim::run_causal_scenario(cfg, walk);
    ASSERT_TRUE(res.report.ok())
        << "seed " << seed << ": " << res.report.error;
    ASSERT_TRUE(res.consistent) << "seed " << seed << ": " << res.violation
                                << "\nschedule:\n"
                                << res.report.schedule.to_text();
  }
}

}  // namespace
}  // namespace causalmem
