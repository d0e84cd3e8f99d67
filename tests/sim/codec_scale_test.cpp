// The byte codec is transparent at simulation scale: the sharded
// configuration of the 256-node benchmark, built at its full 256 nodes
// straight through DsmSystem with SystemOptions::sim, runs the same seeded
// random walk with every message round-tripped through the codec and
// without it, and the two executions must be identical step for step. This
// is the test that drives clocks through the wire frame at a large n.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "causalmem/common/coop.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/recorder.hpp"
#include "causalmem/sim/scenarios.hpp"
#include "causalmem/sim/scheduler.hpp"

namespace causalmem::sim {
namespace {

constexpr std::size_t kNodes = 256;
constexpr std::size_t kGroup = 4;         ///< nodes sharing addresses
constexpr std::size_t kAddrsPerGroup = 4;
constexpr std::size_t kOpsPerNode = 4;

struct Observed {
  std::string schedule;
  std::uint64_t steps{0};
  std::uint64_t end_ns{0};
  std::vector<std::string> history;  ///< one line per process
  std::vector<StatsSnapshot> stats;  ///< per node
};

Observed run_walk(std::uint64_t seed, bool exercise_codec) {
  SimScheduler sched;
  Recorder recorder(kNodes);
  SystemOptions opts;
  opts.sim = &sched;
  opts.exercise_codec = exercise_codec;
  opts.sharding.enabled = true;
  opts.sharding.virtual_nodes = CausalScenarioConfig{}.ring_vnodes;
  opts.online_check.enabled = true;
  CausalConfig config;
  config.copysets = true;
  config.push_invalidation = true;
  DsmSystem<CausalNode> sys(kNodes, config, opts, nullptr, &recorder);

  Rng rng(seed);
  Value next_value = 1;
  for (NodeId p = 0; p < kNodes; ++p) {
    std::vector<std::pair<Addr, Value>> script;  // value 0: a read
    const Addr base = static_cast<Addr>(p / kGroup) * kAddrsPerGroup;
    for (std::size_t i = 0; i < kOpsPerNode; ++i) {
      const Addr a = base + rng.next_below(kAddrsPerGroup);
      script.emplace_back(a, rng.chance(0.5) ? next_value++ : 0);
    }
    sched.add_task("p" + std::to_string(p), [&sys, p, script] {
      CausalNode& node = sys.node(p);
      for (const auto& [a, v] : script) {
        if (v != 0) {
          node.write(a, v);
        } else {
          (void)node.read(a);
        }
        coop::yield();
      }
    });
  }
  RandomWalkStrategy walk(seed);
  const RunReport report = sched.run(walk);
  sys.shutdown();
  EXPECT_TRUE(report.ok()) << report.error;

  Observed o;
  o.schedule = report.schedule.to_text();
  o.steps = report.steps;
  o.end_ns = report.end_ns;
  for (const auto& ops : recorder.history().per_process) {
    std::string line;
    for (const Operation& op : ops) line += op.to_string() + ';';
    o.history.push_back(std::move(line));
  }
  for (NodeId i = 0; i < kNodes; ++i) {
    o.stats.push_back(sys.stats().node_snapshot(i));
  }
  return o;
}

TEST(CodecAtScale, ShardedRandomWalksMatchWithAndWithoutTheCodec) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Observed plain = run_walk(seed, false);
    const Observed coded = run_walk(seed, true);
    EXPECT_GT(plain.steps, kNodes * kOpsPerNode) << "seed " << seed;
    EXPECT_EQ(plain.schedule, coded.schedule) << "seed " << seed;
    EXPECT_EQ(plain.steps, coded.steps) << "seed " << seed;
    EXPECT_EQ(plain.end_ns, coded.end_ns) << "seed " << seed;
    EXPECT_EQ(plain.history, coded.history) << "seed " << seed;
    ASSERT_EQ(plain.stats.size(), coded.stats.size());
    for (NodeId i = 0; i < kNodes; ++i) {
      EXPECT_EQ(plain.stats[i].values, coded.stats[i].values)
          << "seed " << seed << " node " << i;
    }
  }
}

}  // namespace
}  // namespace causalmem::sim
