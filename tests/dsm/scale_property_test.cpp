// CausalScaleProperty: the sharding layer's headline claim, checked at
// 16/64/128/256 simulated nodes. Workloads are bounded-sharing random
// walks — nodes are partitioned into fixed-size sharing groups and only
// touch their group's addresses, so every page's copyset is at most the
// group size g regardless of n. Each run is online-checked by the
// streaming causal checker (with the declared process count driving its
// frontier GC) in addition to the post-hoc check_consistency, and the
// per-node counter snapshots exposed through ScenarioOutcome turn the
// scaling claim into assertions:
//
//   - invalidation notices per write <= copyset size:  shard.inval_queued
//     <= writes * (g - 1), independent of n — O(|copyset|), not O(n);
//   - subscriptions only ride owner round trips:       copyset.subscribe
//     <= read misses + remote writes (no new fault-free round trips);
//   - messages per operation bounded by a constant independent of n —
//     the strictly-sublinear total the sharded copysets buy;
//   - notices reconcile with their queue:  shard.inval_piggybacked and
//     shard.inval_applied are each <= shard.inval_queued.
//
// Script length scales with CAUSALMEM_SCALE_OPS (like CAUSALMEM_BIG_SIM_OPS
// elsewhere) for the CI scale-matrix job.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "causalmem/common/rng.hpp"
#include "causalmem/sim/scenarios.hpp"

namespace causalmem::sim {
namespace {

/// Sharing-group size: the copyset bound every assertion leans on.
constexpr std::size_t kGroupSize = 4;
/// Addresses each group shares (page_size stays 1, so = pages per group).
constexpr std::size_t kAddrsPerGroup = 6;

std::size_t scaled_ops(std::size_t base) {
  if (const char* env = std::getenv("CAUSALMEM_SCALE_OPS")) {
    return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  return base;
}

CausalScenarioConfig scale_config(std::size_t nodes, std::size_t ops_per_node,
                                  std::uint64_t seed) {
  CausalScenarioConfig cfg;
  cfg.nodes = nodes;
  cfg.sharding = true;
  cfg.config.copysets = true;
  cfg.config.push_invalidation = true;
  cfg.online_check = true;
  // Tracing off: at 256 nodes the merged event stream dominates runtime
  // without adding assertions; the counters are the verification surface.
  cfg.trace = false;
  cfg.scripts.resize(nodes);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + nodes);
  for (NodeId p = 0; p < nodes; ++p) {
    const Addr group_base =
        static_cast<Addr>((p / kGroupSize) * kAddrsPerGroup);
    for (std::size_t i = 0; i < ops_per_node; ++i) {
      const Addr a = group_base + static_cast<Addr>(
                                      rng.next_below(kAddrsPerGroup));
      if (rng.next_double() < 0.45) {
        cfg.scripts[p].push_back(
            ScriptOp::write(a, static_cast<Value>(rng.next() >> 8)));
      } else {
        cfg.scripts[p].push_back(ScriptOp::read(a));
      }
    }
  }
  return cfg;
}

void run_scale_property(std::size_t nodes, std::size_t ops_per_node,
                        std::uint64_t seed) {
  const CausalScenarioConfig cfg = scale_config(nodes, ops_per_node, seed);
  ScenarioOutcome out;
  RandomWalkStrategy walk(seed);
  const ExecutionResult res = run_causal_scenario(cfg, walk, &out);
  ASSERT_TRUE(res.report.ok())
      << nodes << " nodes, seed " << seed << ": " << res.report.error;
  // res.consistent covers BOTH the post-hoc check_consistency verdict and
  // the online streaming checker (finish_run fails loudly if they disagree).
  ASSERT_TRUE(res.consistent)
      << nodes << " nodes, seed " << seed << ": " << res.violation;
  ASSERT_EQ(out.node_stats.size(), nodes);

  const StatsSnapshot& t = out.totals;
  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(nodes) * ops_per_node;
  const std::uint64_t writes =
      t[Counter::kWriteLocal] + t[Counter::kWriteRemote];

  // The machinery under test must actually have engaged.
  EXPECT_GT(t[Counter::kShardSubscribe], 0u) << "no copyset ever formed";
  EXPECT_GT(t[Counter::kShardInvalQueued], 0u)
      << "no invalidation notice ever queued";

  // Per-write invalidation cost is O(|copyset|): each applied write queues
  // at most one notice per subscriber other than the writer, and copysets
  // are capped at the sharing-group size by construction. The bound has no
  // n term — THE sublinearity claim, as a counter inequality.
  EXPECT_LE(t[Counter::kShardInvalQueued], writes * (kGroupSize - 1))
      << nodes << " nodes: invalidation fan-out exceeded the copyset bound";

  // Subscriptions piggyback on owner round trips that happen anyway: every
  // copyset insertion corresponds to a served remote read or write.
  EXPECT_LE(t[Counter::kShardSubscribe],
            t[Counter::kReadMiss] + t[Counter::kWriteRemote])
      << nodes << " nodes: subscribe without a carrying round trip";

  // Messages per operation bounded by a constant independent of n: a
  // blocking remote op costs one request + one reply, plus the occasional
  // standalone INV_BATCH flush. 4 is generous; O(n) fan-out would blow
  // through it immediately at 64+ nodes.
  EXPECT_LE(t.messages_sent(), 4 * total_ops)
      << nodes << " nodes: messages per op grew past a scale-free constant";

  // Notices reconcile with the queue they leave: each queued notice rides
  // at most one frame (piggybacked or on an INV_BATCH carrier) and drops at
  // most one cached page.
  EXPECT_LE(t[Counter::kShardInvalPiggybacked], t[Counter::kShardInvalQueued]);
  EXPECT_LE(t[Counter::kShardInvalApplied], t[Counter::kShardInvalQueued]);
}

TEST(CausalScaleProperty, SixteenNodesCheckerCleanWithBoundedFanout) {
  run_scale_property(16, scaled_ops(40), 11);
}

TEST(CausalScaleProperty, SixtyFourNodesCheckerCleanWithBoundedFanout) {
  run_scale_property(64, scaled_ops(24), 12);
}

TEST(CausalScaleProperty, HundredTwentyEightNodesCheckerCleanWithBoundedFanout) {
  run_scale_property(128, scaled_ops(12), 13);
}

TEST(CausalScaleProperty, TwoFiftySixNodesCheckerCleanWithBoundedFanout) {
  run_scale_property(256, scaled_ops(8), 14);
}

TEST(CausalScaleProperty, MessageCostPerOpIsScaleFree) {
  // The ratio test behind the sublinearity claim: messages per operation at
  // 64 nodes must stay within 2x of the 16-node figure for the SAME
  // per-node workload shape. An O(n) invalidation fan-out would multiply
  // the per-op cost by ~4x when n quadruples; a copyset-scoped one keeps it
  // flat (both runs share the group size, so only n varies).
  auto msgs_per_op = [](std::size_t nodes, std::uint64_t seed) {
    const std::size_t ops_per_node = 24;
    const CausalScenarioConfig cfg = scale_config(nodes, ops_per_node, seed);
    ScenarioOutcome out;
    RandomWalkStrategy walk(seed);
    const ExecutionResult res = run_causal_scenario(cfg, walk, &out);
    EXPECT_TRUE(res.report.ok()) << res.report.error;
    EXPECT_TRUE(res.consistent) << res.violation;
    return static_cast<double>(out.totals.messages_sent()) /
           static_cast<double>(nodes * ops_per_node);
  };
  const double at16 = msgs_per_op(16, 21);
  const double at64 = msgs_per_op(64, 21);
  ASSERT_GT(at16, 0.0);
  EXPECT_LE(at64, 2.0 * at16)
      << "per-op message cost grew with n despite bounded copysets (16 "
         "nodes: "
      << at16 << " msgs/op, 64 nodes: " << at64 << " msgs/op)";
}

}  // namespace
}  // namespace causalmem::sim
