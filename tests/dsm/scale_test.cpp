// Scale and concurrency-shape tests: more nodes, multiple application
// threads per node, TCP at moderate scale. All recorded executions must
// stay causally consistent.
#include <gtest/gtest.h>

#include <thread>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"

namespace causalmem {
namespace {

TEST(Scale, SixteenNodesRandomWorkload) {
  constexpr std::size_t kNodes = 16;
  Recorder recorder(kNodes);
  {
    DsmSystem<CausalNode> sys(kNodes, {}, {}, nullptr, &recorder);
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < kNodes; ++p) {
      threads.emplace_back([&sys, p] {
        Rng rng(9000 + p);
        for (int i = 0; i < 40; ++i) {
          const Addr a = rng.next_below(32);
          if (rng.chance(0.4)) {
            sys.memory(p).write(a, static_cast<Value>(rng.next() >> 8));
          } else {
            (void)sys.memory(p).read(a);
          }
        }
      });
    }
  }
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(Scale, SixNodesOverTcp) {
  constexpr std::size_t kNodes = 6;
  Recorder recorder(kNodes);
  {
    SystemOptions opts;
    opts.use_tcp = true;
    DsmSystem<CausalNode> sys(kNodes, {}, opts, nullptr, &recorder);
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < kNodes; ++p) {
      threads.emplace_back([&sys, p] {
        Rng rng(700 + p);
        for (int i = 0; i < 50; ++i) {
          const Addr a = rng.next_below(12);
          if (rng.chance(0.5)) {
            sys.memory(p).write(a, static_cast<Value>(rng.next() >> 8));
          } else {
            (void)sys.memory(p).read(a);
          }
        }
      });
    }
  }
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(Scale, SingleThreadedNodeStaysCausalDespiteMultithreadedNeighbour) {
  // A node shared by several application threads is NOT one causal process:
  // two concurrent in-flight reads can complete out of knowledge order, so
  // the *interleaved per-node* sequence may violate Definition 1 (each
  // individual thread's sequence is still causal — one op in flight at a
  // time — but operations cannot be attributed to threads in the recorded
  // history; see DESIGN.md §6 rule 5). What we can check faithfully:
  //   (a) a single-threaded node's recorded sequence stays causal while a
  //       multithreaded neighbour hammers the shared locations, as long as
  //       the neighbour's own interleaved sequence is excluded from the
  //       causality graph — which is exactly the case when the neighbour
  //       only READS (reads never create outgoing causality);
  //   (b) the whole system stays safe: no deadlocks, no lost own writes.
  constexpr std::size_t kNodes = 2;
  Recorder recorder(kNodes);
  std::atomic<bool> stop{false};
  {
    DsmSystem<CausalNode> sys(kNodes, {}, {}, nullptr, &recorder);
    std::vector<std::jthread> sibling_readers;
    for (int t = 0; t < 3; ++t) {
      // Three reader threads sharing node 1: concurrent in-flight reads,
      // discards, cache churn — but no writes, so node 1's interleaved
      // sequence cannot inject causality into anyone else's reads.
      sibling_readers.emplace_back([&sys, &stop, t] {
        Rng rng(500 + t);
        while (!stop.load()) {
          const Addr a = rng.next_below(4);
          if (rng.chance(0.2)) {
            (void)sys.memory(1).discard(a);
          } else {
            (void)sys.memory(1).read(a);
          }
        }
      });
    }
    {
      std::jthread writer_on_node0([&sys] {
        Rng rng(99);
        for (int i = 0; i < 200; ++i) {
          const Addr a = rng.next_below(4);
          if (rng.chance(0.6)) {
            sys.memory(0).write(a, static_cast<Value>(rng.next() >> 8));
          } else {
            (void)sys.memory(0).read(a);
          }
        }
      });
    }
    stop.store(true);
  }
  // Node 0's sequence must be causal. Node 1 only reads, so none of its
  // operations is in the causal past of a node-0 read: node 0's sequence
  // checked on its own gives each node-0 read the verdict it gets in the
  // whole history. Node 1's interleaved sequence is left out, because its
  // violations may be the cross-thread completion-order artifact above; a
  // violation on a *node-0* read is a real protocol bug.
  History node0 = recorder.history();
  node0.per_process.resize(1);
  const ConsistencyReport cons = check_consistency(node0);
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(Scale, HighJitterLongRun) {
  constexpr std::size_t kNodes = 4;
  Recorder recorder(kNodes);
  {
    SystemOptions opts;
    opts.latency.base = std::chrono::microseconds(5);
    opts.latency.jitter = std::chrono::microseconds(300);
    DsmSystem<CausalNode> sys(kNodes, {}, opts, nullptr, &recorder);
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < kNodes; ++p) {
      threads.emplace_back([&sys, p] {
        Rng rng(4200 + p);
        for (int i = 0; i < 60; ++i) {
          const Addr a = rng.next_below(6);
          if (rng.chance(0.5)) {
            sys.memory(p).write(a, static_cast<Value>(rng.next() >> 8));
          } else {
            (void)sys.memory(p).read(a);
          }
        }
      });
    }
  }
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

}  // namespace
}  // namespace causalmem
