// E12: Section 3.2's "reducing the blocking of processors" — non-blocking
// remote writes. The writer installs its value locally with its own stamp,
// the owner certifies in the background, and flush() fences. Causal
// correctness must be preserved (property-checked below).
#include <gtest/gtest.h>

#include <thread>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"

namespace causalmem {
namespace {

CausalConfig async_config() {
  CausalConfig cfg;
  cfg.write_mode = WriteMode::kAsync;
  return cfg;
}

TEST(AsyncWrite, WriterSeesItsOwnWriteImmediately) {
  DsmSystem<CausalNode> sys(2, async_config());
  sys.memory(0).write(1, 42);  // remote, non-blocking
  EXPECT_EQ(sys.memory(0).read(1), 42) << "program order must hold locally";
  sys.memory(0).flush();
  EXPECT_EQ(sys.memory(1).read(1), 42);
}

TEST(AsyncWrite, FlushFencesAllOutstandingWrites) {
  DsmSystem<CausalNode> sys(3, async_config());
  for (int i = 0; i < 50; ++i) {
    sys.memory(0).write(1, i);       // owner: node 1
    sys.memory(0).write(2, 100 + i); // owner: node 2
  }
  sys.memory(0).flush();
  EXPECT_EQ(sys.memory(1).read(1), 49);
  EXPECT_EQ(sys.memory(2).read(2), 149);
}

TEST(AsyncWrite, SameOwnerWritesApplyInProgramOrder) {
  // FIFO channels mean the owner sees a writer's writes in order; the last
  // one must stick.
  DsmSystem<CausalNode> sys(2, async_config());
  for (int i = 0; i <= 200; ++i) sys.memory(0).write(1, i);
  sys.memory(0).flush();
  EXPECT_EQ(sys.memory(1).read(1), 200);
}

TEST(AsyncWrite, AsyncPlusOwnerWinsIsRejectedAtConstruction) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  CausalConfig cfg;
  cfg.write_mode = WriteMode::kAsync;
  cfg.conflict = ConflictPolicy::kOwnerWins;
  EXPECT_DEATH({ DsmSystem<CausalNode> sys(2, cfg); },
               "last-arrival-wins");
}

TEST(AsyncWrite, RandomWorkloadRemainsCausallyConsistent) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Recorder recorder(3);
    {
      DsmSystem<CausalNode> sys(3, async_config(), {}, nullptr, &recorder);
      std::vector<std::jthread> threads;
      for (NodeId p = 0; p < 3; ++p) {
        threads.emplace_back([&sys, p, seed] {
          Rng rng(seed * 97 + p);
          for (int i = 0; i < 150; ++i) {
            const Addr a = rng.next_below(6);
            if (rng.chance(0.5)) {
              sys.memory(p).write(a, static_cast<Value>(rng.next()));
            } else {
              (void)sys.memory(p).read(a);
            }
          }
          sys.memory(p).flush();
        });
      }
    }
    const ConsistencyReport cons = check_consistency(recorder.history());
    EXPECT_TRUE(cons.ok()) << "seed " << seed << ": " << cons.reason;
  }
}

TEST(AsyncWrite, FlushIsNoOpWithoutOutstandingWrites) {
  DsmSystem<CausalNode> sys(2, async_config());
  sys.memory(0).flush();  // must not hang
  sys.memory(0).write(0, 1);  // owned: applies synchronously
  sys.memory(0).flush();
  EXPECT_EQ(sys.memory(0).read(0), 1);
}

}  // namespace
}  // namespace causalmem
