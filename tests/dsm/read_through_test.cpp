// Section 3.2's remark, as an executable feature: "a simple strategy to
// maintain correctness is to force a request to the owner on every read.
// This strategy results in a memory that satisfies atomic correctness, not
// just causal correctness, but we lose all the benefits of caching."
#include <gtest/gtest.h>

#include <barrier>
#include <thread>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"
#include "causalmem/history/sc_checker.hpp"

namespace causalmem {
namespace {

CausalConfig read_through_config() {
  CausalConfig cfg;
  cfg.read_through = true;
  return cfg;
}

TEST(ReadThrough, EveryNonOwnedReadGoesRemote) {
  DsmSystem<CausalNode> sys(2, read_through_config());
  sys.memory(1).write(1, 5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sys.memory(0).read(1), 5);
  }
  EXPECT_EQ(sys.stats().total()[Counter::kMsgReadRequest], 4u)
      << "we lose all the benefits of caching";
  EXPECT_FALSE(sys.node(0).is_cached(1));
}

TEST(ReadThrough, OwnedReadsStayLocal) {
  DsmSystem<CausalNode> sys(2, read_through_config());
  sys.memory(0).write(0, 9);
  EXPECT_EQ(sys.memory(0).read(0), 9);
  EXPECT_EQ(sys.stats().total().messages_sent(), 0u);
}

TEST(ReadThrough, WriterStillSeesItsOwnWrite) {
  DsmSystem<CausalNode> sys(2, read_through_config());
  sys.memory(0).write(1, 42);  // remote, nothing cached
  EXPECT_EQ(sys.memory(0).read(1), 42) << "FIFO puts the READ behind";
}

TEST(ReadThrough, StaleReadsAreImpossible) {
  // The Figure 5 program: with read-through, both second reads must see the
  // other's write (given both writes complete before the re-reads) — the
  // weakly consistent outcome is gone.
  DsmSystem<CausalNode> sys(2, read_through_config());
  std::barrier sync(2);
  std::vector<Value> last_reads(2);
  auto run = [&](NodeId me, Addr mine, Addr other) {
    SharedMemory& mem = sys.memory(me);
    (void)mem.read(other);
    sync.arrive_and_wait();
    mem.write(mine, 1);
    sync.arrive_and_wait();  // both writes certified
    last_reads[me] = mem.read(other);
  };
  {
    std::jthread t1(run, NodeId{0}, Addr{0}, Addr{1});
    std::jthread t2(run, NodeId{1}, Addr{1}, Addr{0});
  }
  EXPECT_EQ(last_reads[0], 1);
  EXPECT_EQ(last_reads[1], 1);
}

TEST(ReadThrough, RandomExecutionsAreSequentiallyConsistent) {
  // The paper claims atomic correctness; we verify the (implied) sequential
  // consistency of recorded executions exhaustively on small runs.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Recorder recorder(3);
    {
      DsmSystem<CausalNode> sys(3, read_through_config(), {}, nullptr,
                                &recorder);
      std::vector<std::jthread> threads;
      for (NodeId p = 0; p < 3; ++p) {
        threads.emplace_back([&sys, p, seed] {
          Rng rng(seed * 131 + p);
          for (int i = 0; i < 10; ++i) {
            const Addr a = rng.next_below(2);
            if (rng.chance(0.5)) {
              sys.memory(p).write(a, static_cast<Value>(
                                         seed * 100000 + p * 1000 + i + 1));
            } else {
              (void)sys.memory(p).read(a);
            }
          }
        });
      }
    }
    const History h = recorder.history();
    EXPECT_EQ(check_sequential_consistency(h), ScResult::kConsistent)
        << "seed " << seed << "\n" << h.to_string();
    const ConsistencyReport cons = check_consistency(h);
    EXPECT_TRUE(cons.ok()) << cons.reason;
  }
}

TEST(ReadThrough, RequiresBlockingWrites) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        CausalConfig cfg;
        cfg.read_through = true;
        cfg.write_mode = WriteMode::kAsync;
        DsmSystem<CausalNode> sys(2, cfg);
      },
      "blocking");
}

}  // namespace
}  // namespace causalmem
