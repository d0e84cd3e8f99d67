// E11: Section 3.2's "scaling the unit of sharing to a page". With
// page_size > 1 a read miss fetches the whole page, neighbouring reads hit,
// and invalidation works at page granularity (including false sharing).
#include <gtest/gtest.h>

#include <thread>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"

namespace causalmem {
namespace {

CausalConfig page_config(Addr page_size) {
  CausalConfig cfg;
  cfg.page_size = page_size;
  return cfg;
}

TEST(PageMode, PageFetchServesNeighbouringReads) {
  // 2 nodes, pages of 4: node 0 owns page 0 (addrs 0..3), node 1 page 1.
  DsmSystem<CausalNode> sys(2, page_config(4));
  sys.memory(1).write(4, 40);
  sys.memory(1).write(5, 50);
  sys.memory(1).write(6, 60);
  EXPECT_EQ(sys.memory(0).read(4), 40);  // one miss fetches the page
  EXPECT_EQ(sys.memory(0).read(5), 50);  // hits
  EXPECT_EQ(sys.memory(0).read(6), 60);
  EXPECT_EQ(sys.memory(0).read(7), 0);   // untouched cell of the same page
  EXPECT_EQ(sys.stats().total()[Counter::kMsgReadRequest], 1u);
}

TEST(PageMode, OwnershipIsPerPage) {
  DsmSystem<CausalNode> sys(2, page_config(4));
  EXPECT_TRUE(sys.memory(0).owns(0));
  EXPECT_TRUE(sys.memory(0).owns(3));
  EXPECT_FALSE(sys.memory(0).owns(4));
  EXPECT_TRUE(sys.memory(1).owns(7));
}

TEST(PageMode, RemoteWriteUpdatesCachedPageCell) {
  DsmSystem<CausalNode> sys(2, page_config(4));
  EXPECT_EQ(sys.memory(0).read(4), 0);  // cache page 1
  sys.memory(0).write(5, 55);           // remote write into the cached page
  EXPECT_EQ(sys.memory(0).read(5), 55) << "writer must see its own write";
  EXPECT_EQ(sys.memory(1).read(5), 55);
  EXPECT_EQ(sys.stats().total()[Counter::kMsgReadRequest], 1u)
      << "the cached page absorbed the local re-read";
}

TEST(PageMode, FalseSharingInvalidatesWholePage) {
  // Node 0 caches page 1 (addrs 4..7); node 1 then writes addr 4 and a
  // causally later marker on another page; fetching the marker invalidates
  // the whole cached page even though only one cell changed.
  DsmSystem<CausalNode> sys(3, page_config(4));
  EXPECT_EQ(sys.memory(0).read(4), 0);
  EXPECT_TRUE(sys.node(0).is_cached(4));
  sys.memory(1).write(4, 44);
  sys.memory(1).write(8, 1);  // page 2, owned by node 2 — causally after
  EXPECT_EQ(sys.memory(0).read(8), 1);
  EXPECT_FALSE(sys.node(0).is_cached(4))
      << "page stamp is older than the introduced stamp";
  EXPECT_EQ(sys.memory(0).read(7), 0);  // refetch brings fresh page
  EXPECT_EQ(sys.memory(0).read(4), 44);
}

TEST(PageMode, RandomWorkloadIsCausallyConsistent) {
  for (const Addr page_size : {2u, 4u, 8u}) {
    Recorder recorder(3);
    {
      DsmSystem<CausalNode> sys(3, page_config(page_size), {}, nullptr,
                                &recorder);
      std::vector<std::jthread> threads;
      for (NodeId p = 0; p < 3; ++p) {
        threads.emplace_back([&sys, p] {
          Rng rng(7000 + p);
          for (int i = 0; i < 150; ++i) {
            const Addr a = rng.next_below(24);
            if (rng.chance(0.4)) {
              sys.memory(p).write(a, static_cast<Value>(rng.next()));
            } else {
              (void)sys.memory(p).read(a);
            }
          }
        });
      }
    }
    const ConsistencyReport cons = check_consistency(recorder.history());
    EXPECT_TRUE(cons.ok()) << "page_size " << page_size << ": " << cons.reason;
  }
}

TEST(PageMode, PageSizeOneMatchesPaperProtocol) {
  // Degenerate page = the exact Figure 4 algorithm; writer caches its
  // certified remote write.
  DsmSystem<CausalNode> sys(2, page_config(1));
  sys.memory(0).write(1, 7);
  EXPECT_TRUE(sys.node(0).is_cached(1));
  EXPECT_EQ(sys.memory(0).read(1), 7);
  EXPECT_EQ(sys.stats().total()[Counter::kMsgReadRequest], 0u);
}

}  // namespace
}  // namespace causalmem
