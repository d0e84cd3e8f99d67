// E7: the Section 4.2 distributed dictionary on causal memory with
// owner-wins conflict resolution.
#include "causalmem/apps/dict/dictionary.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"

namespace causalmem {
namespace {

constexpr std::size_t kSlots = 8;

CausalConfig dict_config() {
  CausalConfig cfg;
  cfg.conflict = ConflictPolicy::kOwnerWins;
  return cfg;
}

struct DictSystem {
  explicit DictSystem(std::size_t n, OpObserver* obs = nullptr)
      : sys(n, dict_config(), {}, Dictionary::make_ownership(n, kSlots), obs) {
    for (NodeId i = 0; i < n; ++i) {
      dicts.push_back(std::make_unique<Dictionary>(sys.memory(i), n, kSlots));
    }
  }
  Dictionary& operator[](NodeId i) { return *dicts[i]; }

  DsmSystem<CausalNode> sys;
  std::vector<std::unique_ptr<Dictionary>> dicts;
};

TEST(Dictionary, InsertThenLocalLookup) {
  DictSystem d(2);
  EXPECT_TRUE(d[0].insert(100));
  EXPECT_TRUE(d[0].lookup(100));
  EXPECT_FALSE(d[0].lookup(200));
}

TEST(Dictionary, LookupSeesRemoteInsert) {
  DictSystem d(3);
  EXPECT_TRUE(d[1].insert(42));
  EXPECT_TRUE(d[0].lookup(42)) << "scan must fetch row 1 from its owner";
}

TEST(Dictionary, DeleteRemovesItemEverywhereEventually) {
  DictSystem d(2);
  EXPECT_TRUE(d[0].insert(7));
  EXPECT_TRUE(d[1].lookup(7));
  EXPECT_TRUE(d[1].remove(7));  // deletes from P0's row, remotely
  d[0].refresh();
  d[1].refresh();
  EXPECT_FALSE(d[1].lookup(7));
  EXPECT_FALSE(d[0].lookup(7));
}

TEST(Dictionary, RowFillsUpAndInsertFails) {
  DictSystem d(1);
  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_TRUE(d[0].insert(static_cast<Value>(100 + i)));
  }
  EXPECT_FALSE(d[0].insert(999));
}

TEST(Dictionary, SlotsAreReusedAfterDelete) {
  DictSystem d(1);
  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_TRUE(d[0].insert(static_cast<Value>(100 + i)));
  }
  EXPECT_TRUE(d[0].remove(103));
  EXPECT_TRUE(d[0].insert(999)) << "lambda slot must be reusable";
  EXPECT_TRUE(d[0].lookup(999));
  EXPECT_FALSE(d[0].lookup(103));
}

TEST(Dictionary, KnowledgeMonotonicity) {
  // "After each communication, receiving processes know everything about
  // the dictionary known by the writing process at the write operation."
  // P0 inserts a then b; when P1 sees b (inserted later into the same row),
  // it must also see a on the same fresh scan.
  DictSystem d(2);
  EXPECT_TRUE(d[0].insert(11));
  EXPECT_TRUE(d[0].insert(22));
  d[1].refresh();
  if (d[1].lookup(22)) {
    EXPECT_TRUE(d[1].lookup(11));
  }
}

TEST(Dictionary, ConcurrentDeleteLosesToOwnersNewerInsert) {
  // The paper's owner-wins scenario: P0 deletes x and reuses the slot for y;
  // P1, still seeing x, issues a concurrent delete of x. The delete's lambda
  // is concurrent with P0's newer insert and must lose — y survives.
  DictSystem d(2);
  EXPECT_TRUE(d[0].insert(500));
  EXPECT_TRUE(d[1].lookup(500));  // P1 now caches row 0 containing 500

  // P0: delete x=500 and insert y=600 into (necessarily) the same slot.
  EXPECT_TRUE(d[0].remove(500));
  EXPECT_TRUE(d[0].insert(600));

  // P1 still sees the stale 500 in its cache and deletes it "concurrently".
  EXPECT_TRUE(d[1].remove(500));

  // Owner-wins: P0's 600 must survive P1's lambda.
  EXPECT_TRUE(d[0].lookup(600)) << "owner's newer insert must be favored";
  d[1].refresh();
  EXPECT_TRUE(d[1].lookup(600));
  EXPECT_FALSE(d[1].lookup(500));
}

TEST(Dictionary, ViewsConvergeAfterQuiescence) {
  constexpr std::size_t kProcs = 3;
  DictSystem d(kProcs);
  {
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < kProcs; ++p) {
      threads.emplace_back([&d, p] {
        Rng rng(40 + p);
        for (int i = 0; i < 6; ++i) {
          const Value v = static_cast<Value>(1000 * (p + 1) + i);
          ASSERT_TRUE(d[p].insert(v));
          if (rng.chance(0.3)) {
            (void)d[p].remove(v);
          }
        }
      });
    }
  }
  // Liveness: in the absence of further operations, refreshed views agree.
  std::vector<std::vector<Value>> views(kProcs);
  for (NodeId p = 0; p < kProcs; ++p) {
    d[p].refresh();
    auto snap = d[p].snapshot();
    std::sort(snap.begin(), snap.end());
    views[p] = std::move(snap);
  }
  EXPECT_EQ(views[0], views[1]);
  EXPECT_EQ(views[1], views[2]);
}

TEST(Dictionary, RandomWorkloadHistoryIsCausallyConsistent) {
  constexpr std::size_t kProcs = 3;
  Recorder recorder(kProcs);
  {
    DictSystem d(kProcs, &recorder);
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < kProcs; ++p) {
      threads.emplace_back([&d, p] {
        Rng rng(900 + p);
        std::vector<Value> mine;
        for (int i = 0; i < 7; ++i) {
          const Value v = static_cast<Value>(10000 * (p + 1) + i);
          if (d[p].insert(v)) mine.push_back(v);
          (void)d[p].lookup(static_cast<Value>(
              10000 * (rng.next_below(kProcs) + 1) + rng.next_below(7)));
          if (!mine.empty() && rng.chance(0.4)) {
            (void)d[p].remove(mine.back());
            mine.pop_back();
          }
        }
      });
    }
  }
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(Dictionary, LambdaAndZeroAreNotInsertable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DictSystem d(1);
        d[0].insert(kLambda);
      },
      "reserved");
}

}  // namespace
}  // namespace causalmem
