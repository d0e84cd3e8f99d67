// Unit tests for StreamingCausalChecker: the paper's figure histories, one
// precise example per bad-pattern class, deferral (reads fed before their
// writes), garbage collection, CCv conflicts, and feeding-order invariance.
// The differential contract against CausalChecker over thousands of random
// histories lives in streaming_fuzz_test.cpp.
#include "causalmem/history/streaming_checker.hpp"

#include <gtest/gtest.h>

#include "causalmem/history/causal_checker.hpp"
#include "causalmem/history/history.hpp"
#include "causalmem/history/synthetic.hpp"

namespace causalmem {
namespace {

using Result = StreamingCausalChecker::Result;

TEST(StreamingChecker, EmptyHistoryIsClean) {
  const auto res = StreamingCausalChecker::check(History{});
  EXPECT_TRUE(res.cc);
  EXPECT_TRUE(res.causal);
  EXPECT_TRUE(res.ccv);
}

TEST(StreamingChecker, Figure1ConcurrentWritesAreCausal) {
  // The paper's Fig. 1: both orders of two concurrent writes observable.
  const History h = HistoryBuilder(2)
                        .write(0, 0, 1)
                        .read(0, 0, 2)
                        .write(1, 0, 2)
                        .read(1, 0, 1)
                        .build();
  ASSERT_FALSE(CausalChecker(h).check().has_value());
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_TRUE(res.causal);
  EXPECT_TRUE(res.cc);
}

TEST(StreamingChecker, Figure2StaleReadViolates) {
  // w(x,1) -> w(x,2) in program order; a reader that sees 2 then 1 reads a
  // write overwritten inside its own causal past.
  const History h = HistoryBuilder(2)
                        .write(0, 0, 1)
                        .write(0, 0, 2)
                        .read(1, 0, 2)
                        .read(1, 0, 1)
                        .build();
  ASSERT_TRUE(CausalChecker(h).check().has_value());
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_FALSE(res.causal);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(res.first->pattern, BadPattern::kWriteCORead);
  EXPECT_EQ(res.first->op, (OpRef{1, 1}));
}

TEST(StreamingChecker, ProgramOrderStaleRead) {
  // Same process: w(x,1) w(x,2) r(x)1 — stale via pure program order.
  const History h = HistoryBuilder(1)
                        .write(0, 0, 1)
                        .write(0, 0, 2)
                        .read(0, 0, 1)
                        .build();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_FALSE(res.causal);
  EXPECT_FALSE(res.cc);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(res.first->pattern, BadPattern::kWriteCORead);
}

TEST(StreamingChecker, RereadingSameValueConfirmsNotKills) {
  // Reading w twice in a row is fine: the same value confirms, not kills.
  const History h = HistoryBuilder(2)
                        .write(0, 0, 1)
                        .read(1, 0, 1)
                        .read(1, 0, 1)
                        .build();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_TRUE(res.causal);
}

TEST(StreamingChecker, WriteCOInitRead) {
  // A write of x precedes (po) a read of the initial value of x.
  const History h = HistoryBuilder(1)
                        .write(0, 0, 1)
                        .read(0, 0, 0)
                        .build();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_FALSE(res.cc);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(res.first->pattern, BadPattern::kWriteCOInitRead);
  EXPECT_EQ(violation_class_of(res.first->pattern), ViolationClass::kStale);
}

TEST(StreamingChecker, ConcurrentInitReadIsFine) {
  // The initial value stays live for processes that never saw the write.
  const History h = HistoryBuilder(2)
                        .write(0, 0, 1)
                        .read(1, 0, 0)
                        .build();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_TRUE(res.causal);
}

TEST(StreamingChecker, WriteHBReadIsCmOnlyViolation) {
  // The read-intervener pattern: w(x,1) at p0 and w(x,2) at p3 are
  // concurrent; p1 reads 1 then 2 (fine), then writes y; p2 observes y and
  // then reads x=1 — stale, but the only intervener on the w1 *-> r path is
  // p1's READ of 2, so this is a CM violation that CC alone cannot see.
  const History h = HistoryBuilder(4)
                        .write(0, 0, 1)
                        .write(3, 0, 2)
                        .read(1, 0, 1)
                        .read(1, 0, 2)
                        .write(1, 1, 5)
                        .read(2, 1, 5)
                        .read(2, 0, 1)
                        .build();
  ASSERT_TRUE(CausalChecker(h).check().has_value());
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_TRUE(res.cc);  // no write intervenes on the co path
  EXPECT_FALSE(res.causal);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(res.first->pattern, BadPattern::kWriteHBRead);
  EXPECT_EQ(res.first->op, (OpRef{2, 1}));
}

TEST(StreamingChecker, WriteHBInitRead) {
  // p0 writes x then y; p1 observes y, reads x=1 (fine), then reads the
  // INITIAL x — killed only by p1's own earlier read of 1.
  // (p0's write of x is concurrent with nothing here: it precedes via po,
  // so to isolate the hb-init case the writer must stay concurrent.)
  const History h = HistoryBuilder(3)
                        .write(0, 0, 1)
                        .read(1, 0, 1)
                        .read(1, 0, 0)
                        .build();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_FALSE(res.causal);
  ASSERT_TRUE(res.first.has_value());
  // p1's pre-clock at the init read contains its own read of 1 (a read
  // intervener) but ALSO p0's write via the merged rf edge — the write
  // intervener wins, so this is WriteCOInitRead.
  EXPECT_EQ(res.first->pattern, BadPattern::kWriteCOInitRead);
}

TEST(StreamingChecker, WriteHBInitReadPure) {
  // Isolated hb-only init violation: p1 reads w(x,1) — merging w into its
  // clock — then p2 observes p1's writeback of y and reads initial x. The
  // co path to p2's init read contains p1's READ of x=1 but w itself too…
  // keeping w out of the past requires the read intervener to be an
  // initial-value read of another location's… in practice the CO variant
  // dominates; assert the checker flags SOME stale init pattern here.
  const History h = HistoryBuilder(3)
                        .write(0, 0, 1)
                        .read(1, 0, 1)
                        .write(1, 1, 7)
                        .read(2, 1, 7)
                        .read(2, 0, 0)
                        .build();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_FALSE(res.causal);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(violation_class_of(res.first->pattern), ViolationClass::kStale);
  EXPECT_TRUE(CausalChecker(h).check().has_value());
}

TEST(StreamingChecker, ThinAirRead) {
  HistoryBuilder b(2);
  b.write(0, 0, 1).read(1, 0, 1);
  History h = b.build();
  // Point the read at a tag no write carries.
  h.per_process[1][0].value = 42;
  h.per_process[1][0].tag = WriteTag{7, 99};
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_FALSE(res.cc);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(res.first->pattern, BadPattern::kThinAirRead);
  EXPECT_EQ(violation_class_of(res.first->pattern), ViolationClass::kThinAir);
}

TEST(StreamingChecker, ReadFromOwnFutureIsCyclicCO) {
  // p0: r(x)1 then w(x,1) — the read's source is later in its own program
  // order: a po ∪ rf cycle.
  const History h = HistoryBuilder(1)
                        .read(0, 0, 1)
                        .write(0, 0, 1)
                        .build();
  ASSERT_TRUE(CausalChecker(h).check().has_value());
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_FALSE(res.cc);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(res.first->pattern, BadPattern::kCyclicCO);
  EXPECT_EQ(violation_class_of(res.first->pattern), ViolationClass::kFuture);
}

TEST(StreamingChecker, CrossProcessCycleIsCyclicCO) {
  // p0: r(y)2 w(x,1); p1: r(x)1 w(y,2) — each read needs the other
  // process's later write: a 2-process causal cycle.
  const History h = HistoryBuilder(2)
                        .read(0, 1, 2)
                        .write(0, 0, 1)
                        .read(1, 0, 1)
                        .write(1, 1, 2)
                        .build();
  ASSERT_TRUE(CausalChecker(h).check().has_value());
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_FALSE(res.cc);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(res.first->pattern, BadPattern::kCyclicCO);
  // Both parked reads are diagnosed.
  EXPECT_EQ(res.stats.ops_processed, 0u);
  EXPECT_EQ(res.stats.ops_seen, 4u);
}

TEST(StreamingChecker, DeferralHandlesForwardReferences) {
  // Feed ALL of p1 (whose read forward-references p0's write) before p0 —
  // the trace-file feeding order. Verdict must match the in-order feed.
  StreamingCausalChecker c(2);
  c.on_read(1, 0, 1, WriteTag{0, 1});
  c.on_read(1, 0, 0, WriteTag{});  // initial read AFTER seeing 1: stale
  c.on_write(0, 0, 1, WriteTag{0, 1});
  c.finish();
  EXPECT_FALSE(c.causal_ok());
  ASSERT_TRUE(c.first_violation().has_value());
  EXPECT_EQ(c.first_violation()->pattern, BadPattern::kWriteCOInitRead);
  EXPECT_EQ(c.first_violation()->op, (OpRef{1, 1}));
  EXPECT_EQ(c.stats().ops_processed, 3u);
  EXPECT_GE(c.stats().peak_pending, 2u);
}

TEST(StreamingChecker, FeedingOrderInvariance) {
  const History h = HistoryBuilder(3)
                        .write(0, 0, 1)
                        .read(1, 0, 1)
                        .write(1, 1, 2)
                        .read(2, 1, 2)
                        .read(2, 0, 1)
                        .write(2, 0, 3)
                        .read(0, 0, 3)
                        .build();
  // Process-major feed.
  const auto a = StreamingCausalChecker::check(h);
  // Round-robin feed.
  StreamingCausalChecker c(3);
  std::size_t remaining = h.total_ops();
  std::vector<std::size_t> next(3, 0);
  while (remaining > 0) {
    for (NodeId p = 0; p < 3; ++p) {
      if (next[p] < h.per_process[p].size()) {
        c.on_op(h.per_process[p][next[p]++]);
        --remaining;
      }
    }
  }
  c.finish();
  EXPECT_EQ(a.causal, c.causal_ok());
  EXPECT_EQ(a.cc, c.cc_ok());
  EXPECT_TRUE(c.causal_ok());
}

TEST(StreamingChecker, CcvOppositeObservationOrders) {
  // The classic convergence violation: two concurrent writes of x observed
  // in opposite orders by two readers. CM accepts this (each second read's
  // source is concurrent with the first's); CCv must not.
  const History h = HistoryBuilder(4)
                        .write(0, 0, 1)
                        .write(1, 0, 2)
                        .read(2, 0, 1)
                        .read(2, 0, 2)
                        .read(3, 0, 2)
                        .read(3, 0, 1)
                        .build();
  ASSERT_FALSE(CausalChecker(h).check().has_value());
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_TRUE(res.causal);
  EXPECT_TRUE(res.ccv_decided);
  EXPECT_FALSE(res.ccv);
}

TEST(StreamingChecker, CcvAgreeingOrdersStayClean) {
  const History h = HistoryBuilder(4)
                        .write(0, 0, 1)
                        .write(1, 0, 2)
                        .read(2, 0, 1)
                        .read(2, 0, 2)
                        .read(3, 0, 1)
                        .read(3, 0, 2)
                        .build();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_TRUE(res.causal);
  EXPECT_TRUE(res.ccv);
}

TEST(StreamingChecker, GcKeepsVerdictAndBoundsLiveWrites) {
  // A gossiping synthetic workload: every write is eventually dominated and
  // overwritten, so GC must both fire and keep the verdict clean.
  // Plenty of addresses: with very few, a process's own frequent rewrites
  // of each location always win the generator's Lamport arbitration, the
  // processes stop reading each other, and the checker's min-frontier (and
  // with it GC) cannot advance.
  SyntheticWorkload w;
  w.procs = 3;
  w.addrs = 32;
  w.ops = 6000;
  w.deliver_ratio = 0.8;
  const History h = make_synthetic_causal_history(w, /*seed=*/17);
  StreamingOptions opts;
  opts.gc_interval = 32;
  const auto res = StreamingCausalChecker::check(h, opts);
  EXPECT_TRUE(res.causal);
  EXPECT_GT(res.stats.gc_clock_drops, 0u);
  EXPECT_GT(res.stats.gc_tombstoned, 0u);
  // Live writes stay bounded far below the total write count.
  EXPECT_LT(res.stats.peak_live_writes, w.ops / 4);

  // And GC must not change the verdict: same history, GC off.
  StreamingOptions no_gc;
  no_gc.gc_interval = 0;
  const auto ref = StreamingCausalChecker::check(h, no_gc);
  EXPECT_EQ(ref.causal, res.causal);
  EXPECT_EQ(ref.cc, res.cc);
}

TEST(StreamingChecker, GcCollectsExactlyWhatItCollected) {
  // GC decisions are a pure function of the history: pin them on fixed
  // seeds at three declared process counts. The figures were recorded with
  // the min frontier rebuilt from every clock at each sweep; keeping it
  // incrementally must collect the same writes at the same sweeps.
  struct Case {
    std::size_t procs;
    std::size_t ops;
    std::uint64_t clock_drops;
    std::uint64_t tombstoned;
    std::uint64_t peak_live_writes;
  };
  for (const Case& c : {Case{4, 20'000, 7'850, 7'765, 209},
                        Case{64, 10'000, 3'366, 3'068, 1'088},
                        Case{256, 8'000, 927, 407, 2'811}}) {
    SyntheticWorkload w;
    w.procs = c.procs;
    w.addrs = 64;
    w.ops = c.ops;
    w.deliver_ratio = 0.8;
    const History h = make_synthetic_causal_history(w, /*seed=*/41 + c.ops);
    const auto res = StreamingCausalChecker::check(h);
    EXPECT_TRUE(res.causal) << c.procs << " procs";
    EXPECT_EQ(res.stats.gc_clock_drops, c.clock_drops) << c.procs << " procs";
    EXPECT_EQ(res.stats.gc_tombstoned, c.tombstoned) << c.procs << " procs";
    EXPECT_EQ(res.stats.tombstones, c.tombstoned) << c.procs << " procs";
    EXPECT_EQ(res.stats.peak_live_writes, c.peak_live_writes)
        << c.procs << " procs";
  }
}

TEST(StreamingChecker, SyntheticHistoryIsPinnedByDigest) {
  // The generator skips re-testing what cannot have changed; its output
  // must stay the history a full scan of every peer and dependency
  // produces. The digest was recorded from that full-scan generator.
  SyntheticWorkload w;
  w.procs = 256;
  w.addrs = 64;
  w.ops = 8'000;
  w.deliver_ratio = 0.8;
  const History h = make_synthetic_causal_history(w, /*seed=*/8'041);
  std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a, byte by byte
  const auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ULL;
    }
  };
  for (const auto& seq : h.per_process) {
    mix(seq.size());
    for (const Operation& op : seq) {
      mix(static_cast<std::uint64_t>(op.kind));
      mix(op.proc);
      mix(op.addr);
      mix(op.value);
      mix(op.tag.writer);
      mix(op.tag.seq);
    }
  }
  EXPECT_EQ(digest, 0x3ac3f3d4578a2073ULL);
}

TEST(StreamingChecker, ReadOfTombstonedWriteIsStale) {
  // Build a chain where w(x,1) is overwritten and fully dominated, then a
  // late read returns it: the tombstone path must classify it as stale.
  HistoryBuilder b(2);
  b.write(0, 0, 1).write(0, 0, 2);
  // Gossip rounds so every process's clock dominates both writes.
  b.read(1, 0, 2).write(1, 1, 10).read(0, 1, 10);
  // Churn to trigger GC sweeps.
  for (int i = 0; i < 200; ++i) {
    b.write(0, 2, 100 + i).read(1, 2, 100 + i);
  }
  b.read(1, 0, 1);  // stale: w(x,1) long tombstoned
  const History h = b.build();
  StreamingOptions opts;
  opts.gc_interval = 8;
  const auto res = StreamingCausalChecker::check(h, opts);
  EXPECT_FALSE(res.causal);
  ASSERT_TRUE(res.first.has_value());
  EXPECT_EQ(res.first->pattern, BadPattern::kWriteCORead);
  EXPECT_EQ(violation_class_of(res.first->pattern), ViolationClass::kStale);
  EXPECT_TRUE(CausalChecker(h).check().has_value());
}

TEST(StreamingChecker, SyntheticGeneratorIsCausallyConsistent) {
  // The generator's contract (synthetic.hpp): gated broadcast is causal.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SyntheticWorkload w;
    w.procs = 4;
    w.addrs = 8;
    w.ops = 300;
    const History h = make_synthetic_causal_history(w, seed);
    EXPECT_FALSE(CausalChecker(h).check().has_value()) << "seed " << seed;
    const auto res = StreamingCausalChecker::check(h);
    EXPECT_TRUE(res.causal) << "seed " << seed;
  }
}

TEST(StreamingChecker, OpenProcessSetNeverCollectsAndStaysSound) {
  // Regression: GC's "dominated by / overwritten in every process's past"
  // judgments are unsound while the process set is still open. With the
  // default nprocs_hint=0, a process-major feed of >gc_interval p0 ops used
  // to tombstone w(x,1) against procs={p0} alone; p1 — admitted later with
  // an empty causal past — then legally read it and was reported stale.
  HistoryBuilder b(2);
  b.write(0, 0, 1).write(0, 0, 2);
  for (int i = 0; i < 130; ++i) b.write(0, 1, 100 + i);
  b.read(1, 0, 1);  // legal: p1 never observed w(x,2)
  const History h = b.build();
  ASSERT_FALSE(CausalChecker(h).check().has_value());

  StreamingCausalChecker c;  // open process set, default GC interval
  for (NodeId p = 0; p < h.process_count(); ++p) {
    for (const Operation& o : h.per_process[p]) c.on_op(o);
  }
  c.finish();
  EXPECT_TRUE(c.causal_ok()) << c.first_violation()->detail;
  EXPECT_EQ(c.stats().gc_clock_drops, 0u);
  EXPECT_EQ(c.stats().gc_tombstoned, 0u);
}

TEST(StreamingChecker, LateAdmissionBeforeAnyDropDisablesGc) {
  // A process beyond the declared set, admitted before GC dropped anything,
  // demotes the checker to the open-set regime: later sweeps collect
  // nothing, and the late process's stale-looking-but-legal read stays
  // clean despite many crossed GC intervals.
  StreamingOptions opts;
  opts.gc_interval = 4;
  StreamingCausalChecker c(1, opts);
  c.on_write(0, 0, 1, WriteTag{0, 1});
  c.on_write(0, 0, 2, WriteTag{0, 2});
  c.on_read(1, 0, 1, WriteTag{0, 1});  // late admission; legal read of w1
  for (std::uint64_t i = 0; i < 40; ++i) {
    c.on_write(0, 1, static_cast<Value>(100 + i), WriteTag{0, 3 + i});
  }
  c.finish();
  EXPECT_TRUE(c.causal_ok());
  EXPECT_EQ(c.stats().gc_clock_drops, 0u);
  EXPECT_EQ(c.stats().gc_tombstoned, 0u);
}

TEST(StreamingChecker, DeclaredProcessSetStillCollects) {
  // The same shape with the process count declared up front: GC fires, and
  // the verdict is unchanged (w(x,1) cannot be tombstoned because p1's
  // clock never dominates w(x,2)).
  HistoryBuilder b(2);
  b.write(0, 0, 1).write(0, 0, 2);
  for (int i = 0; i < 130; ++i) b.write(0, 1, 100 + i);
  b.read(1, 0, 1);
  const History h = b.build();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_TRUE(res.causal);
}

TEST(StreamingChecker, ReadBehindThinAirChainIsNotCyclic) {
  // Regression: p1 parks on a thin-air read with a valid write queued
  // behind it; p2's read of that write is collateral of the thin air, not a
  // causal cycle. finish() used to diagnose it as CyclicCO ("read from the
  // causal future") even though the read's write exists and the read is
  // valid.
  StreamingCausalChecker c(3);
  c.on_read(1, 0, 42, WriteTag{9, 9});  // no such write anywhere
  c.on_write(1, 1, 5, WriteTag{1, 1});  // valid, but queued behind it
  c.on_read(2, 1, 5, WriteTag{1, 1});   // waits on the queued write
  c.finish();
  EXPECT_FALSE(c.cc_ok());
  EXPECT_EQ(c.violation_count(BadPattern::kThinAirRead), 1u);
  EXPECT_EQ(c.violation_count(BadPattern::kCyclicCO), 0u);
  ASSERT_TRUE(c.first_violation().has_value());
  EXPECT_EQ(c.first_violation()->pattern, BadPattern::kThinAirRead);
  EXPECT_EQ(c.first_violation()->op, (OpRef{1, 0}));
}

TEST(StreamingChecker, ReadBehindGenuineCycleIsDiagnosed) {
  // p0 and p1 form the 2-process po ∪ rf cycle; p2 reads p0's parked write.
  // The direct merge into a genuine cycle IS diagnosed (the write it reads
  // is stuck behind the cycle), unlike the thin-air collateral above.
  StreamingCausalChecker c(3);
  c.on_read(0, 1, 2, WriteTag{1, 1});
  c.on_write(0, 0, 1, WriteTag{0, 1});
  c.on_read(1, 0, 1, WriteTag{0, 1});
  c.on_write(1, 1, 2, WriteTag{1, 1});
  c.on_read(2, 0, 1, WriteTag{0, 1});
  c.finish();
  EXPECT_FALSE(c.cc_ok());
  EXPECT_EQ(c.violation_count(BadPattern::kCyclicCO), 2u);
  EXPECT_EQ(c.violation_count(BadPattern::kThinAirRead), 0u);
}

TEST(StreamingChecker, ClassifierMapsBruteReasons) {
  EXPECT_EQ(classify_causal_reason(
                "read returned a value no write in the execution produced"),
            ViolationClass::kThinAir);
  EXPECT_EQ(classify_causal_reason("read from the causal future: r0(x0)1 "
                                   "causally precedes the write it read from"),
            ViolationClass::kFuture);
  EXPECT_EQ(classify_causal_reason(
                "stale read r1(x0)1: its write was overwritten"),
            ViolationClass::kStale);
}

TEST(StreamingChecker, StatsTrackMemoryAndCounts) {
  const History h = HistoryBuilder(2)
                        .write(0, 0, 1)
                        .read(1, 0, 1)
                        .build();
  StreamingCausalChecker c(2);
  c.feed(h);
  c.finish();
  EXPECT_EQ(c.stats().ops_seen, 2u);
  EXPECT_EQ(c.stats().ops_processed, 2u);
  EXPECT_EQ(c.stats().pending_ops, 0u);
  EXPECT_GT(c.stats().approx_bytes, 0u);
}

}  // namespace
}  // namespace causalmem
