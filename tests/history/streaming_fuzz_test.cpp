// Differential fuzzing of StreamingCausalChecker against the brute-force
// Definition-1 oracle (CausalChecker): thousands of seeded random small
// histories, synthetic guaranteed-causal workloads, and mutants that inject
// each bad-pattern class into otherwise-plausible histories. The contract:
//
//   * verdict equality — streaming causal_ok() iff CausalChecker finds no
//     violation;
//   * when violating, the streaming checker's first flagged read must be one
//     of the brute oracle's violating reads (processing order is
//     co-topological, not proc-major, so WHICH violation surfaces first may
//     differ — but it must be a real one), and its ViolationClass must match
//     the class inferred from the brute reason string for that same read;
//   * check_consistency() agrees with the brute oracle plus the slow-memory
//     checker on histories small enough to run the oracle.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "causalmem/common/rng.hpp"
#include "causalmem/history/causal_checker.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/history.hpp"
#include "causalmem/history/model_checkers.hpp"
#include "causalmem/history/streaming_checker.hpp"
#include "causalmem/history/synthetic.hpp"

namespace causalmem {
namespace {

// Same shape as checker_crosscheck_test.cpp's generator: reads pick either a
// plausible already-written value or the initial 0, biased but
// unconstrained, so both correct and violating histories appear. Values are
// globally unique so build()'s reads-from resolution is never ambiguous.
History random_history(Rng& rng, std::size_t procs, std::size_t addrs,
                       std::size_t ops, Value first_value = 1) {
  HistoryBuilder hb(procs);
  Value next_value = first_value;
  std::vector<std::vector<Value>> values_of_addr(addrs);
  for (std::size_t i = 0; i < ops; ++i) {
    const NodeId p = static_cast<NodeId>(rng.next_below(procs));
    const Addr a = rng.next_below(addrs);
    if (rng.chance(0.5)) {
      hb.write(p, a, next_value);
      values_of_addr[a].push_back(next_value);
      ++next_value;
    } else {
      const auto& vals = values_of_addr[a];
      if (vals.empty() || rng.chance(0.2)) {
        hb.read(p, a, 0);
      } else {
        hb.read(p, a, vals[rng.next_below(vals.size())]);
      }
    }
  }
  return hb.build();
}

/// Runs both checkers and enforces the differential contract. Returns true
/// when the history violates (for corpus-mix assertions).
bool expect_agreement(const History& h, const char* what) {
  const CausalChecker brute(h);
  const auto brute_first = brute.check();
  const auto res = StreamingCausalChecker::check(h);
  EXPECT_EQ(res.causal, !brute_first.has_value())
      << what << ": verdict mismatch on:\n"
      << h.to_string();
  if (!brute_first.has_value()) return false;

  if (!res.first.has_value()) {
    ADD_FAILURE() << what
                  << ": violating history with no streaming violation:\n"
                  << h.to_string();
    return true;
  }
  const auto all = brute.check_all();
  const StreamingViolation& sv = *res.first;
  std::optional<std::string> brute_reason;
  for (const CausalViolation& v : all) {
    if (v.read == sv.op) brute_reason = v.reason;
  }
  if (!brute_reason.has_value()) {
    ADD_FAILURE() << what << ": streaming flagged p" << sv.op.proc << "["
                  << sv.op.index << "] (" << bad_pattern_name(sv.pattern)
                  << ") which the oracle considers correct, in:\n"
                  << h.to_string();
    return true;
  }
  EXPECT_EQ(violation_class_of(sv.pattern),
            classify_causal_reason(*brute_reason))
      << what << ": diagnosis class mismatch for p" << sv.op.proc << "["
      << sv.op.index << "]: streaming=" << bad_pattern_name(sv.pattern)
      << " oracle reason=\"" << *brute_reason << "\" in:\n"
      << h.to_string();
  return true;
}

TEST(StreamingFuzz, RandomSmallHistories) {
  Rng rng(20260809);
  int violating = 0;
  constexpr int kTrials = 3000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const History h = random_history(rng, 2 + rng.next_below(3),
                                     1 + rng.next_below(3),
                                     4 + rng.next_below(11));
    violating += expect_agreement(h, "random");
  }
  // The corpus must exercise both outcomes heavily to mean anything.
  EXPECT_GT(violating, kTrials / 10);
  EXPECT_LT(violating, kTrials * 9 / 10);
}

TEST(StreamingFuzz, SyntheticCausalHistoriesAreCleanForBoth) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    SyntheticWorkload w;
    w.procs = 2 + rng.next_below(3);
    w.addrs = 1 + rng.next_below(4);
    w.ops = 30 + rng.next_below(120);
    w.deliver_ratio = 0.3 + 0.01 * static_cast<double>(rng.next_below(60));
    const History h = make_synthetic_causal_history(w, rng.next());
    EXPECT_FALSE(expect_agreement(h, "synthetic"))
        << "synthetic generator produced a violating history";
  }
}

// ---------------------------------------------------------------------------
// Mutants: take a random plausible base and inject one specific bad pattern.
// Injected values start at 10^6 so they never collide with base values
// (which would make build()'s by-value reads-from resolution ambiguous).
// ---------------------------------------------------------------------------

constexpr Value kMutantValue = 1'000'000;

History random_base(Rng& rng) {
  return random_history(rng, 2 + rng.next_below(2), 1 + rng.next_below(2),
                        4 + rng.next_below(7));
}

TEST(StreamingFuzz, ThinAirMutants) {
  Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    History h = random_base(rng);
    // Append a read whose tag no write in the execution carries.
    Operation o;
    o.kind = OpKind::kRead;
    o.proc = static_cast<NodeId>(rng.next_below(h.process_count()));
    o.addr = rng.next_below(2);
    o.value = kMutantValue;
    o.tag = WriteTag{static_cast<NodeId>(200 + rng.next_below(5)),
                     1 + rng.next()% 1000};
    h.per_process[o.proc].push_back(o);
    ASSERT_TRUE(expect_agreement(h, "thin-air"));
    const auto res = StreamingCausalChecker::check(h);
    EXPECT_GT(res.stats.ops_seen, res.stats.ops_processed);
    EXPECT_GE(
        StreamingCausalChecker::check(h).stats.ops_seen - 1,
        res.stats.ops_processed);
  }
}

TEST(StreamingFuzz, StaleReadMutants) {
  Rng rng(202);
  for (int trial = 0; trial < 500; ++trial) {
    HistoryBuilder hb(3);
    History base = random_base(rng);
    // Rebuild the base through a builder copy so we can append: overwrite a
    // location twice in program order, then read the overwritten value.
    const NodeId p = static_cast<NodeId>(rng.next_below(base.process_count()));
    const Addr a = rng.next_below(2);
    HistoryBuilder mut(base.process_count());
    for (NodeId q = 0; q < base.process_count(); ++q) {
      for (const Operation& o : base.per_process[q]) {
        if (o.kind == OpKind::kWrite) {
          mut.write(q, o.addr, o.value);
        } else {
          mut.read(q, o.addr, o.value);
        }
      }
    }
    mut.write(p, a, kMutantValue);
    mut.write(p, a, kMutantValue + 1);
    mut.read(p, a, kMutantValue);
    ASSERT_TRUE(expect_agreement(mut.build(), "stale"));
  }
}

TEST(StreamingFuzz, FutureReadMutants) {
  Rng rng(303);
  for (int trial = 0; trial < 500; ++trial) {
    History base = random_base(rng);
    const NodeId p = static_cast<NodeId>(rng.next_below(base.process_count()));
    const Addr a = rng.next_below(2);
    HistoryBuilder mut(base.process_count());
    for (NodeId q = 0; q < base.process_count(); ++q) {
      for (const Operation& o : base.per_process[q]) {
        if (o.kind == OpKind::kWrite) {
          mut.write(q, o.addr, o.value);
        } else {
          mut.read(q, o.addr, o.value);
        }
      }
    }
    // Read a value this same process only writes LATER: r *-> w via program
    // order, a po ∪ rf cycle.
    mut.read(p, a, kMutantValue);
    mut.write(p, a, kMutantValue);
    ASSERT_TRUE(expect_agreement(mut.build(), "future"));
  }
}

TEST(StreamingFuzz, InitAfterWriteMutants) {
  Rng rng(404);
  for (int trial = 0; trial < 500; ++trial) {
    History base = random_base(rng);
    const NodeId p = static_cast<NodeId>(rng.next_below(base.process_count()));
    const Addr a = rng.next_below(2);
    HistoryBuilder mut(base.process_count());
    for (NodeId q = 0; q < base.process_count(); ++q) {
      for (const Operation& o : base.per_process[q]) {
        if (o.kind == OpKind::kWrite) {
          mut.write(q, o.addr, o.value);
        } else {
          mut.read(q, o.addr, o.value);
        }
      }
    }
    // Write x, then read the initial 0: the write intervenes on the
    // init *-> read path (WriteCOInitRead).
    mut.write(p, a, kMutantValue);
    mut.read(p, a, 0);
    ASSERT_TRUE(expect_agreement(mut.build(), "init-after-write"));
  }
}

TEST(StreamingFuzz, ReadIntervenerMutants) {
  // The CM-only template grafted onto random prefixes: two concurrent
  // writes, a relay process that reads old-then-new and publishes a flag,
  // and a reader that joins the flag and then reads the OLD write — killed
  // only by the relay's read.
  Rng rng(505);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t procs = 4;
    HistoryBuilder mut(procs);
    // Random harmless prefix on each process (writes only, distinct addrs
    // high enough not to collide with the template's).
    const Addr base_addr = 10;
    for (NodeId q = 0; q < procs; ++q) {
      const std::size_t k = rng.next_below(3);
      for (std::size_t i = 0; i < k; ++i) {
        mut.write(q, base_addr + q, kMutantValue + 100 * q + i);
      }
    }
    const Addr x = 0, y = 1;
    mut.write(0, x, 1);
    mut.write(3, x, 2);
    mut.read(1, x, 1);
    mut.read(1, x, 2);
    mut.write(1, y, 5);
    mut.read(2, y, 5);
    mut.read(2, x, 1);
    const History h = mut.build();
    ASSERT_TRUE(expect_agreement(h, "read-intervener"));
    const auto res = StreamingCausalChecker::check(h);
    EXPECT_TRUE(res.cc) << h.to_string();   // invisible to CC…
    EXPECT_FALSE(res.causal);               // …but not to CM
  }
}

TEST(StreamingFuzz, HierarchyAgreesWithBruteHierarchy) {
  Rng rng(606);
  for (int trial = 0; trial < 300; ++trial) {
    const History h = random_history(rng, 2 + rng.next_below(2), 2,
                                     4 + rng.next_below(9));
    const ConsistencyReport rep = check_consistency(h);
    const bool causal = !CausalChecker(h).check().has_value();
    const bool slow = is_slow_consistent(h);
    // Causal memory implies slow memory, which is what lets
    // check_consistency skip the slow check after a causal violation.
    ASSERT_TRUE(!causal || slow) << h.to_string();
    ASSERT_EQ(rep.causal, causal) << h.to_string();
    ASSERT_EQ(rep.ok(), causal && slow) << h.to_string();
    ASSERT_EQ(rep.reason.empty(), rep.ok()) << h.to_string();
  }
}

TEST(StreamingFuzz, ManyProcessHistoryChecksInLinearTime) {
  // A wide history (many processes, few ops each) checks clean in linear
  // time. The brute oracle and the PRAM search both explode in process
  // count (the PRAM search never finishes at 64 processes), so this is where
  // a super-linear stage inside check_consistency would stall.
  SyntheticWorkload w;
  w.procs = 64;
  w.addrs = 32;
  w.ops = 1536;  // matches the 64-node CausalScaleProperty scope
  const History wide = make_synthetic_causal_history(w, 1234);
  const ConsistencyReport rep = check_consistency(wide);
  EXPECT_TRUE(rep.causal);
  EXPECT_TRUE(rep.slow);
  EXPECT_TRUE(rep.ok()) << rep.reason;
}

TEST(StreamingFuzz, GcInvarianceOnRandomCorpus) {
  // Aggressive GC must never change a verdict relative to GC disabled.
  Rng rng(808);
  for (int trial = 0; trial < 400; ++trial) {
    const History h = random_history(rng, 2 + rng.next_below(3), 2,
                                     6 + rng.next_below(20));
    StreamingOptions aggressive;
    aggressive.gc_interval = 4;
    StreamingOptions off;
    off.gc_interval = 0;
    const auto a = StreamingCausalChecker::check(h, aggressive);
    const auto b = StreamingCausalChecker::check(h, off);
    ASSERT_EQ(a.causal, b.causal) << h.to_string();
    ASSERT_EQ(a.cc, b.cc) << h.to_string();
  }
}

}  // namespace
}  // namespace causalmem
