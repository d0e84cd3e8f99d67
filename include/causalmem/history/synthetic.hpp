// Synthetic causally-consistent workload generator for checker benches and
// large-scale tests: simulates a toy vector-clock-gated causal broadcast
// entirely in-process, so million-op valid histories cost microseconds per
// thousand ops instead of a full DSM run. Writes broadcast with their
// issue-time dependency clock; each process applies a peer's writes in issue
// order once the write's dependencies are applied locally; reads return the
// locally visible value.
//
// Plain "last applied wins" is NOT enough to satisfy the repo's Definition-1
// oracle: a replica that applies a concurrent remote write over its own
// newer write, reads it, and then publishes a flag creates a read-intervener
// kill (w *-> r(old) *-> r) at any third process that joins the flag and
// re-reads the first write. So same-address conflicts are arbitrated by a
// Lamport-stamped last-writer-wins order: each replica's visible write for x
// is the arbitration maximum of every write to x it has applied. Because the
// arbitration order contains causality, any operation on x inside a read's
// causal past carries an arbitration stamp at most the read's visible one —
// there can be no intervening operation on a *newer* write, which is exactly
// the oracle's kill condition. Every generated history therefore passes
// CausalChecker (and converges, so it is CCv-clean too) — asserted by the
// differential-fuzz suite.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "causalmem/common/expect.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/history/history.hpp"

namespace causalmem {

struct SyntheticWorkload {
  std::size_t procs{4};
  std::size_t addrs{64};
  std::size_t ops{1000};      ///< total read+write ops across all processes
  double write_ratio{0.4};  ///< probability an op is a write
  /// Per-step, per-peer chance of applying one remote write. Delivery
  /// capacity must scale with the process count: every write needs procs-1
  /// deliveries, so a single delivery attempt per step can never keep up
  /// once write_ratio * (procs - 1) exceeds it — the backlog then grows
  /// linearly, replica clocks lag permanently, and a consumer like the
  /// streaming checker's GC (which needs writes dominated by *every*
  /// process's clock) stalls with the whole history live.
  double deliver_ratio{0.5};
};

/// Generates one causally-consistent history. Deterministic in `seed`.
[[nodiscard]] inline History make_synthetic_causal_history(
    const SyntheticWorkload& w, std::uint64_t seed) {
  CM_EXPECTS(w.procs > 0 && w.addrs > 0);
  struct Broadcast {
    Addr addr;
    Value value;
    WriteTag tag;
    std::uint64_t lamport;            ///< arbitration stamp (ties: writer id)
    std::vector<std::uint64_t> deps;  ///< issuer's applied-counts at issue
  };
  // issued[p] = p's broadcast log; applied[q][p] = prefix of p's log q has
  // applied. Gating: q applies issued[p][i] once applied[q][p] == i and
  // applied[q][r] >= deps[r] for every r != p.
  std::vector<std::vector<Broadcast>> issued(w.procs);
  std::vector<std::vector<std::uint64_t>> applied(
      w.procs, std::vector<std::uint64_t>(w.procs, 0));
  // Delivery attempts are the generator's whole cost at large process
  // counts, so two indexes keep them from re-scanning what cannot change:
  //  - waiting[q * words + p / 64] bit p is set while q has not applied all
  //    of p's writes, so an attempt visits only peers with a head to test;
  //  - unmet[q * procs + p] is the first dependency of that head found
  //    unmet. Applied counts only grow, so every dependency before it stays
  //    met and the next test resumes there.
  // Both only skip work: the visiting order and every readiness answer are
  // those of a full scan, so the history is the one a full scan produces.
  const std::size_t words = (w.procs + 63) / 64;
  std::vector<std::uint64_t> waiting(w.procs * words, 0);
  std::vector<std::size_t> unmet(w.procs * w.procs, 0);
  struct Cell {
    Value value{kInitialValue};
    WriteTag tag{};
    std::uint64_t lamport{0};  ///< 0 = the distinguished initial write
    NodeId writer{kNoNode};
  };
  std::vector<std::vector<Cell>> store(w.procs,
                                       std::vector<Cell>(w.addrs));
  std::vector<std::uint64_t> lamport(w.procs, 0);
  History h;
  h.per_process.resize(w.procs);
  for (auto& seq : h.per_process) seq.reserve(w.ops / w.procs + 1);

  Rng rng(seed);
  Value next_value = 1;
  std::size_t emitted = 0;
  auto arb_newer = [](const Cell& cur, std::uint64_t lam, NodeId writer) {
    return lam > cur.lamport || (lam == cur.lamport && writer > cur.writer);
  };
  // Applies q's next write from p if its dependencies are met.
  auto try_apply = [&](std::size_t q, std::size_t p) {
    const std::uint64_t i = applied[q][p];
    const Broadcast& b = issued[p][i];
    std::size_t& r = unmet[q * w.procs + p];
    while (r < w.procs && (r == p || applied[q][r] >= b.deps[r])) ++r;
    if (r < w.procs) return false;
    r = 0;  // the next head is tested from the start
    Cell& cur = store[q][b.addr];
    if (arb_newer(cur, b.lamport, b.tag.writer)) {
      cur = Cell{b.value, b.tag, b.lamport, b.tag.writer};
    }
    if (lamport[q] < b.lamport) lamport[q] = b.lamport;
    applied[q][p] = i + 1;
    if (i + 1 == issued[p].size()) {
      waiting[q * words + p / 64] &= ~(std::uint64_t{1} << (p % 64));
    }
    return true;
  };
  auto try_deliver = [&](std::size_t q) {
    // Apply at most one deliverable remote write, scanning peers from a
    // random offset so delivery interleavings vary across seeds: the peers
    // in [start, procs), then in [0, start).
    const std::size_t start = rng.next_below(w.procs);
    const std::uint64_t* bits = &waiting[q * words];
    const auto scan = [&](std::size_t p, std::size_t end) {
      while (p < end) {
        const std::uint64_t word = bits[p / 64] >> (p % 64);
        if (word == 0) {
          p = (p / 64 + 1) * 64;
          continue;
        }
        p += static_cast<std::size_t>(std::countr_zero(word));
        if (p >= end) break;
        if (try_apply(q, p)) return true;
        ++p;
      }
      return false;
    };
    return scan(start, w.procs) || scan(0, start);
  };

  while (emitted < w.ops) {
    const std::size_t q = rng.next_below(w.procs);
    for (std::size_t k = 1; k < w.procs; ++k) {
      if (rng.chance(w.deliver_ratio)) (void)try_deliver(q);
    }
    const Addr x = rng.next_below(w.addrs);
    Operation op;
    op.proc = static_cast<NodeId>(q);
    op.addr = x;
    if (rng.chance(w.write_ratio)) {
      op.kind = OpKind::kWrite;
      op.value = next_value++;
      op.tag = WriteTag{static_cast<NodeId>(q),
                        static_cast<std::uint64_t>(issued[q].size()) + 1};
      const std::uint64_t lam = ++lamport[q];  // > everything applied here
      Broadcast b{x, op.value, op.tag, lam, applied[q]};
      b.deps[q] = issued[q].size();  // po: prior own writes are dependencies
      issued[q].push_back(std::move(b));
      applied[q][q] += 1;
      for (std::size_t r = 0; r < w.procs; ++r) {
        if (r != q) waiting[r * words + q / 64] |= std::uint64_t{1} << (q % 64);
      }
      // Own writes always win: the incremented Lamport stamp exceeds every
      // stamp applied at q, including the current cell's.
      store[q][x] = Cell{op.value, op.tag, lam, static_cast<NodeId>(q)};
    } else {
      op.kind = OpKind::kRead;
      op.value = store[q][x].value;
      op.tag = store[q][x].tag;
    }
    h.per_process[q].push_back(op);
    ++emitted;
  }
  return h;
}

}  // namespace causalmem
