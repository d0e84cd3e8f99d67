#include "causalmem/history/streaming_checker.hpp"

#include <algorithm>
#include <sstream>

#include "causalmem/common/expect.hpp"

namespace causalmem {

const char* bad_pattern_name(BadPattern p) noexcept {
  switch (p) {
    case BadPattern::kThinAirRead: return "ThinAirRead";
    case BadPattern::kCyclicCO: return "CyclicCO";
    case BadPattern::kWriteCOInitRead: return "WriteCOInitRead";
    case BadPattern::kWriteCORead: return "WriteCORead";
    case BadPattern::kWriteHBInitRead: return "WriteHBInitRead";
    case BadPattern::kWriteHBRead: return "WriteHBRead";
    case BadPattern::kCyclicCF: return "CyclicCF";
  }
  return "?";
}

ViolationClass violation_class_of(BadPattern p) noexcept {
  switch (p) {
    case BadPattern::kThinAirRead: return ViolationClass::kThinAir;
    case BadPattern::kCyclicCO: return ViolationClass::kFuture;
    case BadPattern::kWriteCOInitRead:
    case BadPattern::kWriteCORead:
    case BadPattern::kWriteHBInitRead:
    case BadPattern::kWriteHBRead: return ViolationClass::kStale;
    case BadPattern::kCyclicCF: return ViolationClass::kConvergence;
  }
  return ViolationClass::kStale;
}

ViolationClass classify_causal_reason(std::string_view reason) {
  if (reason.find("no write in the execution") != std::string_view::npos) {
    return ViolationClass::kThinAir;
  }
  if (reason.find("causal future") != std::string_view::npos) {
    return ViolationClass::kFuture;
  }
  // "stale read ...: its write was overwritten" and check_consistency's
  // prefixed forms all land here; stale is also the safe default.
  return ViolationClass::kStale;
}

StreamingCausalChecker::StreamingCausalChecker(std::size_t nprocs_hint,
                                               StreamingOptions opts)
    : opts_(opts), procs_declared_(nprocs_hint > 0) {
  clocks_.resize(nprocs_hint);
  for (auto& c : clocks_) c.assign(nprocs_hint, 0);
  pending_.resize(nprocs_hint);
  blocked_.assign(nprocs_hint, 0);
  min_frontier_.assign(nprocs_hint, 0);
  at_min_.assign(nprocs_hint, static_cast<std::uint32_t>(nprocs_hint));
}

void StreamingCausalChecker::ensure_proc(NodeId p) {
  if (p < clocks_.size()) return;
  // GC's judgments quantify over EVERY process ("dominated by all",
  // "overwritten in everyone's past"); they are unsound the moment a process
  // outside the set they saw appears with an empty causal past. Admitting a
  // late process therefore demotes the checker to the open-set regime (no
  // further collection, verdicts unaffected) — and is a caller contract
  // violation once collection has already happened, because the dropped
  // clocks and tombstoned records cannot be rebuilt.
  CM_EXPECTS_MSG(stats_.gc_clock_drops == 0 && stats_.gc_tombstoned == 0,
                 "process admitted after GC already dropped state: construct "
                 "StreamingCausalChecker with the full process count, or set "
                 "gc_interval=0");
  // The min frontier is never read again: gc() collects nothing from here.
  procs_declared_ = false;
  clocks_.resize(p + 1);
  pending_.resize(p + 1);
  blocked_.resize(p + 1, 0);
}

void StreamingCausalChecker::advance(NodeId q, std::size_t i,
                                     std::uint64_t value) {
  auto& v = clocks_[q];
  if (i >= v.size()) v.resize(i + 1, 0);
  const std::uint64_t old = v[i];
  CM_ASSERT(value > old);
  v[i] = value;
  // Clocks only grow, so component i's minimum moves only when the last
  // process sitting at it leaves; only then is the component rescanned.
  if (procs_declared_ && old == min_frontier_[i] && --at_min_[i] == 0) {
    std::uint64_t lo = kNoKill;
    std::uint32_t count = 0;
    for (const auto& clock : clocks_) {
      if (clock[i] < lo) {
        lo = clock[i];
        count = 0;
      }
      count += clock[i] == lo ? 1 : 0;
    }
    min_frontier_[i] = lo;
    at_min_[i] = count;
  }
}

void StreamingCausalChecker::merge_into(NodeId q,
                                        const std::vector<std::uint64_t>& from) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i] > at(clocks_[q], i)) advance(q, i, from[i]);
  }
}

void StreamingCausalChecker::kill_min(std::vector<std::uint64_t>& kill,
                                      std::size_t q, std::uint64_t n) {
  if (q >= kill.size()) kill.resize(q + 1, kNoKill);
  kill[q] = std::min(kill[q], n);
}

int StreamingCausalChecker::kill_hit(const std::vector<std::uint64_t>& kill,
                                     const std::vector<std::uint64_t>& pre) {
  for (std::size_t q = 0; q < kill.size(); ++q) {
    if (kill[q] != kNoKill && kill[q] <= at(pre, q)) {
      return static_cast<int>(q);
    }
  }
  return -1;
}

void StreamingCausalChecker::on_write(NodeId p, Addr x, Value v,
                                      const WriteTag& tag) {
  Operation op;
  op.kind = OpKind::kWrite;
  op.proc = p;
  op.addr = x;
  op.value = v;
  op.tag = tag;
  on_op(op);
}

void StreamingCausalChecker::on_read(NodeId p, Addr x, Value v,
                                     const WriteTag& tag) {
  Operation op;
  op.kind = OpKind::kRead;
  op.proc = p;
  op.addr = x;
  op.value = v;
  op.tag = tag;
  on_op(op);
}

void StreamingCausalChecker::on_op(const Operation& op) {
  CM_EXPECTS_MSG(!finished_, "on_op after finish()");
  ensure_proc(op.proc);
  ++stats_.ops_seen;
  pending_[op.proc].push_back(op);
  ++stats_.pending_ops;
  stats_.peak_pending = std::max(stats_.peak_pending, stats_.pending_ops);
  if (blocked_[op.proc] == 0) drain_from(op.proc);
}

void StreamingCausalChecker::drain_from(NodeId first) {
  // Iterative worklist (first in, first out): completing a write may unpark
  // reads at other processes, whose processing may unpark further processes.
  work_.assign(1, first);
  for (std::size_t next = 0; next < work_.size(); ++next) {
    const NodeId q = work_[next];
    if (blocked_[q] != 0) blocked_[q] = 0;
    auto& queue = pending_[q];
    while (!queue.empty()) {
      const Operation& head = queue.front();
      if (head.kind == OpKind::kRead && !head.tag.is_initial()) {
        const TagKey key{head.addr, head.tag};
        if (!writes_.contains(key) && !is_tombstoned(head.tag)) {
          // Source not processed yet: park this process until it is (or
          // finish() classifies the wait as ThinAirRead / CyclicCO).
          blocked_[q] = 1;
          waiters_[key].push_back(q);
          break;
        }
      }
      Operation op = std::move(queue.front());
      queue.pop_front();
      --stats_.pending_ops;
      process_op(op);
      if (op.kind == OpKind::kWrite) {
        if (const auto it = waiters_.find(TagKey{op.addr, op.tag});
            it != waiters_.end()) {
          for (const NodeId s : it->second) work_.push_back(s);
          waiters_.erase(it);
        }
      }
    }
  }
}

void StreamingCausalChecker::process_op(const Operation& op) {
  if (op.kind == OpKind::kRead) {
    process_read(op);
  } else {
    process_write(op);
  }
  ++stats_.ops_processed;
  if (opts_.gc_interval != 0 && ++ops_since_gc_ >= opts_.gc_interval) {
    ops_since_gc_ = 0;
    gc();
  }
}

void StreamingCausalChecker::process_read(const Operation& op) {
  const NodeId q = op.proc;
  auto& V = clocks_[q];
  const std::uint64_t n = self_count(q) + 1;
  const OpRef ref{q, static_cast<std::size_t>(n - 1)};

  // pre(r): the clock BEFORE merging the read's own reads-from edge — every
  // other causal path into r runs through its program-order predecessor, so
  // this is exactly Definition 1's "own edge excluded" relation.
  WriteRec* src = nullptr;
  if (op.tag.is_initial()) {
    if (const auto it = init_kill_.find(op.addr); it != init_kill_.end()) {
      if (const int kq = kill_hit(it->second.cc, V); kq >= 0) {
        std::ostringstream oss;
        oss << "stale read " << op.to_string()
            << ": a write of x" << op.addr
            << " by p" << kq << " precedes this read of the initial value";
        record(ref, BadPattern::kWriteCOInitRead, oss.str());
      } else if (const int kr = kill_hit(it->second.cm, V); kr >= 0) {
        std::ostringstream oss;
        oss << "stale read " << op.to_string() << ": p" << kr
            << " already read a written value of x" << op.addr
            << " inside this read's causal past";
        record(ref, BadPattern::kWriteHBInitRead, oss.str());
      }
    }
  } else {
    const TagKey key{op.addr, op.tag};
    if (is_tombstoned(op.tag)) {
      std::ostringstream oss;
      oss << "stale read " << op.to_string()
          << ": its write was overwritten in every process's causal past";
      record(ref, BadPattern::kWriteCORead, oss.str());
    } else {
      src = &writes_.at(key);  // drain_from guarantees presence
      if (co_before(*src, V)) {
        if (const int kq = kill_hit(src->kill_cc, V); kq >= 0) {
          std::ostringstream oss;
          oss << "stale read " << op.to_string()
              << ": its write was overwritten — intervening write of x"
              << op.addr << " at p" << kq << " with w *-> m *-> r";
          record(ref, BadPattern::kWriteCORead, oss.str());
        } else if (const int kr = kill_hit(src->kill_cm, V); kr >= 0) {
          std::ostringstream oss;
          oss << "stale read " << op.to_string()
              << ": its write was overwritten — intervening read of x"
              << op.addr << " at p" << kr << " with w *-> m *-> r";
          record(ref, BadPattern::kWriteHBRead, oss.str());
        }
      }
      if (opts_.track_ccv) note_cf_edges(op, *src, V);
    }
  }

  if (src != nullptr && !src->clock_dropped) merge_into(q, src->clock);
  advance(q, q, n);

  // This read as an intervener: it kills (at the hb/CM level) every live
  // write of x with another tag inside its causal past.
  kill_scan(op.addr, op.tag, /*is_write=*/false, q, n);
  if (!op.tag.is_initial()) {
    kill_min(init_kill_[op.addr].cm, q, n);
  }
}

void StreamingCausalChecker::process_write(const Operation& op) {
  const NodeId q = op.proc;
  const std::uint64_t n = self_count(q) + 1;
  advance(q, q, n);

  kill_scan(op.addr, op.tag, /*is_write=*/true, q, n);
  kill_min(init_kill_[op.addr].cc, q, n);

  const auto [it, inserted] = writes_.try_emplace(TagKey{op.addr, op.tag});
  if (!inserted || is_tombstoned(op.tag)) {
    // Non-differentiated input (duplicate tag): keep the first write, like
    // CausalChecker's write_of.emplace. The DSM never produces this.
    ++stats_.duplicate_tags;
    if (inserted) writes_.erase(it);
    return;
  }
  WriteRec& rec = it->second;
  rec.tag = op.tag;
  rec.proc = q;
  rec.num = n;
  rec.value = op.value;
  rec.clock = clocks_[q];
  by_addr_[op.addr].push_back(&rec);
  stats_.live_writes = writes_.size();
  stats_.peak_live_writes =
      std::max(stats_.peak_live_writes, stats_.live_writes);
}

void StreamingCausalChecker::kill_scan(Addr addr, const WriteTag& value_tag,
                                       bool is_write, NodeId q,
                                       std::uint64_t n) {
  const auto it = by_addr_.find(addr);
  if (it == by_addr_.end()) return;
  const auto& clk = clocks_[q];  // now includes this op itself
  for (WriteRec* w : it->second) {
    if (w->tag == value_tag) continue;  // same value confirms, not kills
    if (!co_before(*w, clk)) continue;  // killer must causally follow w
    kill_min(is_write ? w->kill_cc : w->kill_cm, q, n);
  }
}

void StreamingCausalChecker::note_cf_edges(
    const Operation& read, WriteRec& src,
    const std::vector<std::uint64_t>& pre) {
  // Conflict (cf) edges: reading w2 while another write w1 of x sits in the
  // read's causal past demands arbitration w1 < w2. An edge contradicting
  // co, or a cf 2-cycle, is a CCv violation (longer cycles are out of this
  // check's reach — ccv_decided() stays honest about saturation instead).
  const auto it = by_addr_.find(read.addr);
  if (it == by_addr_.end()) return;
  for (WriteRec* w1 : it->second) {
    if (w1->tag == src.tag) continue;
    if (!co_before(*w1, pre)) continue;  // not in the read's causal past
    // w1 -> co -> w2 already implies the arbitration order; no edge needed.
    if (!src.clock_dropped && at(src.clock, w1->proc) >= w1->num) continue;
    if (src.clock_dropped && w1->clock_dropped) continue;  // unknowable; skip
    // Contradiction with co: the read's source precedes w1 causally, yet
    // arbitration needs w1 before the source.
    if (!w1->clock_dropped && at(w1->clock, src.proc) >= src.num) {
      const std::uint64_t n = self_count(read.proc) + 1;
      std::ostringstream oss;
      oss << "convergence conflict at " << read.to_string()
          << ": arbitration needs w" << w1->proc << "#" << w1->num
          << " before the write read, but causal order has it after";
      record(OpRef{read.proc, static_cast<std::size_t>(n - 1)},
             BadPattern::kCyclicCF, oss.str());
      continue;
    }
    // cf 2-cycle: some earlier read demanded the opposite arbitration.
    if (std::find(w1->cf_before.begin(), w1->cf_before.end(), src.tag) !=
        w1->cf_before.end()) {
      const std::uint64_t n = self_count(read.proc) + 1;
      std::ostringstream oss;
      oss << "convergence conflict at " << read.to_string()
          << ": two processes observed writes of x" << read.addr
          << " in opposite orders";
      record(OpRef{read.proc, static_cast<std::size_t>(n - 1)},
             BadPattern::kCyclicCF, oss.str());
      continue;
    }
    if (std::find(src.cf_before.begin(), src.cf_before.end(), w1->tag) !=
        src.cf_before.end()) {
      continue;  // edge already known
    }
    if (src.cf_before.size() >= opts_.ccv_edges_per_write) {
      src.ccv_saturated = true;
      ccv_decided_ = false;
      continue;
    }
    src.cf_before.push_back(w1->tag);
  }
}

void StreamingCausalChecker::record(OpRef ref, BadPattern pattern,
                                    std::string detail) {
  ++pattern_counts_[static_cast<std::size_t>(pattern)];
  StreamingViolation v{ref, pattern, std::move(detail)};
  if (pattern == BadPattern::kCyclicCF) {
    ccv_bad_ = true;
  } else {
    if (!first_causal_.has_value()) first_causal_ = v;
    if (pattern != BadPattern::kWriteHBInitRead &&
        pattern != BadPattern::kWriteHBRead && !first_cc_.has_value()) {
      first_cc_ = v;
    }
  }
  if (violations_.size() < opts_.max_recorded) {
    violations_.push_back(std::move(v));
  }
}

void StreamingCausalChecker::gc() {
  if (!procs_declared_) {
    // Open process set (no nprocs at construction, or a late admission):
    // "dominated by every process" is unknowable while new processes may
    // still appear, so collection is off — verdicts are unaffected and
    // memory grows with the write count, exactly as with gc_interval=0.
    refresh_memory_estimate();
    return;
  }
  // A write dominated by the min frontier (by EVERY process's clock) can
  // never again be merged usefully (its clock is already below each V_q)
  // and is co-before every future operation. The frontier is kept current
  // as clocks advance, and a write whose own component is above it cannot
  // be dominated, so most live writes cost one compare here.
  const std::size_t procs = clocks_.size();
  for (auto& [addr, list] : by_addr_) {
    for (std::size_t i = 0; i < list.size();) {
      WriteRec* w = list[i];
      if (!w->clock_dropped && w->num <= min_frontier_[w->proc]) {
        bool dominated = true;
        for (std::size_t c = 0; c < w->clock.size() && dominated; ++c) {
          dominated = w->clock[c] <= min_frontier_[c];
        }
        if (dominated) {
          w->clock.clear();
          w->clock.shrink_to_fit();
          w->clock_dropped = true;
          ++stats_.gc_clock_drops;
        }
      }
      bool tombstoned = false;
      if (w->clock_dropped && !w->kill_cc.empty()) {
        // Tombstone once a co-later write of x exists in EVERY process's
        // past: any future read of w is then stale by construction, so the
        // record can shrink to its tag.
        tombstoned = true;
        for (std::size_t s = 0; s < procs && tombstoned; ++s) {
          bool covered = false;
          for (std::size_t c = 0; c < w->kill_cc.size() && !covered; ++c) {
            covered = w->kill_cc[c] != kNoKill &&
                      w->kill_cc[c] <= at(clocks_[s], c);
          }
          tombstoned = covered;
        }
      }
      if (tombstoned) {
        const TagKey key{addr, w->tag};
        list[i] = list.back();
        list.pop_back();
        add_tombstone(w->tag);
        writes_.erase(key);
        ++stats_.gc_tombstoned;
      } else {
        ++i;
      }
    }
  }
  stats_.live_writes = writes_.size();
  stats_.tombstones = tombstone_count_;
  refresh_memory_estimate();
}

bool StreamingCausalChecker::is_tombstoned(const WriteTag& tag) const {
  const auto it = tombstones_.find(tag.writer);
  if (it == tombstones_.end()) return false;
  return tag.seq <= it->second.watermark ||
         it->second.pending.contains(tag.seq);
}

void StreamingCausalChecker::add_tombstone(const WriteTag& tag) {
  TombTracker& t = tombstones_[tag.writer];
  ++tombstone_count_;
  if (tag.seq == t.watermark + 1) {
    ++t.watermark;
    while (t.pending.erase(t.watermark + 1) != 0) ++t.watermark;
  } else {
    t.pending.insert(tag.seq);
  }
}

void StreamingCausalChecker::refresh_memory_estimate() {
  const std::size_t procs = clocks_.size();
  std::uint64_t bytes = 0;
  bytes += static_cast<std::uint64_t>(procs) * procs * sizeof(std::uint64_t);
  // Live writes: record + clock/kill vectors (worst-case procs-sized each)
  // + map node + by_addr slot. Tombstones: set node only.
  bytes += stats_.live_writes *
           (sizeof(WriteRec) + 3 * procs * sizeof(std::uint64_t) + 64);
  for (const auto& [writer, t] : tombstones_) {
    bytes += sizeof(TombTracker) + 32 +
             t.pending.size() * (sizeof(std::uint64_t) + 32);
  }
  bytes += stats_.pending_ops * sizeof(Operation);
  stats_.approx_bytes = bytes;
  stats_.peak_approx_bytes = std::max(stats_.peak_approx_bytes, bytes);
}

void StreamingCausalChecker::finish() {
  if (finished_) return;
  finished_ = true;
  if (opts_.gc_interval != 0) gc();
  refresh_memory_estimate();

  // Anything still parked lost its race with the end of the stream. Each
  // blocked process's head is a read waiting on a write that either never
  // arrived anywhere (ThinAirRead) or arrived behind ANOTHER blocked read.
  // Following the "whose write am I waiting for" chain either closes a
  // po ∪ rf cycle (CyclicCO) or dead-ends in a thin-air read. Processes
  // queued BEHIND such a chain are collateral: their reads' writes exist
  // and are valid, they were just never processed — no diagnosis of their
  // own (recording one would break the differential contract on histories
  // whose only defect is the upstream ThinAirRead).
  const std::size_t procs = pending_.size();
  auto arrived_unprocessed = [&](const TagKey& key) -> NodeId {
    for (NodeId p = 0; p < procs; ++p) {
      for (const Operation& o : pending_[p]) {
        if (o.kind == OpKind::kWrite && o.addr == key.addr &&
            o.tag == key.tag) {
          return p;
        }
      }
    }
    return kNoNode;
  };

  constexpr std::uint8_t kCycle = 1;       // diagnosed member of a cycle
  constexpr std::uint8_t kCollateral = 2;  // parked behind one, or thin air
  std::vector<std::uint8_t> classified(procs, 0);
  for (NodeId q = 0; q < procs; ++q) {
    if (pending_[q].empty() || classified[q] != 0) continue;
    // Walk the waiting chain from q; chain members whose write DID arrive
    // point at the process holding it.
    std::vector<NodeId> path;
    std::vector<std::uint8_t> on_path(procs, 0);
    NodeId cur = q;
    while (true) {
      const Operation& head = pending_[cur].front();
      CM_EXPECTS(head.kind == OpKind::kRead && !head.tag.is_initial());
      const TagKey key{head.addr, head.tag};
      const OpRef ref{cur, static_cast<std::size_t>(self_count(cur))};
      const NodeId holder = arrived_unprocessed(key);
      if (holder == kNoNode) {
        std::ostringstream oss;
        oss << "read returned a value no write in the execution produced: "
            << head.to_string();
        record(ref, BadPattern::kThinAirRead, oss.str());
        for (const NodeId p : path) classified[p] = kCollateral;
        classified[cur] = kCollateral;
        break;
      }
      if (on_path[holder] != 0) {
        // Chain closed on itself: the blocked reads from `holder` onward
        // form a program-order/reads-from cycle; any prefix fed into it.
        std::ostringstream oss;
        oss << "read from the causal future: " << head.to_string()
            << " causally precedes the write it read from";
        record(ref, BadPattern::kCyclicCO, oss.str());
        bool in_cycle = false;
        for (const NodeId p : path) {
          in_cycle = in_cycle || p == holder;
          classified[p] = in_cycle ? kCycle : kCollateral;
        }
        classified[cur] = kCycle;
        break;
      }
      if (classified[holder] != 0) {
        // Merged into an already-classified chain. Only a genuine cycle
        // propagates a diagnosis to the read blocked directly behind it;
        // merging into a thin-air-blocked (or collateral) chain is not a
        // violation — that read's write exists.
        if (classified[holder] == kCycle) {
          std::ostringstream oss;
          oss << "read from the causal future: " << head.to_string()
              << " reads from a write queued behind a causal cycle";
          record(ref, BadPattern::kCyclicCO, oss.str());
        }
        for (const NodeId p : path) classified[p] = kCollateral;
        classified[cur] = kCollateral;
        break;
      }
      on_path[cur] = 1;
      path.push_back(cur);
      cur = holder;
    }
  }
}

StreamingCausalChecker::Result StreamingCausalChecker::check(
    const History& h, StreamingOptions opts) {
  StreamingCausalChecker c(h.process_count(), opts);
  c.feed(h);
  c.finish();
  Result res;
  res.cc = c.cc_ok();
  res.causal = c.causal_ok();
  res.ccv = c.ccv_ok();
  res.ccv_decided = c.ccv_decided();
  res.first = c.first_violation();
  res.stats = c.stats();
  return res;
}

void StreamingCausalChecker::feed(const History& h) {
  // Round-robin across processes rather than process-major: the verdict is
  // feeding-order invariant (deferral parks forward references), but the GC
  // frontier is min-over-processes — feeding one process to completion first
  // pins the other components at zero and no write can be collected until
  // the very end. Interleaving approximates the real-time order an online
  // run would see, which is what keeps live state bounded.
  std::vector<std::size_t> next(h.per_process.size(), 0);
  std::size_t remaining = h.total_ops();
  while (remaining > 0) {
    for (NodeId p = 0; p < h.per_process.size(); ++p) {
      if (next[p] >= h.per_process[p].size()) continue;
      Operation o = h.per_process[p][next[p]++];
      o.proc = p;  // trust the history's structure over the op field
      on_op(o);
      --remaining;
    }
  }
}

}  // namespace causalmem
