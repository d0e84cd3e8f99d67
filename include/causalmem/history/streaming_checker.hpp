// StreamingCausalChecker: an incremental, polynomial-time causal-consistency
// verdict engine after Bouajjani–Enea–Guerraoui–Hamza, "On Verifying Causal
// Consistency" (POPL'17; PAPERS.md). Where CausalChecker re-walks the whole
// causality graph per read (fine for the paper's figure-sized histories,
// hopeless past ~10^3 ops), this checker consumes operations ONE AT A TIME —
// from a Recorder, an OpObserver chain, or a trace stream — and maintains
// just enough state to recognise the bad patterns that characterise the
// causal-consistency family on differentiated histories (unique write tags,
// which the DSM guarantees by construction):
//
//   CC  (weak causal consistency)  = no ThinAirRead, CyclicCO,
//                                    WriteCOInitRead, WriteCORead
//   CM  (causal memory, Def. 1/2)  = CC + no WriteHBInitRead / WriteHBRead
//                                    (reads count as interveners, not just
//                                    writes — the hb side of the paper's
//                                    "no intervening read or write of x")
//   CCv (causal convergence)       = CC + no CyclicCF (conflict/arbitration
//                                    cycles; checked best-effort, see below)
//
// The CM verdict is the repo's ground truth: causal_ok() agrees with
// CausalChecker::check() on every differentiated history the fuzz corpus can
// produce (tests/history/streaming_fuzz_test.cpp holds the differential
// proof; docs/CHECKING.md derives the equivalence and its one caveat).
//
// Core state, O(procs) per operation amortised plus the live-write table:
//   - one vector clock per process (component q = number of q-ops in the
//     causal past); a read's pre-clock (before merging its reads-from edge)
//     is exactly "causality with the read's own rf edge excluded", the
//     footnote of Definition 1;
//   - per live write, its clock and two kill frontiers: kill_cc[q] = first
//     q-op index at which a co-later WRITE to the same location exists,
//     kill_cm[q] = same for co-later reads of another value. A read of w is
//     stale iff w is in its pre-clock past and some kill entry is too;
//   - ops arrive in any interleaving of per-process program order; a read
//     whose source write has not arrived yet parks its process's stream in a
//     deferral queue (trace files legally forward-reference writes), so
//     processing is always co-topological. finish() classifies what never
//     unparked: ThinAirRead (the write never existed) or CyclicCO (the
//     parked reads form a reads-from/program-order cycle).
//
// Garbage collection keeps per-op memory bounded on gossiping workloads: a
// write dominated by every process's clock can drop its clock (merging it
// would be a no-op), and once additionally overwritten in every process's
// past it becomes a tombstone (any future read of it is a violation by
// construction). Tombstone tags are retained so such reads are classified
// exactly; see docs/CHECKING.md for the memory model. Both judgments
// quantify over EVERY process, so GC only collects when the process set was
// declared complete at construction (nprocs_hint > 0); with an open process
// set the checker stays exact but uncollected (memory grows with the write
// count, as with gc_interval=0). GC never changes verdicts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "causalmem/common/types.hpp"
#include "causalmem/history/history.hpp"

namespace causalmem {

/// The POPL'17 bad patterns (plus the hb variants needed to match this
/// repo's Definition-1 oracle exactly).
enum class BadPattern : std::uint8_t {
  kThinAirRead,      ///< read of a value no write in the execution produced
  kCyclicCO,         ///< program order ∪ reads-from is cyclic
  kWriteCOInitRead,  ///< read of the initial value with a co-prior write of x
  kWriteCORead,      ///< stale read: source write overwritten on a co path
  kWriteHBInitRead,  ///< initial read with only a co-prior READ of x (CM)
  kWriteHBRead,      ///< stale read via an intervening READ of x (CM)
  kCyclicCF,         ///< conflict/arbitration cycle (CCv only)
};

/// Coarse diagnosis taxonomy shared with CausalChecker's reason strings, so
/// the differential fuzz suite can compare classifications across checkers.
enum class ViolationClass : std::uint8_t {
  kThinAir,      ///< value was never written
  kFuture,       ///< read causally precedes the write it read from
  kStale,        ///< source write was overwritten before the read
  kConvergence,  ///< CCv-only arbitration conflict
};

[[nodiscard]] const char* bad_pattern_name(BadPattern p) noexcept;
[[nodiscard]] ViolationClass violation_class_of(BadPattern p) noexcept;

/// Maps a CausalChecker reason string onto the shared taxonomy (the brute
/// checker predates the BadPattern enum; its strings are the stable API).
[[nodiscard]] ViolationClass classify_causal_reason(std::string_view reason);

struct StreamingViolation {
  OpRef op;  ///< the offending read
  BadPattern pattern{BadPattern::kThinAirRead};
  std::string detail;  ///< human-readable diagnosis
};

struct StreamingOptions {
  /// Processed ops between garbage-collection sweeps (0 disables GC —
  /// verdicts are identical, memory just grows with the write count). GC
  /// additionally requires the process count declared at construction
  /// (nprocs_hint > 0); it silently stays idle on an open process set.
  std::uint32_t gc_interval{64};
  /// Maintain the best-effort CCv conflict check (small extra cost per
  /// read; disable for pure-throughput runs).
  bool track_ccv{true};
  /// Conflict edges retained per live write before the CCv check saturates
  /// (ccv_decided() turns false rather than spending unbounded memory).
  std::size_t ccv_edges_per_write{16};
  /// Violations recorded with full diagnoses (the counts keep counting).
  std::size_t max_recorded{64};
};

struct StreamingStats {
  std::uint64_t ops_seen{0};       ///< ops fed in
  std::uint64_t ops_processed{0};  ///< ops through the co-topological stage
  std::uint64_t pending_ops{0};    ///< parked in deferral queues right now
  std::uint64_t peak_pending{0};
  std::uint64_t live_writes{0};  ///< write table size (incl. clock-dropped)
  std::uint64_t peak_live_writes{0};
  std::uint64_t tombstones{0};        ///< GC'd always-stale writes
  std::uint64_t gc_clock_drops{0};    ///< clocks freed by the min-frontier
  std::uint64_t gc_tombstoned{0};     ///< writes demoted to tombstones
  std::uint64_t duplicate_tags{0};    ///< non-differentiated input (kept 1st)
  std::uint64_t approx_bytes{0};      ///< rough live-state footprint
  std::uint64_t peak_approx_bytes{0};
};

class StreamingCausalChecker {
 public:
  /// `nprocs_hint` > 0 declares the COMPLETE process set, which is what
  /// licenses garbage collection (its "dominated by every process"
  /// judgments need a closed set). With the default 0 the set stays open:
  /// processes are admitted on first use, verdicts are identical, but GC
  /// never collects. A process appearing beyond a declared set demotes the
  /// checker back to the open-set regime — a contract violation (abort)
  /// once GC has already dropped state, since that cannot be undone.
  explicit StreamingCausalChecker(std::size_t nprocs_hint = 0,
                                  StreamingOptions opts = {});

  StreamingCausalChecker(StreamingCausalChecker&&) = default;
  StreamingCausalChecker& operator=(StreamingCausalChecker&&) = default;

  /// Feed one operation. Ops must arrive in per-process program order; the
  /// interleaving across processes is arbitrary. For reads, `tag` is the
  /// reads-from identity (is_initial() for the distinguished initial value).
  void on_write(NodeId p, Addr x, Value v, const WriteTag& tag);
  void on_read(NodeId p, Addr x, Value v, const WriteTag& tag);
  void on_op(const Operation& op);

  /// Feeds a whole history (process by process — a valid interleaving).
  void feed(const History& h);

  /// End of stream: classifies parked reads (ThinAirRead / CyclicCO).
  /// Idempotent; no on_op may follow.
  void finish();
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Weak causal consistency (CC): no write–read bad pattern over co alone.
  [[nodiscard]] bool cc_ok() const noexcept { return !first_cc_.has_value(); }
  /// Causal memory (CM) — the paper's Definition 1/2; agrees with
  /// CausalChecker::check() (the differential-fuzz contract).
  [[nodiscard]] bool causal_ok() const noexcept {
    return !first_causal_.has_value();
  }
  /// Causal convergence (CCv), best effort: catches co-contradicting and
  /// 2-cycle arbitration conflicts; longer cf cycles and saturated state
  /// are reported as undecided, never as violations.
  [[nodiscard]] bool ccv_ok() const noexcept { return cc_ok() && !ccv_bad_; }
  [[nodiscard]] bool ccv_decided() const noexcept { return ccv_decided_; }

  /// First CM-level violation in processing order (processing order is
  /// co-topological, so this may differ from CausalChecker::check()'s
  /// process-major order; it is always a member of check_all()).
  [[nodiscard]] const std::optional<StreamingViolation>& first_violation()
      const noexcept {
    return first_causal_;
  }
  [[nodiscard]] const std::vector<StreamingViolation>& violations()
      const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t violation_count(BadPattern p) const noexcept {
    return pattern_counts_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] const StreamingStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t process_count() const noexcept {
    return clocks_.size();
  }

  /// One-shot convenience: feed + finish over a complete history.
  struct Result {
    bool cc{true};
    bool causal{true};
    bool ccv{true};
    bool ccv_decided{true};
    std::optional<StreamingViolation> first;
    StreamingStats stats;
  };
  [[nodiscard]] static Result check(const History& h,
                                    StreamingOptions opts = {});

 private:
  struct TagKey {
    Addr addr{0};
    WriteTag tag{};
    friend bool operator==(const TagKey&, const TagKey&) = default;
  };
  struct TagKeyHash {
    std::size_t operator()(const TagKey& k) const noexcept {
      std::size_t h = std::hash<Addr>{}(k.addr);
      h = h * 1000003 + std::hash<NodeId>{}(k.tag.writer);
      h = h * 1000003 + std::hash<std::uint64_t>{}(k.tag.seq);
      return h;
    }
  };

  /// One live (not yet tombstoned) write. Kill frontiers are 1-based op
  /// indices per process: kill_cc[q] <= pre(r)[q] means process q performed
  /// a WRITE m of this location with another tag, w *-> m, inside r's
  /// causal past — the Definition-1 intervener. kill_cm is the same for
  /// intervening READS. Entries are lazily sized; missing means "none".
  struct WriteRec {
    WriteTag tag{};
    NodeId proc{0};
    std::uint64_t num{0};  ///< 1-based program-order index at `proc`
    Value value{0};
    bool clock_dropped{false};  ///< clock <= every process: merging is a no-op
    bool ccv_saturated{false};
    std::vector<std::uint64_t> clock;
    std::vector<std::uint64_t> kill_cc;
    std::vector<std::uint64_t> kill_cm;
    std::vector<WriteTag> cf_before;  ///< CCv: writes arbitrated before this
  };

  struct InitKill {
    std::vector<std::uint64_t> cc;  ///< writes of x, per process
    std::vector<std::uint64_t> cm;  ///< non-initial reads of x, per process
  };

  void ensure_proc(NodeId p);
  void drain_from(NodeId first);
  void process_op(const Operation& op);
  void process_read(const Operation& op);
  void process_write(const Operation& op);
  /// Records intervener frontiers of every live write of `addr` the op at
  /// (q, n) causally follows. `is_write` selects kill_cc vs kill_cm.
  void kill_scan(Addr addr, const WriteTag& value_tag, bool is_write, NodeId q,
                 std::uint64_t n);
  void note_cf_edges(const Operation& read, WriteRec& src,
                     const std::vector<std::uint64_t>& pre);
  void record(OpRef ref, BadPattern pattern, std::string detail);
  void gc();
  void refresh_memory_estimate();

  [[nodiscard]] std::uint64_t self_count(NodeId q) const {
    const auto& v = clocks_[q];
    return q < v.size() ? v[q] : 0;
  }
  /// Component read tolerant of lazily-sized vectors.
  [[nodiscard]] static std::uint64_t at(const std::vector<std::uint64_t>& v,
                                        std::size_t i) noexcept {
    return i < v.size() ? v[i] : 0;
  }
  /// Raises component i of process q's clock to `value` (clocks only
  /// grow) and keeps the min frontier current.
  void advance(NodeId q, std::size_t i, std::uint64_t value);
  /// Component-wise max of `from` into process q's clock, through advance.
  void merge_into(NodeId q, const std::vector<std::uint64_t>& from);
  /// min(kill[q], n) with lazy growth (kNoKill when absent).
  static void kill_min(std::vector<std::uint64_t>& kill, std::size_t q,
                       std::uint64_t n);
  /// Index of a process whose kill entry is inside `pre`'s past, or -1.
  [[nodiscard]] static int kill_hit(const std::vector<std::uint64_t>& kill,
                                    const std::vector<std::uint64_t>& pre);
  [[nodiscard]] bool co_before(const WriteRec& w,
                               const std::vector<std::uint64_t>& clk) const {
    return w.clock_dropped || at(clk, w.proc) >= w.num;
  }

  static constexpr std::uint64_t kNoKill = ~std::uint64_t{0};

  StreamingOptions opts_;
  bool finished_{false};
  /// True while the construction-time process count is known complete; GC
  /// collection (clock drops, tombstones) is gated on it. Cleared by a late
  /// process admission (see ensure_proc).
  bool procs_declared_{false};

  // Per-process state. clocks_[q][i] counts i-ops in q's causal past; the
  // self component doubles as the processed-op count.
  std::vector<std::vector<std::uint64_t>> clocks_;
  std::vector<std::deque<Operation>> pending_;
  std::vector<std::uint8_t> blocked_;

  std::unordered_map<TagKey, WriteRec, TagKeyHash> writes_;
  /// Tombstoned writes, compacted: builders and recorders hand out dense
  /// per-writer seqs, so a fully-collected prefix compresses to a single
  /// watermark; out-of-order or gappy seqs wait in an exact overflow set
  /// that drains as the watermark advances. The tombstone forgets the
  /// write's address — a read carrying a real write's tag under the WRONG
  /// address would classify as kWriteCORead instead of kThinAirRead (same
  /// verdict, different label); no tag-respecting recorder produces one.
  struct TombTracker {
    std::uint64_t watermark{0};  ///< every seq <= this is tombstoned
    std::unordered_set<std::uint64_t> pending;
  };
  std::unordered_map<NodeId, TombTracker> tombstones_;
  std::uint64_t tombstone_count_{0};

  [[nodiscard]] bool is_tombstoned(const WriteTag& tag) const;
  void add_tombstone(const WriteTag& tag);
  std::unordered_map<Addr, std::vector<WriteRec*>> by_addr_;
  std::unordered_map<Addr, InitKill> init_kill_;
  std::unordered_map<TagKey, std::vector<NodeId>, TagKeyHash> waiters_;

  /// While procs_declared_: min_frontier_[i] is the least component i over
  /// every process's clock, and at_min_[i] how many clocks sit at it.
  std::vector<std::uint64_t> min_frontier_;
  std::vector<std::uint32_t> at_min_;
  std::uint32_t ops_since_gc_{0};
  std::vector<NodeId> work_;  ///< drain_from's worklist, reused across ops

  std::optional<StreamingViolation> first_cc_;
  std::optional<StreamingViolation> first_causal_;
  bool ccv_bad_{false};
  bool ccv_decided_{true};
  std::vector<StreamingViolation> violations_;
  std::uint64_t pattern_counts_[7] = {};

  StreamingStats stats_;
};

}  // namespace causalmem
