// checker_cli — check a hand-written execution against sequential
// consistency, causal memory, PRAM and slow memory, and print the causal
// live set (the paper's alpha) for every read.
//
// Modes:
//
//   checker_cli [trace-file]
//       Batch mode over a complete trace (stdin when no file): the brute
//       Definition-1 oracle, the SC and PRAM searches and the slow-memory
//       checker. Exact diagnoses and per-read live sets; fine up to ~10^3
//       ops.
//
//   checker_cli --streaming [--procs N] [trace-file]
//       Incremental mode: each line is fed to the StreamingCausalChecker as
//       it is read, so the verdict engine's state stays bounded (GC'd write
//       table + vector clocks) no matter how long the trace is. Prints the
//       CC / CM / CCv verdicts, the first violation, and the checker's
//       memory statistics. The (addr, value) -> write-tag resolver map is
//       the CLI's own memory floor — the checker underneath stays bounded.
//       The checker's GC is only sound over a COMPLETE process set, so the
//       process count is pre-scanned from a trace file (or declared with
//       --procs for stdin); streaming from stdin without --procs is still
//       exact, but runs with GC disabled. A --procs that disagrees with a
//       pre-scanned file is diagnosed up front: too small is an error,
//       too large is clamped (declared-but-silent processes would pin the
//       GC frontier at zero and the checker would collect nothing).
//
//   checker_cli --schedule <scenario> <schedule-file>
//       Replays a `# causalmem-schedule-v1` artifact (written by
//       sim_explore / failing sim tests) with the online streaming checker
//       riding the run; the post-hoc check_consistency cross-checks it.
//       Scenarios: causal | broadcast | broadcast-ungated.
//
// Trace input: one operation per line (see include/causalmem/history/trace.hpp):
//
//     w <proc> <addr> <value>      a write
//     r <proc> <addr> <value>      a read returning <value>
//     # comment / blank lines ignored
//
// Reads resolve their reads-from write by (addr, value); write values must
// therefore be unique per location (value 0 means the initial value).
//
// Example (the paper's Figure 3):
//     w 0 0 5
//     w 0 1 3
//     w 1 0 2
//     r 1 1 3
//     r 1 0 5
//     w 1 2 4
//     r 2 2 4
//     r 2 0 2
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "causalmem/history/causal_checker.hpp"
#include "causalmem/history/history.hpp"
#include "causalmem/history/model_checkers.hpp"
#include "causalmem/history/sc_checker.hpp"
#include "causalmem/history/streaming_checker.hpp"
#include "causalmem/history/trace.hpp"
#include "causalmem/sim/explorer.hpp"
#include "causalmem/sim/scenarios.hpp"

using namespace causalmem;

namespace {

const char* verdict(bool ok) { return ok ? "YES" : "no"; }

const char* verdict(ScResult r) {
  switch (r) {
    case ScResult::kConsistent: return "YES";
    case ScResult::kInconsistent: return "no";
    case ScResult::kUndecided: return "undecided (state budget)";
  }
  return "?";
}

int usage() {
  std::fprintf(stderr,
               "usage: checker_cli [trace-file]\n"
               "       checker_cli --streaming [--procs N] [trace-file]\n"
               "       checker_cli --schedule <scenario> <schedule-file>\n"
               "scenarios: causal | broadcast | broadcast-ungated\n");
  return 2;
}

// --- streaming trace mode --------------------------------------------------

/// Synthesizes write tags on the fly so reads can be fed before their write
/// arrives (the trace format legally forward-references: any interleaving
/// consistent with per-process order is valid, and the checker parks such
/// reads until the write shows up). Because write values are unique per
/// location, (addr, value) IS the write's identity — the tag is assigned on
/// first mention, whether that mention is the write itself or a read of it.
/// Tags use a per-address synthetic writer id with a dense per-address seq,
/// which keeps the checker's tombstone watermarks compact.
class TagResolver {
 public:
  WriteTag resolve(Addr a, Value v) {
    if (v == kInitialValue) return WriteTag{};  // the distinguished initial
    const auto [it, fresh] = tags_.try_emplace(Key{a, v});
    if (fresh) {
      const auto [w, _] = writer_of_.try_emplace(
          a, static_cast<NodeId>(writer_of_.size()));
      it->second = WriteTag{w->second, ++next_seq_[w->second]};
    }
    return it->second;
  }

  [[nodiscard]] std::size_t size() const { return tags_.size(); }

 private:
  struct Key {
    Addr addr;
    Value value;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<Addr>{}(k.addr) * 1000003 +
             std::hash<Value>{}(static_cast<std::uint64_t>(k.value));
    }
  };
  std::unordered_map<Key, WriteTag, KeyHash> tags_;
  std::unordered_map<Addr, NodeId> writer_of_;
  std::unordered_map<NodeId, std::uint64_t> next_seq_;
};

void print_violation(const StreamingViolation& v) {
  std::printf("  -> p%u[%zu] %s: %s\n", static_cast<unsigned>(v.op.proc),
              v.op.index, bad_pattern_name(v.pattern), v.detail.c_str());
}

/// Counts the processes a trace mentions, so the streaming checker can be
/// constructed with the complete process set — the declaration its GC needs
/// ("collectable" quantifies over every process, which is unknowable while
/// new processes may still appear).
std::size_t scan_process_count(std::istream& in) {
  std::size_t procs = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    char kind = 0;
    if (!(ls >> kind) || kind == '#') continue;
    unsigned long proc = 0;
    if ((kind == 'w' || kind == 'r') && (ls >> proc)) {
      procs = std::max(procs, static_cast<std::size_t>(proc) + 1);
    }
  }
  return procs;
}

int run_streaming(std::istream& in, std::size_t nprocs) {
  StreamingCausalChecker checker(nprocs);
  TagResolver tags;
  std::uint64_t reads = 0, writes = 0;
  std::size_t lineno = 0;
  std::size_t procs_seen = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    char kind = 0;
    if (!(ls >> kind)) continue;  // blank
    if (kind == '#') continue;
    unsigned long proc = 0;
    unsigned long long addr = 0;
    long long value = 0;
    if ((kind != 'w' && kind != 'r') || !(ls >> proc >> addr >> value)) {
      std::fprintf(stderr, "line %zu: cannot parse '%s'\n", lineno,
                   line.c_str());
      return 2;
    }
    if (nprocs > 0 && proc >= nprocs) {
      std::fprintf(stderr,
                   "line %zu: process %lu outside the declared set of %zu "
                   "(--procs too small?)\n",
                   lineno, proc, nprocs);
      return 2;
    }
    procs_seen = std::max(procs_seen, static_cast<std::size_t>(proc) + 1);
    const auto p = static_cast<NodeId>(proc);
    const auto a = static_cast<Addr>(addr);
    const auto v = static_cast<Value>(value);
    const WriteTag tag = tags.resolve(a, v);
    if (kind == 'w') {
      if (tag.is_initial()) {
        std::fprintf(stderr, "line %zu: cannot write the initial value 0\n",
                     lineno);
        return 2;
      }
      checker.on_write(p, a, v, tag);
      ++writes;
    } else {
      checker.on_read(p, a, v, tag);
      ++reads;
    }
  }
  checker.finish();

  const StreamingStats& st = checker.stats();
  std::printf("streamed %llu ops (%llu writes, %llu reads, %zu distinct "
              "written values)\n",
              static_cast<unsigned long long>(st.ops_seen),
              static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(reads), tags.size());
  std::printf("CC  (weak causal consistency): %s\n", verdict(checker.cc_ok()));
  std::printf("CM  (causal memory, Def. 1/2): %s\n",
              verdict(checker.causal_ok()));
  std::printf("CCv (causal convergence):      %s%s\n",
              verdict(checker.ccv_ok()),
              checker.ccv_decided() ? "" : " (undecided: state budget)");
  if (checker.first_violation().has_value()) {
    print_violation(*checker.first_violation());
  }
  if (st.duplicate_tags > 0) {
    std::printf("warning: %llu duplicate write values per location — input "
                "is not differentiated, verdicts cover the first write of "
                "each value only\n",
                static_cast<unsigned long long>(st.duplicate_tags));
  }
  std::printf(
      "checker state: peak %llu pending, peak %llu live writes, "
      "%llu tombstoned, ~%llu bytes peak\n",
      static_cast<unsigned long long>(st.peak_pending),
      static_cast<unsigned long long>(st.peak_live_writes),
      static_cast<unsigned long long>(st.tombstones),
      static_cast<unsigned long long>(st.peak_approx_bytes));
  if (nprocs == 0) {
    std::printf("note: process count undeclared (stdin input): checker GC "
                "was off; pass --procs N to bound live state\n");
  } else if (procs_seen < nprocs) {
    // A declared process that never speaks pins the GC frontier at zero —
    // the checker stays sound but collects nothing, which looks like a
    // leak on long traces. Say so instead of letting the user puzzle over
    // the memory statistics (file inputs are clamped up front; this is the
    // stdin path, where the overshoot is only knowable at EOF).
    std::printf("note: --procs %zu declared but the trace used only %zu "
                "process%s — the %zu silent process%s kept the GC frontier "
                "at zero, so live state was never collected; pass --procs "
                "%zu\n",
                nprocs, procs_seen, procs_seen == 1 ? "" : "es",
                nprocs - procs_seen, nprocs - procs_seen == 1 ? "" : "es",
                procs_seen);
  }
  return checker.causal_ok() ? 0 : 1;
}

// --- schedule replay mode --------------------------------------------------

int run_schedule(const std::string& scenario, const char* path) {
  sim::RunFn run;
  if (scenario == "causal") {
    sim::CausalScenarioConfig cfg = sim::small_scope_causal();
    cfg.online_check = true;
    run = sim::make_causal_run(std::move(cfg));
  } else if (scenario == "broadcast" || scenario == "broadcast-ungated") {
    sim::BroadcastScenarioConfig cfg =
        sim::small_scope_broadcast(scenario == "broadcast");
    cfg.online_check = true;
    run = sim::make_broadcast_run(std::move(cfg));
  } else {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
    return usage();
  }

  std::string err;
  const auto sched = sim::Schedule::load(path, &err);
  if (!sched) {
    std::fprintf(stderr, "cannot load schedule: %s\n", err.c_str());
    return 2;
  }
  const sim::ExecutionResult res = sim::replay(run, *sched);
  if (res.failed()) {
    std::printf("schedule violates:\n  %s\n", res.failure().c_str());
    return 1;
  }
  std::printf("schedule is checker-clean (online streaming checker agrees "
              "with the post-hoc check_consistency)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool streaming = false;
  std::size_t procs = 0;
  const char* input = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--streaming") == 0) {
      streaming = true;
    } else if (std::strcmp(argv[i], "--procs") == 0) {
      if (i + 1 >= argc) return usage();
      procs = std::strtoul(argv[++i], nullptr, 10);
      if (procs == 0) return usage();
    } else if (std::strcmp(argv[i], "--schedule") == 0) {
      if (i + 2 >= argc) return usage();
      return run_schedule(argv[i + 1], argv[i + 2]);
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (input == nullptr) {
      input = argv[i];
    } else {
      return usage();
    }
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (input != nullptr) {
    file.open(input);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", input);
      return 2;
    }
    in = &file;
  }

  if (streaming) {
    if (input != nullptr) {
      // A file can be pre-scanned for the complete process set, which keeps
      // the checker's GC active (sound only over a closed set of processes)
      // and lets a wrong --procs be diagnosed before any line is checked:
      // too small would reject the first out-of-range op mid-stream; too
      // large would pin the GC frontier at zero for the whole run.
      const std::size_t actual = scan_process_count(file);
      file.clear();
      file.seekg(0);
      if (procs == 0) {
        procs = actual;
      } else if (procs < actual) {
        std::fprintf(stderr,
                     "--procs %zu is smaller than the %zu processes the "
                     "trace actually uses\n",
                     procs, actual);
        return 2;
      } else if (procs > actual) {
        std::fprintf(stderr,
                     "warning: --procs %zu declares processes the trace "
                     "never uses; clamping to %zu so checker GC stays "
                     "effective\n",
                     procs, actual);
        procs = actual;
      }
    }
    return run_streaming(*in, procs);
  }

  const auto parsed = parse_trace(*in);
  if (const auto* err = std::get_if<TraceParseError>(&parsed)) {
    std::fprintf(stderr, "line %zu: %s\n", err->line, err->message.c_str());
    return 2;
  }
  const History& h = std::get<History>(parsed);
  std::printf("execution:\n%s\n", h.to_string().c_str());

  const CausalChecker causal(h);
  const auto causal_violation = causal.check();

  std::printf("sequentially consistent: %s\n",
              verdict(check_sequential_consistency(h)));
  std::printf("causally consistent:     %s\n",
              verdict(!causal_violation.has_value()));
  if (causal_violation) {
    std::printf("  -> %s\n", causal_violation->reason.c_str());
  }
  std::printf("PRAM consistent:         %s\n",
              verdict(check_pram_consistency(h)));
  const auto slow_violation = check_slow_consistency(h);
  std::printf("slow-memory consistent:  %s\n",
              verdict(!slow_violation.has_value()));
  if (slow_violation) {
    std::printf("  -> %s\n", slow_violation->reason.c_str());
  }

  std::printf("\nlive sets (the paper's alpha(o)):\n");
  for (NodeId p = 0; p < h.process_count(); ++p) {
    for (std::size_t i = 0; i < h.per_process[p].size(); ++i) {
      const Operation& op = h.op(OpRef{p, i});
      if (op.kind != OpKind::kRead) continue;
      const auto live = causal.live_set(OpRef{p, i});
      std::printf("  %-12s alpha = {", op.to_string().c_str());
      bool first = true;
      for (const Value v : live) {
        std::printf("%s%lld", first ? "" : ", ", static_cast<long long>(v));
        first = false;
      }
      std::printf("}%s\n", live.contains(op.value) ? "" : "   <-- VIOLATION");
    }
  }
  return causal_violation.has_value() ? 1 : 0;
}
