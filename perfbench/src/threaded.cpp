// The three threaded workloads: a closed loop of one application thread per
// node over DsmSystem<CausalNode>, through the public SharedMemory API.
//
// A run is a sequence of rounds. Each round builds a fresh system (timed as
// set-up, together with prepopulation and a fixed warm-up), runs the timed
// phase for seconds/rounds, checks every value read, and tears the system
// down. Reporting the median round keeps one slow round from moving the
// result. The traced run alternates untraced and traced rounds: counters
// come from the untraced ones, spans from the traced ones, and the ratio of
// their throughputs is the tracing overhead.
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/streaming_checker.hpp"
#include "causalmem/persist/vfs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace causalmem;

struct Shape {
  const char* name;
  std::size_t nodes;
  bool tcp_durable;  ///< TCP + fault layer + failover + persistence on MemVfs
  std::uint32_t write_per_10k;
  std::uint32_t remote_pct;  ///< uniform mixes: ops on other nodes' locations
  bool hot;                  ///< read_hot's hot-set generator
  Addr slots_per_node;
  std::uint64_t warmup_ops;  ///< per thread, inside set-up
};

constexpr Shape kShapes[] = {
    {"rw_inmem", 4, false, 5000, 30, false, 64, 20000},
    {"read_hot", 4, false, 30, 0, true, 64, 20000},
    {"durable_tcp", 3, true, 7000, 30, false, 64, 2000},
};

/// read_hot: the first kHotSlots slots of every node form the hot set; 95%
/// of reads and every write go there, the other reads to the reader's own
/// cold slots.
constexpr Addr kHotSlots = 2;
constexpr std::size_t kOpsPerThread = std::size_t{1} << 16;

const Shape* find_shape(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

struct GenOp {
  Addr addr;
  bool write;
  bool remote;
};

std::vector<GenOp> generate(const Shape& s, NodeId self, std::uint64_t seed,
                            std::size_t round) {
  const std::size_t n = s.nodes;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + round * 0xD1B54A32D192ED03ULL + self);
  std::vector<GenOp> ops(kOpsPerThread);
  for (GenOp& g : ops) {
    g.write = rng.next_below(10000) < s.write_per_10k;
    NodeId target = self;
    Addr slot = 0;
    if (s.hot) {
      if (g.write || rng.next_below(100) < 95) {
        target = static_cast<NodeId>(rng.next_below(n));
        slot = rng.next_below(kHotSlots);
      } else {
        slot = kHotSlots + rng.next_below(s.slots_per_node - kHotSlots);
      }
    } else {
      if (rng.next_below(100) < s.remote_pct) {
        target = static_cast<NodeId>((self + 1 + rng.next_below(n - 1)) % n);
      }
      slot = rng.next_below(s.slots_per_node);
    }
    g.addr = target + n * slot;
    g.remote = target != self;
  }
  return ops;
}

/// Vfs decorator over MemVfs: counts what the persist layer asks of its
/// disk, and records a span around each call in traced rounds.
class CountingVfs final : public persist::Vfs {
 public:
  bool read_file(const std::string& path, std::vector<std::byte>& out) override {
    ScopedSpan span(SpanName::kVfsRead);
    return inner_.read_file(path, out);
  }
  bool write_file_atomic(const std::string& path,
                         std::span<const std::byte> data) override {
    ScopedSpan span(SpanName::kVfsWriteAtomic);
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return inner_.write_file_atomic(path, data);
  }
  bool append(const std::string& path, std::span<const std::byte> data,
              bool sync) override {
    // A WAL record goes to an existing file; the WAL header creates it.
    // Told apart only when tracing, where the append identity is checked.
    if (Tracer::enabled() && inner_.exists(path)) {
      record_appends_.fetch_add(1, std::memory_order_relaxed);
    }
    ScopedSpan span(SpanName::kVfsAppend);
    wal_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    if (sync) syncs_.fetch_add(1, std::memory_order_relaxed);
    return inner_.append(path, data, sync);
  }
  bool sync(const std::string& path) override {
    ScopedSpan span(SpanName::kVfsSync);
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return inner_.sync(path);
  }
  bool truncate(const std::string& path, std::uint64_t size) override {
    ScopedSpan span(SpanName::kVfsOther);
    return inner_.truncate(path, size);
  }
  bool remove(const std::string& path) override {
    ScopedSpan span(SpanName::kVfsOther);
    return inner_.remove(path);
  }
  bool exists(const std::string& path) override {
    ScopedSpan span(SpanName::kVfsOther);
    return inner_.exists(path);
  }
  bool mkdirs(const std::string& dir) override {
    ScopedSpan span(SpanName::kVfsOther);
    return inner_.mkdirs(dir);
  }
  void drop_unsynced(const std::string& path) override {
    inner_.drop_unsynced(path);
  }

  struct Counts {
    std::uint64_t record_appends;
    std::uint64_t wal_bytes;
    std::uint64_t syncs;
  };
  [[nodiscard]] Counts counts() const {
    return {record_appends_.load(std::memory_order_relaxed),
            wal_bytes_.load(std::memory_order_relaxed),
            syncs_.load(std::memory_order_relaxed)};
  }

 private:
  persist::MemVfs inner_;
  std::atomic<std::uint64_t> record_appends_{0};
  std::atomic<std::uint64_t> wal_bytes_{0};
  std::atomic<std::uint64_t> syncs_{0};
};

/// Feeds every operation to a StreamingCausalChecker (traced rounds only).
/// Callbacks arrive under each node's operation lock, in its program order.
class CheckingObserver final : public OpObserver {
 public:
  explicit CheckingObserver(std::size_t n) : checker_(n) {}

  void on_read(NodeId node, Addr x, Value v, const WriteTag& tag,
               const OpTiming&) override {
    ScopedSpan span(SpanName::kHistoryFeed);
    std::lock_guard lk(mu_);
    if (open_) checker_.on_read(node, x, v, tag);
  }
  void on_write(NodeId node, Addr x, Value v, const WriteTag& tag, bool,
                const OpTiming&) override {
    ScopedSpan span(SpanName::kHistoryFeed);
    std::lock_guard lk(mu_);
    if (open_) checker_.on_write(node, x, v, tag);
  }

  /// Ends the stream; returns the violation, or "" when causally consistent.
  std::string finish() {
    std::lock_guard lk(mu_);
    open_ = false;
    checker_.finish();
    if (checker_.causal_ok()) return {};
    const auto& v = checker_.first_violation();
    return v ? v->detail : std::string("causal violation");
  }

 private:
  std::mutex mu_;
  bool open_{true};
  StreamingCausalChecker checker_;
};

struct ThreadOut {
  LatencyHist read_remote;
  LatencyHist write_remote;
  LatencyHist local;
  std::uint64_t reads{0};
  std::uint64_t writes{0};
  std::uint64_t timed_ops{0};
  std::uint64_t timed_writes{0};
  std::uint64_t failed{0};
  std::string first_error;
};

struct Round {
  double setup_s{0};
  double ops_per_s{0};
  std::uint64_t ops{0};
  std::uint64_t writes{0};     ///< timed-phase writes
  std::uint64_t all_writes{0};  ///< every write of the round, prepopulation too
  StatsSnapshot delta;         ///< counters over the timed phase
  obs::HistogramSnapshot rtt;  ///< owner RTT samples of the timed phase
  Usage usage;
  std::uint64_t out_octets{0};
  std::uint64_t wal_bytes{0};
  std::uint64_t syncs{0};
  double restart_ms{0};
  double restore_ms{0};
  double read_p50_ns{0};  ///< remote reads of the timed phase
  double read_p90_ns{0};
  double write_p50_ns{0};  ///< remote writes of the timed phase
  double write_p90_ns{0};
};

obs::HistogramSnapshot minus(obs::HistogramSnapshot a,
                             const obs::HistogramSnapshot& b) {
  for (std::size_t i = 0; i < a.buckets.size(); ++i) a.buckets[i] -= b.buckets[i];
  a.count -= b.count;
  a.sum -= b.sum;
  return a;
}

class RoundRunner {
 public:
  RoundRunner(const Shape& s, std::uint64_t seed, std::size_t round,
              RunResult& result)
      : s_(s), n_(s.nodes), result_(result), issued_(s.nodes) {
    // Generated before the set-up clock starts: the program only ever sees
    // the finished operation lists.
    for (NodeId i = 0; i < n_; ++i) ops_.push_back(generate(s, i, seed, round));
    victim_ = static_cast<NodeId>(round % n_);
  }

  /// Runs one round. Untraced rounds add their latency samples to `tails`.
  Round run(bool traced, double phase_s, ThreadOut& tails) {
    Round r;
    std::vector<ThreadOut> outs(n_);
    std::unique_ptr<CheckingObserver> checker;
    if (traced) checker = std::make_unique<CheckingObserver>(n_);
    CountingVfs vfs;
    Tracer::set_enabled(traced);

    const std::uint64_t setup0 = wall_ns();
    CausalConfig cfg;
    SystemOptions opt;
    if (s_.tcp_durable) {
      cfg.request_timeout = std::chrono::seconds(10);
      opt.use_tcp = true;
      opt.fault_layer = true;
      opt.failover.enabled = true;
      opt.persist.enabled = true;
      opt.persist.dir = "perfbench";
      opt.persist.sync_every_append = true;
      opt.persist.vfs = &vfs;
    } else {
      opt.exercise_codec = true;
    }
    auto sys = std::make_unique<DsmSystem<CausalNode>>(n_, cfg, opt, nullptr,
                                                       checker.get());
    for (NodeId i = 0; i < n_; ++i) {
      for (Addr k = 0; k < s_.slots_per_node; ++k) {
        const Addr a = i + n_ * k;
        sys->memory(i).write(a, codec::encode(a, i, 0));
      }
    }
    std::latch warmed(static_cast<std::ptrdiff_t>(n_));
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    {
      std::vector<std::jthread> threads;
      for (NodeId i = 0; i < n_; ++i) {
        threads.emplace_back([&, i] {
          worker(*sys, i, outs[i], warmed, go, stop);
        });
      }
      warmed.wait();
      const std::uint64_t setup1 = wall_ns();
      r.setup_s = static_cast<double>(setup1 - setup0) * 1e-9;

      const StatsSnapshot before = sys->stats().total();
      const obs::HistogramSnapshot rtt0 =
          sys->stats().latency_total(LatencyMetric::kOwnerRttNs);
      const CountingVfs::Counts vfs0 = vfs.counts();
      const std::uint64_t oct0 = net_out_octets();
      const Usage u0 = Usage::now();
      const std::uint64_t t0 = wall_ns();
      go.store(true, std::memory_order_release);
      go.notify_all();
      std::this_thread::sleep_for(std::chrono::duration<double>(phase_s));
      stop.store(true, std::memory_order_relaxed);
      for (auto& t : threads) t.join();
      const std::uint64_t t1 = wall_ns();
      r.usage = Usage::now() - u0;
      r.out_octets = net_out_octets() - oct0;
      const CountingVfs::Counts vfs1 = vfs.counts();
      const StatsSnapshot after = sys->stats().total();
      r.delta = after - before;
      r.rtt = minus(sys->stats().latency_total(LatencyMetric::kOwnerRttNs), rtt0);
      r.wal_bytes = vfs1.wal_bytes - vfs0.wal_bytes;
      r.syncs = vfs1.syncs - vfs0.syncs;

      std::uint64_t reads = 0;
      std::uint64_t writes = n_ * s_.slots_per_node;  // prepopulation
      ThreadOut merged;
      for (const ThreadOut& t : outs) {
        merged.read_remote.merge(t.read_remote);
        merged.write_remote.merge(t.write_remote);
        merged.local.merge(t.local);
        r.ops += t.timed_ops;
        r.writes += t.timed_writes;
        reads += t.reads;
        writes += t.writes;
        result_.attempted += t.reads + t.writes;
        for (std::uint64_t k = 0; k < t.failed; ++k) result_.fail(t.first_error);
      }
      result_.attempted += n_ * s_.slots_per_node;
      r.all_writes = writes;
      r.read_p50_ns = merged.read_remote.quantile(0.5);
      r.read_p90_ns = merged.read_remote.quantile(0.9);
      r.write_p50_ns = merged.write_remote.quantile(0.5);
      r.write_p90_ns = merged.write_remote.quantile(0.9);
      if (!traced) {
        tails.read_remote.merge(merged.read_remote);
        tails.write_remote.merge(merged.write_remote);
        tails.local.merge(merged.local);
      }
      r.ops_per_s = static_cast<double>(r.ops) /
                    (static_cast<double>(t1 - t0) * 1e-9);
      if (traced) check_identities(after, reads, writes, vfs1);
    }

    if (checker != nullptr) {
      const std::string violation = checker->finish();
      if (!violation.empty()) result_.fail("streaming checker: " + violation);
    }
    if (s_.tcp_durable) restart(*sys, r);
    sys.reset();
    Tracer::set_enabled(false);
    return r;
  }

 private:
  void worker(DsmSystem<CausalNode>& sys, NodeId self, ThreadOut& out,
              std::latch& warmed, const std::atomic<bool>& go,
              const std::atomic<bool>& stop) {
    SharedMemory& mem = sys.memory(self);
    const std::vector<GenOp>& ops = ops_[self];
    std::vector<std::uint64_t> last_own(n_ * s_.slots_per_node, 0);
    std::uint64_t seq = 0;
    std::size_t idx = 0;
    auto one = [&](bool timed) {
      const GenOp& g = ops[idx++ & (kOpsPerThread - 1)];
      OpScope scope;
      if (g.write) {
        ++seq;
        last_own[g.addr] = seq;
        issued_[self].store(seq, std::memory_order_release);
        const Value v = codec::encode(g.addr, self, seq);
        const std::uint64_t a = wall_ns();
        {
          ScopedSpan span(g.remote ? SpanName::kOpWriteRemote
                                   : SpanName::kOpWriteLocal);
          mem.write(g.addr, v);
        }
        const std::uint64_t b = wall_ns();
        ++out.writes;
        if (timed) {
          ++out.timed_writes;
          (g.remote ? out.write_remote : out.local).record(b - a);
        }
      } else {
        const std::uint64_t a = wall_ns();
        Value v = 0;
        {
          ScopedSpan span(g.remote ? SpanName::kOpReadRemote
                                   : SpanName::kOpReadLocal);
          v = mem.read(g.addr);
        }
        const std::uint64_t b = wall_ns();
        ++out.reads;
        if (timed) (g.remote ? out.read_remote : out.local).record(b - a);
        if (!read_ok(v, g.addr, self, last_own)) {
          if (out.failed++ == 0) {
            const codec::Decoded d = codec::decode(v);
            out.first_error =
                "node " + std::to_string(self) + " read " +
                std::to_string(g.addr) + " -> addr " + std::to_string(d.addr) +
                " writer " + std::to_string(d.writer) + " seq " +
                std::to_string(d.seq) + " (own last " +
                std::to_string(last_own[g.addr]) + ")";
          }
        }
      }
    };
    for (std::uint64_t k = 0; k < s_.warmup_ops; ++k) one(false);
    warmed.count_down();
    go.wait(false, std::memory_order_acquire);
    while (!stop.load(std::memory_order_relaxed)) {
      one(true);
      ++out.timed_ops;
    }
  }

  /// A read returns a value written to that address (or its prepopulated
  /// value, sequence 0 by the owner), never one not yet issued, and never
  /// an own write older than this thread's last write to the address.
  bool read_ok(Value v, Addr addr, NodeId self,
               const std::vector<std::uint64_t>& last_own) const {
    if (v == 0) return false;
    const codec::Decoded d = codec::decode(v);
    if (d.addr != addr || d.writer >= n_) return false;
    if (d.seq == 0) {
      return d.writer == addr % n_ && (d.writer != self || last_own[addr] == 0);
    }
    if (d.writer == self) return d.seq == last_own[addr];
    return d.seq <= issued_[d.writer].load(std::memory_order_acquire);
  }

  void check_identities(const StatsSnapshot& c, std::uint64_t reads,
                        std::uint64_t writes, const CountingVfs::Counts& vfs) {
    const auto expect = [&](const char* what, std::uint64_t got,
                            std::uint64_t want) {
      if (got != want) {
        result_.fail(std::string("counter identity ") + what + ": " +
                     std::to_string(got) + " != " + std::to_string(want));
      }
    };
    expect("read_hit + read_miss = reads issued",
           c[Counter::kReadHit] + c[Counter::kReadMiss], reads);
    expect("write_local + write_remote = writes issued",
           c[Counter::kWriteLocal] + c[Counter::kWriteRemote], writes);
    std::uint64_t by_type = 0;
    for (const Counter m : kMsgTypeCounters) by_type += c[m];
    expect("per-type messages = messages sent", by_type, c.messages_sent());
    if (s_.tcp_durable) {
      expect("vfs record appends = persist.wal_append", vfs.record_appends,
             c[Counter::kPersistWalAppend]);
    }
  }

  /// Crashes one node with its disk intact, restarts it, and reads every
  /// page it owns; each must come back with its pre-crash value.
  void restart(DsmSystem<CausalNode>& sys, Round& r) {
    SharedMemory& mem = sys.memory(victim_);
    std::vector<Addr> owned;
    std::vector<Value> expect;
    for (Addr k = 0; k < s_.slots_per_node; ++k) {
      owned.push_back(victim_ + n_ * k);
      expect.push_back(mem.read(owned.back()));
    }
    const std::uint64_t t0 = wall_ns();
    sys.faulty_transport()->crash_node(victim_);
    const std::uint64_t q0 = wall_ns();
    bool rejoined = false;
    {
      ScopedSpan span(SpanName::kRestartNode);
      rejoined = sys.restart_node(victim_);
    }
    const std::uint64_t q1 = wall_ns();
    if (!rejoined) result_.fail("restart_node: rejoin incomplete");
    for (std::size_t k = 0; k < owned.size(); ++k) {
      const Value v = mem.read(owned[k]);
      if (v != expect[k]) {
        result_.fail("after restart, page " + std::to_string(owned[k]) +
                     " lost its pre-crash value");
      }
    }
    const std::uint64_t t1 = wall_ns();
    result_.attempted += 2 * owned.size();
    r.restart_ms = static_cast<double>(t1 - t0) * 1e-6;
    r.restore_ms = static_cast<double>(q1 - q0) * 1e-6;
  }

  const Shape& s_;
  const std::size_t n_;
  RunResult& result_;
  std::vector<std::vector<GenOp>> ops_;
  std::vector<std::atomic<std::uint64_t>> issued_;
  NodeId victim_{0};
};

}  // namespace

bool is_threaded_workload(const std::string& name) {
  return find_shape(name) != nullptr;
}

RunResult run_threaded(const RunOptions& opt) {
  const Shape& s = *find_shape(opt.workload);
  RunResult result;
  // Two rounds per second of measurement, and an even count so the traced
  // run splits evenly between untraced and traced rounds.
  std::size_t rounds = static_cast<std::size_t>(std::max(2.0, 2 * opt.seconds));
  rounds += rounds % 2;
  const double phase_s = opt.seconds / static_cast<double>(rounds);
  std::vector<Round> plain;
  std::vector<Round> traced;
  ThreadOut all;  // latency samples of every untraced round, for the tails
  double first_round_rss = 0;
  for (std::size_t k = 0; k < rounds; ++k) {
    const bool trace_round = opt.trace && k % 2 == 1;
    RoundRunner runner(s, opt.seed, k, result);
    (trace_round ? traced : plain).push_back(runner.run(trace_round, phase_s, all));
    // The process is fresh for its first round only: later rounds inherit
    // allocator arenas the earlier ones grew.
    if (k == 0) first_round_rss = peak_rss_mb();
  }

  // End to end, from the untraced rounds.
  StatsSnapshot c;
  obs::HistogramSnapshot rtt;
  Usage usage;
  std::uint64_t ops = 0;
  std::uint64_t writes = 0;
  std::uint64_t octets = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t syncs = 0;
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<double> rr50;
  std::vector<double> rr90;
  std::vector<double> rw50;
  std::vector<double> rw90;
  for (const Round& r : plain) {
    c += r.delta;
    rtt += r.rtt;
    usage.cpu_us += r.usage.cpu_us;
    usage.ctx_switches += r.usage.ctx_switches;
    ops += r.ops;
    writes += r.writes;
    octets += r.out_octets;
    wal_bytes += r.wal_bytes;
    syncs += r.syncs;
    rates.push_back(r.ops_per_s);
    setups.push_back(r.setup_s);
    rr50.push_back(r.read_p50_ns);
    rr90.push_back(r.read_p90_ns);
    rw50.push_back(r.write_p50_ns);
    rw90.push_back(r.write_p90_ns);
  }
  const double ops_d = static_cast<double>(ops);
  EndToEnd e;
  e.ops_per_s = median(rates);
  e.remote_read_p50_us = median(rr50) * 1e-3;
  e.remote_read_p90_us = median(rr90) * 1e-3;
  e.remote_write_p50_us = median(rw50) * 1e-3;
  e.remote_write_p90_us = median(rw90) * 1e-3;
  e.msgs_per_op = ratio(static_cast<double>(c.messages_sent()), ops_d);
  e.setup_s = median(setups);
  e.peak_rss_mb = first_round_rss;
  emit(e, result);

  report_tail(result, "remote_read", all.read_remote, 1e3, "us");
  report_tail(result, "remote_write", all.write_remote, 1e3, "us");
  result.report.push_back({"dsm.local_op_p50_ns", all.local.quantile(0.5), "ns"});
  report_tail(result, "dsm.local_op", all.local, 1.0, "ns");
  if (s.tcp_durable) {
    std::vector<double> restarts;
    std::vector<double> restores;
    for (const auto* rs : {&plain, &traced}) {
      for (const Round& r : *rs) {
        restarts.push_back(r.restart_ms);
        restores.push_back(r.restore_ms);
      }
    }
    result.report.push_back({"restart_to_serving_ms", median(restarts), "ms"});
    result.report.push_back({"persist.restore_ms", median(restores), "ms"});
  }
  if (!opt.trace) return result;

  // Per layer: counts from the untraced rounds, spans from the traced ones.
  Layers l;
  const double hits = static_cast<double>(c[Counter::kReadHit]);
  l.read_hit_ratio =
      ratio(hits, hits + static_cast<double>(c[Counter::kReadMiss]));
  l.invalidations_per_op =
      ratio(static_cast<double>(c[Counter::kInvalidationApplied]), ops_d);
  l.owner_rtt_p50_us = snapshot_quantile(rtt, 0.5) * 1e-3;
  for (std::size_t k = 0; k < kMsgTypes; ++k) {
    l.msgs_per_op_by_type[k] =
        ratio(static_cast<double>(c[kMsgTypeCounters[k]]), ops_d);
  }
  l.ctx_switches_per_op = ratio(static_cast<double>(usage.ctx_switches), ops_d);
  l.cpu_us_per_op = ratio(usage.cpu_us, ops_d);
  l.wire_bytes_per_op = ratio(static_cast<double>(octets), ops_d);
  l.wal_bytes_per_write =
      ratio(static_cast<double>(wal_bytes), static_cast<double>(writes));
  l.syncs_per_write = ratio(static_cast<double>(syncs), static_cast<double>(writes));

  Tracer::collect();
  const auto& spans = Tracer::totals();
  const auto& feed = spans[static_cast<std::size_t>(SpanName::kHistoryFeed)];
  l.check_ns_per_op =
      ratio(static_cast<double>(feed.total_ns), static_cast<double>(feed.count));
  std::vector<double> traced_rates;
  std::uint64_t traced_writes = 0;
  for (const Round& r : traced) {
    traced_rates.push_back(r.ops_per_s);
    traced_writes += r.all_writes;
  }
  l.trace_overhead = ratio(median(traced_rates), e.ops_per_s);
  emit(l, result);

  if (s.tcp_durable) {
    std::uint64_t vfs_ns = 0;
    for (const SpanName n :
         {SpanName::kVfsAppend, SpanName::kVfsSync, SpanName::kVfsWriteAtomic}) {
      vfs_ns += spans[static_cast<std::size_t>(n)].total_ns;
    }
    result.report.push_back(
        {"persist.vfs_us_per_write",
         ratio(static_cast<double>(vfs_ns) * 1e-3,
               static_cast<double>(traced_writes)),
         "us"});
  }
  return result;
}

}  // namespace perfbench
