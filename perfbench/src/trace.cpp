#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- LatencyHist -----------------------------------------------------------

std::size_t LatencyHist::index(std::uint64_t ns) noexcept {
  if (ns < kLinear) return static_cast<std::size_t>(ns);
  const int octave = std::bit_width(ns) - 1;  // >= 12
  const std::uint64_t sub = (ns >> (octave - kSubBits)) & ((1u << kSubBits) - 1);
  return kLinear + static_cast<std::size_t>(octave - 12) * (1u << kSubBits) +
         static_cast<std::size_t>(sub);
}

double LatencyHist::lower(std::size_t i) noexcept {
  if (i < kLinear) return static_cast<double>(i);
  const std::size_t k = i - kLinear;
  const int octave = static_cast<int>(k >> kSubBits) + 12;
  const std::uint64_t sub = k & ((1u << kSubBits) - 1);
  return static_cast<double>(((1u << kSubBits) + sub) << (octave - kSubBits));
}

double LatencyHist::width(std::size_t i) noexcept {
  if (i < kLinear) return 1.0;
  const int octave = static_cast<int>((i - kLinear) >> kSubBits) + 12;
  return static_cast<double>(std::uint64_t{1} << (octave - kSubBits));
}

void LatencyHist::merge(const LatencyHist& o) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double LatencyHist::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double cum = 0.0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto c = static_cast<double>(buckets_[i]);
    if (c == 0.0) continue;
    last = i;
    if (cum + c >= target) {
      const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
      return lower(i) + frac * width(i);
    }
    cum += c;
  }
  return lower(last) + width(last);
}

double snapshot_quantile(const causalmem::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  double cum = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto c = static_cast<double>(h.buckets[i]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      const auto lo = static_cast<double>(h.bucket_lower(i));
      const auto hi = static_cast<double>(h.bucket_upper(i)) + 1.0;
      return lo + (hi - lo) * std::clamp((target - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return static_cast<double>(h.max);
}

// --- Tracer ----------------------------------------------------------------

const char* span_name(SpanName n) noexcept {
  switch (n) {
    case SpanName::kOpReadLocal: return "app.op.read.local";
    case SpanName::kOpReadRemote: return "app.op.read.remote";
    case SpanName::kOpWriteLocal: return "app.op.write.local";
    case SpanName::kOpWriteRemote: return "app.op.write.remote";
    case SpanName::kHistoryFeed: return "history.feed";
    case SpanName::kVfsAppend: return "persist.vfs.append";
    case SpanName::kVfsSync: return "persist.vfs.sync";
    case SpanName::kVfsWriteAtomic: return "persist.vfs.write_file_atomic";
    case SpanName::kVfsRead: return "persist.vfs.read_file";
    case SpanName::kVfsOther: return "persist.vfs.other";
    case SpanName::kRestartNode: return "dsm.restart_node";
    case SpanName::kSimPick: return "sim.pick";
    case SpanName::kCount: break;
  }
  return "?";
}

std::atomic<bool> Tracer::enabled_{false};

namespace {

constexpr std::int64_t kRawCap = 200'000;
constexpr std::uint8_t kNoParent = 0xFF;

struct RawSpan {
  std::uint32_t tid;
  std::uint8_t name;
  std::uint8_t parent;
  std::uint64_t op;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint64_t self_ns;
};

struct ThreadTrace {
  struct Open {
    SpanName name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::uint32_t tid{0};
  std::array<Open, 16> stack{};
  int depth{0};
  std::uint64_t op_id{0};
  std::array<std::unique_ptr<SpanTotals>, kSpanNames> totals;
  std::vector<RawSpan> raw;
};

// Leaked on purpose: thread_local destructors of late threads may fold
// into it during static destruction.
struct Registry {
  std::mutex mu;
  std::vector<ThreadTrace*> live;
  std::array<SpanTotals, kSpanNames> totals;
  std::vector<RawSpan> raw;
  std::atomic<std::uint64_t> next_op{1};
  std::atomic<std::uint32_t> next_tid{1};
  std::atomic<std::int64_t> raw_budget{kRawCap};
};
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

// Caller holds registry().mu.
void absorb_locked(Registry& r, ThreadTrace& t) {
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    if (t.totals[i] == nullptr) continue;
    SpanTotals& dst = r.totals[i];
    dst.count += t.totals[i]->count;
    dst.total_ns += t.totals[i]->total_ns;
    dst.self_ns += t.totals[i]->self_ns;
    dst.dur.merge(t.totals[i]->dur);
    t.totals[i].reset();
  }
  r.raw.insert(r.raw.end(), t.raw.begin(), t.raw.end());
  t.raw.clear();
}

struct ThreadHolder {
  std::unique_ptr<ThreadTrace> trace;
  ~ThreadHolder() {
    if (trace == nullptr) return;
    Registry& r = registry();
    std::lock_guard lk(r.mu);
    absorb_locked(r, *trace);
    std::erase(r.live, trace.get());
  }
};

ThreadTrace& local_trace() {
  thread_local ThreadHolder holder;
  if (holder.trace == nullptr) {
    holder.trace = std::make_unique<ThreadTrace>();
    Registry& r = registry();
    holder.trace->tid = r.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lk(r.mu);
    r.live.push_back(holder.trace.get());
  }
  return *holder.trace;
}

}  // namespace

void Tracer::collect() {
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  for (ThreadTrace* t : r.live) absorb_locked(r, *t);
}

const std::array<SpanTotals, kSpanNames>& Tracer::totals() {
  return registry().totals;
}

bool Tracer::write_jsonl(const std::string& path) {
  Registry& r = registry();
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lk(r.mu);
  for (const RawSpan& s : r.raw) {
    out << "{\"tid\":" << s.tid << ",\"op\":" << s.op << ",\"name\":\""
        << span_name(static_cast<SpanName>(s.name)) << "\",\"parent\":\""
        << (s.parent == kNoParent ? ""
                                  : span_name(static_cast<SpanName>(s.parent)))
        << "\",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << s.dur_ns
        << ",\"self_ns\":" << s.self_ns << "}\n";
  }
  return static_cast<bool>(out);
}

OpScope::OpScope() noexcept : active_(Tracer::enabled()) {
  if (active_) {
    local_trace().op_id =
        registry().next_op.fetch_add(1, std::memory_order_relaxed);
  }
}

OpScope::~OpScope() {
  if (active_) local_trace().op_id = 0;
}

ScopedSpan::ScopedSpan(SpanName name) noexcept : active_(false) {
  if (!Tracer::enabled()) return;
  ThreadTrace& t = local_trace();
  if (t.depth >= static_cast<int>(t.stack.size())) return;
  t.stack[static_cast<std::size_t>(t.depth++)] = {name, wall_ns(), 0};
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t end = wall_ns();
  ThreadTrace& t = local_trace();
  const ThreadTrace::Open open = t.stack[static_cast<std::size_t>(--t.depth)];
  const std::uint64_t dur = end - open.start_ns;
  const std::uint64_t self = dur > open.child_ns ? dur - open.child_ns : 0;
  std::uint8_t parent = kNoParent;
  if (t.depth > 0) {
    ThreadTrace::Open& up = t.stack[static_cast<std::size_t>(t.depth - 1)];
    up.child_ns += dur;
    parent = static_cast<std::uint8_t>(up.name);
  }
  auto& slot = t.totals[static_cast<std::size_t>(open.name)];
  if (slot == nullptr) slot = std::make_unique<SpanTotals>();
  ++slot->count;
  slot->total_ns += dur;
  slot->self_ns += self;
  slot->dur.record(dur);
  Registry& r = registry();
  if (r.raw_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    t.raw.push_back(RawSpan{t.tid, static_cast<std::uint8_t>(open.name), parent,
                            t.op_id, open.start_ns, dur, self});
  }
}

// --- process probes ----------------------------------------------------------

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::uint64_t net_out_octets() {
  std::ifstream in("/proc/net/netstat");
  std::string names;
  std::string values;
  while (std::getline(in, names) && std::getline(in, values)) {
    if (names.rfind("IpExt:", 0) != 0) continue;
    std::istringstream ns(names);
    std::istringstream vs(values);
    std::string n;
    std::string v;
    while (ns >> n && vs >> v) {
      if (n == "OutOctets") return std::stoull(v);
    }
  }
  return 0;
}

}  // namespace perfbench
