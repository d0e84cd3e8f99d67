// E14 (micro): vector timestamp primitive costs — the per-operation overhead
// the owner protocol pays for causality tracking. Clocks store only their
// nonzero components, so every primitive is swept over the dimension n and
// over how many components are nonzero: one (a simulated writestamp in a
// large system), 16, and all of them.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "causalmem/vclock/vector_clock.hpp"

namespace {

using causalmem::ByteReader;
using causalmem::ByteWriter;
using causalmem::VectorClock;

/// A clock of dimension n with `nonzeros` nonzero components spread evenly;
/// `salt` shifts which components those are.
VectorClock make_clock(std::size_t n, std::size_t nonzeros,
                       std::uint64_t salt) {
  std::vector<std::uint64_t> c(n, 0);
  for (std::size_t k = 0; k < nonzeros; ++k) {
    c[(k * n / nonzeros + salt) % n] = 1 + (k * 2654435761u + salt) % 97;
  }
  return VectorClock(c);
}

/// n in {4, 256, 1024} x nonzeros in {1, 16, n} (16 only where it is < n).
void sparsity_axis(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "nonzeros"});
  for (const std::int64_t n : {4, 256, 1024}) {
    for (const std::int64_t nz : {std::int64_t{1}, std::int64_t{16}, n}) {
      if (nz == 16 && n <= 16) continue;
      b->Args({n, nz});
    }
  }
}

std::size_t arg(const benchmark::State& state, int i) {
  return static_cast<std::size_t>(state.range(i));
}

void BM_VClockIncrement(benchmark::State& state) {
  VectorClock vt = make_clock(arg(state, 0), arg(state, 1), 0);
  for (auto _ : state) {
    vt.increment(0);
    benchmark::DoNotOptimize(vt);
  }
}
BENCHMARK(BM_VClockIncrement)->Apply(sparsity_axis);

void BM_VClockUpdate(benchmark::State& state) {
  VectorClock a = make_clock(arg(state, 0), arg(state, 1), 1);
  const VectorClock b = make_clock(arg(state, 0), arg(state, 1), 2);
  for (auto _ : state) {
    a.update(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VClockUpdate)->Apply(sparsity_axis);

void BM_VClockCopy(benchmark::State& state) {
  const VectorClock a = make_clock(arg(state, 0), arg(state, 1), 1);
  for (auto _ : state) {
    VectorClock copy = a;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_VClockCopy)->Apply(sparsity_axis);

void BM_VClockCompare(benchmark::State& state) {
  // b dominates a in one component, so the walk visits every entry.
  const VectorClock a = make_clock(arg(state, 0), arg(state, 1), 1);
  VectorClock b = a;
  b.increment(static_cast<causalmem::NodeId>(arg(state, 0) - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_VClockCompare)->Apply(sparsity_axis);

void BM_VClockCodecRoundTrip(benchmark::State& state) {
  // One frame buffer and one decode target for the whole run, as the
  // transports keep them: the loop times the codec, not the allocator.
  const VectorClock a = make_clock(arg(state, 0), arg(state, 1), 3);
  std::vector<std::byte> frame;
  VectorClock decoded;
  for (auto _ : state) {
    ByteWriter w(std::move(frame));
    a.encode(w);
    frame = std::move(w).take();
    ByteReader r(frame);
    decoded.decode_in_place(r);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_VClockCodecRoundTrip)->Apply(sparsity_axis);

}  // namespace

BENCHMARK_MAIN();
