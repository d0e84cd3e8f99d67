#include "causalmem/common/backoff.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>

namespace causalmem {
namespace {

/// Voluntary context switches of the calling thread: each sleep adds one,
/// while spinning and sched_yield add none.
long voluntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

TEST(Backoff, CountsPauses) {
  Backoff b;
  EXPECT_EQ(b.spin_count(), 0u);
  for (int i = 0; i < 5; ++i) b.pause();
  EXPECT_EQ(b.spin_count(), 5u);
  b.reset();
  EXPECT_EQ(b.spin_count(), 0u);
}

TEST(Backoff, EarlyPausesAreCheap) {
  // Pauses 1-16 spin or yield and never sleep; from pause 17 on they sleep.
  // Counting sleeps instead of timing the pauses holds however loaded the
  // machine is.
  Backoff b;
  const long before = voluntary_switches();
  for (int i = 0; i < 16; ++i) b.pause();
  EXPECT_EQ(voluntary_switches(), before);
  for (int i = 0; i < 4; ++i) b.pause();
  EXPECT_GT(voluntary_switches(), before);
}

TEST(Backoff, SleepEscalationIsCapped) {
  Backoff b(std::chrono::microseconds(100));
  // Drive deep into sleep territory; each pause must stay ~capped.
  for (int i = 0; i < 40; ++i) b.pause();
  const auto start = std::chrono::steady_clock::now();
  b.pause();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous bound: cap is 100us; allow scheduler slack.
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
}

}  // namespace
}  // namespace causalmem
