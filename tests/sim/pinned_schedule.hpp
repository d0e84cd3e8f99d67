// Scenarios pinned as committed replayable schedules under
// tests/sim/schedules/. A normal run replays the committed artifact by
// content: any divergence fails the run with a diagnosis, which is exactly
// the point — these are regression pins, not random walks. Run with
// CAUSALMEM_REGEN_SCHEDULES=1 to re-record them (after an intentional
// protocol change alters the choice sequence), then commit the diff.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "causalmem/sim/scenarios.hpp"

#ifndef CAUSALMEM_SCHEDULE_DIR
#define CAUSALMEM_SCHEDULE_DIR "tests/sim/schedules"
#endif

namespace causalmem::sim {

inline std::string schedule_path(const std::string& name) {
  return std::string(CAUSALMEM_SCHEDULE_DIR) + "/" + name + ".schedule";
}

/// Replays `cfg` against the committed schedule `name` (or re-records it
/// from a random walk seeded with `regen_seed`). `out` (optional) receives
/// the run's observation, for counter assertions on the replayed run.
inline void run_pinned(const std::string& name,
                       const CausalScenarioConfig& cfg,
                       std::uint64_t regen_seed,
                       ScenarioOutcome* out = nullptr) {
  const std::string path = schedule_path(name);
  if (std::getenv("CAUSALMEM_REGEN_SCHEDULES") != nullptr) {
    RandomWalkStrategy walk(regen_seed);
    const ExecutionResult res = run_causal_scenario(cfg, walk, out);
    ASSERT_TRUE(res.report.ok()) << name << ": " << res.report.error;
    ASSERT_TRUE(res.consistent) << name << ": " << res.violation;
    Schedule sched = res.report.schedule;
    sched.set_meta("scenario", name);
    sched.set_meta("seed", std::to_string(regen_seed));
    std::string err;
    ASSERT_TRUE(sched.save(path, &err)) << err;
    GTEST_LOG_(INFO) << "re-recorded " << path << " (" << sched.steps.size()
                     << " steps)";
    return;
  }
  std::string err;
  const std::optional<Schedule> sched = Schedule::load(path, &err);
  ASSERT_TRUE(sched.has_value())
      << path << ": " << err
      << " (regenerate with CAUSALMEM_REGEN_SCHEDULES=1)";
  ReplayStrategy replay(*sched);
  const ExecutionResult res = run_causal_scenario(cfg, replay, out);
  ASSERT_TRUE(res.report.ok())
      << name << " diverged from its committed schedule: "
      << res.report.error;
  ASSERT_TRUE(res.consistent) << name << ": " << res.violation;
}

}  // namespace causalmem::sim
