// The one verdict on a recorded execution. check_consistency runs the
// streaming causal checker (the paper's Definition 1/2, recognised through
// the bad patterns of Bouajjani et al.) and then the slow-memory checker as
// an independent second opinion: causal memory implies slow memory, so a
// history the causal checker accepts and the slow checker rejects is a
// checker bug, not a protocol bug — worth failing loudly. Both checkers are
// linear in the history, so the same call serves a six-op explorer schedule
// and a 10^5-op property run.
//
// The brute-force CausalChecker oracle (causal_checker.hpp) and the
// exponential PRAM search (model_checkers.hpp) are not part of this verdict;
// tests that need them call them by name. docs/CHECKING.md lists where they
// still run and why.
#pragma once

#include <string>

#include "causalmem/history/history.hpp"

namespace causalmem {

struct ConsistencyReport {
  bool causal{true};
  bool slow{true};
  /// Diagnosis of the first failed check ("" when ok()).
  std::string reason;

  [[nodiscard]] bool ok() const noexcept { return causal && slow; }
};

/// Runs the streaming causal checker over `history` and, when it accepts,
/// the slow-memory checker. A causal violation already decides the report,
/// so `slow` stays true in that case.
[[nodiscard]] ConsistencyReport check_consistency(const History& history);

}  // namespace causalmem
