#include "causalmem/history/consistency.hpp"

#include "causalmem/history/model_checkers.hpp"
#include "causalmem/history/streaming_checker.hpp"

namespace causalmem {

namespace {
std::string describe(const History& h, OpRef ref, const std::string& reason) {
  std::string out = "p" + std::to_string(ref.proc) + "[" +
                    std::to_string(ref.index) + "] " +
                    h.per_process[ref.proc][ref.index].to_string() + ": " +
                    reason;
  return out;
}
}  // namespace

ConsistencyReport check_consistency(const History& history) {
  ConsistencyReport rep;
  const auto res = StreamingCausalChecker::check(history);
  if (!res.causal) {
    rep.causal = false;
    rep.reason = "causal violation: " +
                 describe(history, res.first->op, res.first->detail);
    return rep;
  }
  if (auto v = check_slow_consistency(history)) {
    rep.slow = false;
    rep.reason =
        "slow-memory violation: " + describe(history, v->read, v->reason);
  }
  return rep;
}

}  // namespace causalmem
