// Schedule: the decision record of one simulated execution, and its
// replayable text serialization.
//
// A simulation run is fully determined by the sequence of choices the
// scheduler made — which channel head to deliver, which task to step, which
// timer to fire. Everything else (virtual-time advancement, message
// contents, protocol state) is recomputed identically on replay. A schedule
// file is therefore a complete, minimal reproduction recipe: CI failures
// attach one, and `sim_explore --replay` re-executes it bit-for-bit.
//
// Text format (version header required):
//
//   # causalmem-schedule-v1
//   meta <key> <value...>          (zero or more; value may contain spaces)
//   deliver <from> <to> [label]    (deliver the head of channel from->to)
//   step <task-index> [label]      (run task until it parks or finishes)
//   timer <timer-index> [label]    (fire a due timer)
//
// Labels are diagnostics only (message type, task name); replay matches on
// kind + ids. Ids are decimal in [0, 2^32 - 1]. Blank lines and '#'
// comments are ignored past the header.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "causalmem/common/types.hpp"

namespace causalmem::sim {

enum class ChoiceKind : std::uint8_t { kDeliver = 0, kStep, kTimer };

[[nodiscard]] const char* choice_kind_name(ChoiceKind k) noexcept;

/// Returns a view of a process-wide copy of `label` that stays valid until
/// the process exits; equal labels share one copy. Thread-safe.
[[nodiscard]] std::string_view intern_label(std::string_view label);

/// One schedulable event the scheduler could (or did) execute. Plain data:
/// every step copies each choice it offers, and a copy must not allocate.
struct Choice {
  ChoiceKind kind{ChoiceKind::kStep};
  NodeId from{kNoNode};     ///< kDeliver: channel source
  NodeId to{kNoNode};       ///< kDeliver: channel destination
  std::uint32_t actor{0};   ///< kStep: task index; kTimer: timer index
  /// Diagnostics only (task name, message type). It views storage that
  /// outlives every schedule: a string literal, a msg_type_name string, or
  /// an intern_label copy (the scheduler and Schedule::parse intern what
  /// they store here).
  std::string_view label;

  /// Identity match for replay: kind and ids, ignoring the label.
  [[nodiscard]] bool matches(const Choice& o) const noexcept {
    return kind == o.kind && from == o.from && to == o.to && actor == o.actor;
  }

  /// One serialized schedule line (no trailing newline).
  [[nodiscard]] std::string to_line() const;
};
static_assert(std::is_trivially_copyable_v<Choice>);

/// An executed (or to-be-replayed) sequence of choices plus free-form
/// metadata (scenario name, seed, config summary).
struct Schedule {
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<Choice> steps;

  void set_meta(std::string key, std::string value);
  [[nodiscard]] std::optional<std::string> meta_value(
      const std::string& key) const;

  [[nodiscard]] std::string to_text() const;

  /// Parses the v1 text format. Returns false (and sets `error`, with the
  /// line number) on any malformed input, including a negative or
  /// out-of-range id — schedule files cross process boundaries, so this is
  /// a soft failure, not a contract violation, and a corrupt file must not
  /// replay a different execution. Labels are interned.
  static bool parse(const std::string& text, Schedule* out,
                    std::string* error);

  /// Writes to_text() to `path`. Returns false and sets `error` on I/O
  /// failure.
  bool save(const std::string& path, std::string* error = nullptr) const;

  /// Loads and parses `path`; nullopt (and `error`) on failure.
  static std::optional<Schedule> load(const std::string& path,
                                      std::string* error = nullptr);
};

}  // namespace causalmem::sim
