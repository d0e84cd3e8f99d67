#include "causalmem/sim/schedule.hpp"

#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <unordered_set>

namespace causalmem::sim {

namespace {
constexpr const char* kHeader = "# causalmem-schedule-v1";

/// Reads one id: decimal digits that fit in 32 bits. A leading '-' would
/// otherwise wrap to a large value, and a 64-bit value would be narrowed.
bool read_id(std::istringstream& ls, std::uint32_t* out) {
  ls >> std::ws;
  if (ls.peek() == '-') return false;
  std::uint64_t v = 0;
  if (!(ls >> v) || v > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  *out = static_cast<std::uint32_t>(v);
  return true;
}
}  // namespace

std::string_view intern_label(std::string_view label) {
  // Node-based, so a stored string never moves when the set rehashes; never
  // destroyed, so views handed out stay valid through static destruction.
  static std::mutex mu;
  static auto* const table = new std::unordered_set<std::string>();
  std::scoped_lock lock(mu);
  return *table->emplace(label).first;
}

const char* choice_kind_name(ChoiceKind k) noexcept {
  switch (k) {
    case ChoiceKind::kDeliver: return "deliver";
    case ChoiceKind::kStep: return "step";
    case ChoiceKind::kTimer: return "timer";
  }
  return "unknown";
}

std::string Choice::to_line() const {
  std::ostringstream os;
  os << choice_kind_name(kind) << ' ';
  if (kind == ChoiceKind::kDeliver) {
    os << from << ' ' << to;
  } else {
    os << actor;
  }
  if (!label.empty()) os << ' ' << label;
  return os.str();
}

void Schedule::set_meta(std::string key, std::string value) {
  for (auto& [k, v] : meta) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  meta.emplace_back(std::move(key), std::move(value));
}

std::optional<std::string> Schedule::meta_value(const std::string& key) const {
  for (const auto& [k, v] : meta) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::string Schedule::to_text() const {
  std::ostringstream os;
  os << kHeader << '\n';
  for (const auto& [k, v] : meta) os << "meta " << k << ' ' << v << '\n';
  for (const Choice& c : steps) os << c.to_line() << '\n';
  return os.str();
}

bool Schedule::parse(const std::string& text, Schedule* out,
                     std::string* error) {
  Schedule parsed;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "schedule line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  };
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!saw_header) {
      if (line != kHeader) return fail("missing header '" + std::string(kHeader) + "'");
      saw_header = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "meta") {
      std::string key;
      ls >> key;
      if (key.empty()) return fail("meta without a key");
      std::string value;
      std::getline(ls, value);
      if (!value.empty() && value.front() == ' ') value.erase(0, 1);
      parsed.meta.emplace_back(std::move(key), std::move(value));
      continue;
    }
    Choice c;
    if (word == "deliver") {
      c.kind = ChoiceKind::kDeliver;
      if (!read_id(ls, &c.from) || !read_id(ls, &c.to)) {
        return fail("deliver needs '<from> <to>', each in [0, 2^32 - 1]");
      }
    } else if (word == "step" || word == "timer") {
      c.kind = word == "step" ? ChoiceKind::kStep : ChoiceKind::kTimer;
      if (!read_id(ls, &c.actor)) {
        return fail(word + " needs '<index>' in [0, 2^32 - 1]");
      }
    } else {
      return fail("unknown directive '" + word + "'");
    }
    std::string label;
    std::getline(ls, label);
    if (!label.empty() && label.front() == ' ') label.erase(0, 1);
    c.label = intern_label(label);
    parsed.steps.push_back(c);
  }
  if (!saw_header) {
    if (error != nullptr) *error = "empty schedule (no header)";
    return false;
  }
  *out = std::move(parsed);
  return true;
}

bool Schedule::save(const std::string& path, std::string* error) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  f << to_text();
  f.flush();
  if (!f) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

std::optional<Schedule> Schedule::load(const std::string& path,
                                       std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  Schedule s;
  if (!parse(buf.str(), &s, error)) return std::nullopt;
  return s;
}

}  // namespace causalmem::sim
