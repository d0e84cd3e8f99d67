// Schedule serialization: the text format is the CI artifact contract, so
// round-trips and parse diagnostics get their own coverage.
#include "causalmem/sim/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace causalmem::sim {
namespace {

Schedule sample() {
  Schedule s;
  s.set_meta("scenario", "unit test");
  s.set_meta("seed", "42");
  s.steps.push_back(Choice{ChoiceKind::kDeliver, 0, 1, 0, "READ"});
  s.steps.push_back(Choice{ChoiceKind::kStep, kNoNode, kNoNode, 2, "p2"});
  s.steps.push_back(Choice{ChoiceKind::kTimer, kNoNode, kNoNode, 0, "hb"});
  return s;
}

TEST(Schedule, TextRoundTrip) {
  const Schedule s = sample();
  Schedule back;
  std::string err;
  ASSERT_TRUE(Schedule::parse(s.to_text(), &back, &err)) << err;
  ASSERT_EQ(back.steps.size(), s.steps.size());
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    EXPECT_EQ(back.steps[i].kind, s.steps[i].kind) << i;
    EXPECT_EQ(back.steps[i].label, s.steps[i].label) << i;
  }
  EXPECT_TRUE(back.steps[0].matches(s.steps[0]));
  EXPECT_EQ(back.meta_value("scenario"), "unit test");
  EXPECT_EQ(back.meta_value("seed"), "42");
  EXPECT_EQ(back.meta_value("absent"), std::nullopt);
}

TEST(Schedule, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "sched_roundtrip.txt";
  const Schedule s = sample();
  std::string err;
  ASSERT_TRUE(s.save(path, &err)) << err;
  const auto back = Schedule::load(path, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->to_text(), s.to_text());
  std::remove(path.c_str());
}

TEST(Schedule, ParseRejectsMissingHeader) {
  Schedule out;
  std::string err;
  EXPECT_FALSE(Schedule::parse("deliver 0 1\n", &out, &err));
  EXPECT_NE(err.find("header"), std::string::npos) << err;
}

TEST(Schedule, ParseRejectsUnknownDirective) {
  Schedule out;
  std::string err;
  EXPECT_FALSE(
      Schedule::parse("# causalmem-schedule-v1\nfrobnicate 1 2\n", &out, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("frobnicate"), std::string::npos) << err;
}

TEST(Schedule, ParseRejectsTruncatedDeliver) {
  Schedule out;
  std::string err;
  EXPECT_FALSE(
      Schedule::parse("# causalmem-schedule-v1\ndeliver 3\n", &out, &err));
  EXPECT_NE(err.find("deliver"), std::string::npos) << err;
}

TEST(Schedule, ParseRejectsOutOfRangeIds) {
  // Narrowed or wrapped, the first three would read as other valid ids
  // (deliver 1 0, deliver 4294967295 0, step 0): a corrupt file would
  // replay a different execution instead of failing.
  for (const char* line :
       {"deliver 4294967297 0", "deliver -1 0", "step 4294967296",
        "deliver 0 -5", "timer -0"}) {
    Schedule out;
    std::string err;
    EXPECT_FALSE(Schedule::parse(
        std::string("# causalmem-schedule-v1\nstep 0\n") + line + "\n", &out,
        &err))
        << line;
    EXPECT_NE(err.find("line 3"), std::string::npos) << line << ": " << err;
  }
  Schedule out;
  std::string err;
  ASSERT_TRUE(Schedule::parse(
      "# causalmem-schedule-v1\ndeliver 4294967295 0\n", &out, &err))
      << err;
  EXPECT_EQ(out.steps[0].from, kNoNode);
}

TEST(Schedule, ParseSkipsCommentsAndBlanks) {
  Schedule out;
  std::string err;
  const std::string text =
      "# causalmem-schedule-v1\n\n# a comment\nstep 1 p1\n";
  ASSERT_TRUE(Schedule::parse(text, &out, &err)) << err;
  ASSERT_EQ(out.steps.size(), 1u);
  EXPECT_EQ(out.steps[0].kind, ChoiceKind::kStep);
  EXPECT_EQ(out.steps[0].actor, 1u);
}

TEST(Schedule, MatchesIgnoresLabel) {
  const Choice a{ChoiceKind::kDeliver, 1, 2, 0, "READ"};
  const Choice b{ChoiceKind::kDeliver, 1, 2, 0, "WRITE"};
  const Choice c{ChoiceKind::kDeliver, 2, 1, 0, "READ"};
  EXPECT_TRUE(a.matches(b));
  EXPECT_FALSE(a.matches(c));
}

TEST(Schedule, SetMetaOverwrites) {
  Schedule s;
  s.set_meta("k", "v1");
  s.set_meta("k", "v2");
  EXPECT_EQ(s.meta.size(), 1u);
  EXPECT_EQ(s.meta_value("k"), "v2");
}

}  // namespace
}  // namespace causalmem::sim
