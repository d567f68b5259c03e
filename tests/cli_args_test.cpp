// The ebvpart CLI's shared flag parsing (src/common/cli_args.h): numeric
// values are validated over the FULL string and every error names the
// offending flag — pins the fix for bare std::stoul accepting trailing
// junk ("--parts 8x" used to silently become 8) and throwing flag-less
// std::invalid_argument on garbage.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "common/cli_args.h"

namespace ebv::cli {
namespace {

/// Runs `fn` and returns the std::invalid_argument message it throws;
/// fails the test if it does not throw.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}

TEST(ParseUint, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_uint("parts", "0"), 0u);
  EXPECT_EQ(parse_uint("parts", "8"), 8u);
  EXPECT_EQ(parse_uint("seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint("budget-mb", "0256"), 256u);  // leading zeros are fine
}

TEST(ParseUint, RejectsTrailingJunkEverySuffix) {
  // The regression: std::stoul("8x") == 8. Full-string validation throws.
  for (const char* bad : {"8x", "8 ", " 8", "1e3", "0x10", "8.0", "+8", "-1"}) {
    EXPECT_THROW((void)parse_uint("parts", bad), std::invalid_argument)
        << "accepted '" << bad << "'";
  }
}

TEST(ParseUint, RejectsEmptyAndOverflow) {
  EXPECT_THROW((void)parse_uint("parts", ""), std::invalid_argument);
  // One past uint64 max.
  EXPECT_THROW((void)parse_uint("seed", "18446744073709551616"),
               std::invalid_argument);
  // Fits uint64 but exceeds the caller's bound.
  EXPECT_THROW((void)parse_uint("parts", "4294967296", 4294967295u),
               std::invalid_argument);
}

TEST(ParseUint, ErrorsNameTheFlag) {
  EXPECT_NE(thrown_message([] { (void)parse_uint("parts", "8x"); })
                .find("--parts"),
            std::string::npos);
  EXPECT_NE(thrown_message([] { (void)parse_uint("budget-mb", ""); })
                .find("--budget-mb"),
            std::string::npos);
  EXPECT_NE(thrown_message([] {
              (void)parse_uint("threads", "99", 16);
            }).find("--threads"),
            std::string::npos);
}

TEST(ParseDouble, FullStringValidation) {
  EXPECT_DOUBLE_EQ(parse_double("alpha", "1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("eta", "2"), 2.0);
  EXPECT_DOUBLE_EQ(parse_double("beta", "-0.25"), -0.25);
  for (const char* bad : {"1.5x", "", "x", "1.5 2"}) {
    EXPECT_THROW((void)parse_double("alpha", bad), std::invalid_argument)
        << "accepted '" << bad << "'";
  }
  EXPECT_NE(thrown_message([] { (void)parse_double("alpha", "1.5x"); })
                .find("--alpha"),
            std::string::npos);
}

TEST(ParseArgs, PairsFlagsWithValues) {
  std::array argv{const_cast<char*>("ebvpart"), const_cast<char*>("run"),
                  const_cast<char*>("--graph"), const_cast<char*>("g.ebvg"),
                  const_cast<char*>("--parts"), const_cast<char*>("8")};
  const ArgMap args =
      parse_args(static_cast<int>(argv.size()), argv.data(), 2);
  EXPECT_EQ(args.at("graph"), "g.ebvg");
  EXPECT_EQ(args.at("parts"), "8");
}

TEST(ParseArgs, RejectsTrailingFlagWithoutValue) {
  // The old loop's `i + 1 < argc` bound dropped a dangling flag silently.
  std::array argv{const_cast<char*>("ebvpart"), const_cast<char*>("stats"),
                  const_cast<char*>("--graph"), const_cast<char*>("g.ebvg"),
                  const_cast<char*>("--deep")};
  EXPECT_THROW(
      (void)parse_args(static_cast<int>(argv.size()), argv.data(), 2),
      std::invalid_argument);
  EXPECT_NE(thrown_message([&] {
              (void)parse_args(static_cast<int>(argv.size()), argv.data(), 2);
            }).find("--deep"),
            std::string::npos);
}

TEST(ParseArgs, RejectsNonFlagToken) {
  std::array argv{const_cast<char*>("ebvpart"), const_cast<char*>("stats"),
                  const_cast<char*>("graph"), const_cast<char*>("g.ebvg")};
  EXPECT_THROW(
      (void)parse_args(static_cast<int>(argv.size()), argv.data(), 2),
      std::invalid_argument);
}

TEST(Get, FallbackAndRequired) {
  const ArgMap args{{"algo", "ebv"}};
  EXPECT_EQ(get(args, "algo", "hdrf"), "ebv");
  EXPECT_EQ(get(args, "order", "sorted"), "sorted");
  EXPECT_THROW((void)get(args, "out"), std::invalid_argument);
  EXPECT_NE(thrown_message([&] { (void)get(args, "out"); }).find("--out"),
            std::string::npos);
}

TEST(GetHelpers, ParseThroughArgMap) {
  const ArgMap args{{"parts", "64"}, {"alpha", "0.5"}};
  EXPECT_EQ(get_uint(args, "parts", "8"), 64u);
  EXPECT_EQ(get_uint(args, "batch", "256"), 256u);
  EXPECT_DOUBLE_EQ(get_double(args, "alpha", "1.0"), 0.5);
  EXPECT_DOUBLE_EQ(get_double(args, "beta", "1.0"), 1.0);
}

TEST(CheckFlags, AcceptsEveryFlagTheVerbReads) {
  EXPECT_NO_THROW(check_flags("run", {{"mmap", "g.ebvs"},
                                      {"parts", "64"},
                                      {"resident-workers", "1"},
                                      {"spill-dir", "/tmp"},
                                      {"threads", "4"}}));
  EXPECT_NO_THROW(check_flags("serve", {{"mmap", "g.ebvs"},
                                        {"partition", "p.ebvp"},
                                        {"duration", "1"}}));
  // --failpoints is global: every verb takes it.
  for (const char* verb :
       {"generate", "convert", "stats", "partition", "run", "serve",
        "query"}) {
    EXPECT_NO_THROW(check_flags(verb, {{"failpoints", "x=abort"}})) << verb;
  }
}

TEST(CheckFlags, RejectsFlagsTheVerbDoesNotRead) {
  // A misspelt flag must not run the command without it: ignoring
  // `--resident-worker 1` would give a fully resident run.
  EXPECT_EQ(thrown_message([] {
              check_flags("run", {{"mmap", "g.ebvs"},
                                  {"resident-worker", "1"}});
            }),
            "unknown flag --resident-worker for 'run'");
  // serve builds only the routing table; it has no spill directory.
  EXPECT_EQ(thrown_message([] {
              check_flags("serve", {{"mmap", "g.ebvs"},
                                    {"spill-dir", "/tmp"}});
            }),
            "unknown flag --spill-dir for 'serve'");
  // A flag of another verb is no flag of this one.
  EXPECT_THROW(check_flags("stats", {{"parts", "8"}}), std::invalid_argument);
}

}  // namespace
}  // namespace ebv::cli
