// Tests for the command-line flag parser used by the CLI tool.

#include <gtest/gtest.h>

#include <limits>

#include "common/flags.h"

namespace graphaug {
namespace {

FlagParser Parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  FlagParser f = Parse({"--dim=64", "--dataset=gowalla-sim", "train"});
  EXPECT_EQ(f.GetInt("dim", 32), 64);
  EXPECT_EQ(f.GetString("dataset", ""), "gowalla-sim");
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "train");
}

TEST(FlagsTest, SpaceFormIsSwitchPlusPositional) {
  // `--dataset gowalla-sim` parses as the switch --dataset=true plus a
  // positional: the space form is deliberately unsupported.
  FlagParser f = Parse({"--dataset", "gowalla-sim"});
  EXPECT_TRUE(f.GetBool("dataset", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "gowalla-sim");
}

TEST(FlagsTest, Defaults) {
  FlagParser f = Parse({});
  EXPECT_EQ(f.GetInt("epochs", 24), 24);
  EXPECT_DOUBLE_EQ(f.GetDouble("lr", 0.005), 0.005);
  EXPECT_EQ(f.GetString("model", "GraphAug"), "GraphAug");
  EXPECT_FALSE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.Has("anything"));
}

TEST(FlagsTest, BareSwitchIsTrue) {
  FlagParser f = Parse({"--verbose", "--fast", "run"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.GetBool("fast", false));
  EXPECT_EQ(f.positional()[0], "run");
}

TEST(FlagsTest, BooleanSpellings) {
  EXPECT_TRUE(Parse({"--x=yes"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=1"}).GetBool("x", false));
  EXPECT_FALSE(Parse({"--x=no"}).GetBool("x", true));
  EXPECT_FALSE(Parse({"--x=false"}).GetBool("x", true));
}

TEST(FlagsTest, DoubleAndNegativeInt) {
  FlagParser f = Parse({"--lr=1e-3", "--offset=-5"});
  EXPECT_DOUBLE_EQ(f.GetDouble("lr", 0), 1e-3);
  EXPECT_EQ(f.GetInt("offset", 0), -5);
}

TEST(FlagsTest, MalformedNumberAborts) {
  FlagParser f = Parse({"--dim=abc"});
  EXPECT_DEATH(f.GetInt("dim", 0), "expects an integer");
  FlagParser g = Parse({"--lr=xyz"});
  EXPECT_DEATH(g.GetDouble("lr", 0), "expects a number");
}

// Bad values are usage errors: one line on stderr, exit status 2, never
// an abort.
TEST(FlagsTest, MalformedValuesExitWithUsageError) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  FlagParser f = Parse({"--epochs=abc", "--lr=x", "--n=12abc", "--v=maybe"});
  EXPECT_EXIT(f.GetInt("epochs", 0), usage_error,
              "^flag --epochs expects an integer, got 'abc'\n$");
  EXPECT_EXIT(f.GetInt32("epochs", 0), usage_error, "expects an integer");
  EXPECT_EXIT(f.GetDouble("lr", 0), usage_error,
              "^flag --lr expects a number, got 'x'\n$");
  EXPECT_EXIT(f.GetInt("n", 0), usage_error, "got '12abc'");
  EXPECT_EXIT(f.GetBool("v", false), usage_error,
              "^flag --v expects a boolean, got 'maybe'\n$");
}

TEST(FlagsTest, EmptyValueIsAnErrorNotZero) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  FlagParser f = Parse({"--batches-per-epoch=", "--lr="});
  EXPECT_EXIT(f.GetInt32("batches-per-epoch", 6), usage_error,
              "flag --batches-per-epoch expects an integer");
  EXPECT_EXIT(f.GetInt("batches-per-epoch", 6), usage_error,
              "expects an integer");
  EXPECT_EXIT(f.GetDouble("lr", 0.005), usage_error, "expects a number");
  // The empty string stays a valid string value.
  EXPECT_EQ(f.GetString("lr", "default"), "");
}

TEST(FlagsTest, OutOfRangeValuesAreRejectedNotClamped) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  FlagParser f = Parse({"--epochs=4294967297", "--seed=99999999999999999999",
                        "--low=-2147483649", "--lr=1e999"});
  // 2^32 + 1 would truncate to 1 in an int.
  EXPECT_EXIT(f.GetInt32("epochs", 24), usage_error,
              "flag --epochs expects an integer in \\[-2147483648, "
              "2147483647\\], got '4294967297'");
  EXPECT_EQ(f.GetInt("epochs", 0), int64_t{4294967297});
  EXPECT_EXIT(f.GetInt("seed", 0), usage_error,
              "got '99999999999999999999'");
  EXPECT_EXIT(f.GetInt32("low", 0), usage_error, "expects an integer");
  EXPECT_EXIT(f.GetDouble("lr", 0), usage_error, "expects a number");
}

TEST(FlagsTest, RangeLimitsThemselvesParse) {
  FlagParser f = Parse({"--imax=2147483647", "--imin=-2147483648",
                        "--lmax=9223372036854775807",
                        "--lmin=-9223372036854775808", "--plus=+7"});
  EXPECT_EQ(f.GetInt32("imax", 0), 2147483647);
  EXPECT_EQ(f.GetInt32("imin", 0), -2147483647 - 1);
  EXPECT_EQ(f.GetInt("lmax", 0), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(f.GetInt("lmin", 0), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(f.GetInt32("plus", 0), 7);
  EXPECT_EQ(f.GetInt32("absent", 24), 24);
}

TEST(FlagsTest, UnusedFlagsDetected) {
  FlagParser f = Parse({"--dim=4", "--typo-flag=7"});
  (void)f.GetInt("dim", 0);
  auto unused = f.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo-flag");
}

}  // namespace
}  // namespace graphaug
