// Tests for the common runtime: RNG determinism and statistical sanity,
// table rendering, string utilities, check macros.

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table.h"

namespace graphaug {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng c(43);
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, UniformBoundsAndMoments) {
  Rng rng(1);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(2);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng.UniformInt(7);
    EXPECT_LT(x, 7u);
  }
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.UniformInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LT(x, 5);
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, LogisticIsSymmetric) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.Logistic();
  EXPECT_NEAR(sum / 20000, 0.0, 0.08);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(6);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(TableTest, RendersAlignedAndTsv) {
  Table t({"Model", "Recall@20"});
  t.AddRow({"LightGCN", "0.1799"});
  t.AddRow("GraphAug", {0.2025});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("LightGCN"), std::string::npos);
  EXPECT_NE(s.find("0.2025"), std::string::npos);
  const std::string tsv = t.ToTsv();
  EXPECT_NE(tsv.find("GraphAug\t0.2025"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TableTest, RowWidthMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "");
}

TEST(StringUtilTest, SplitStripJoin) {
  EXPECT_EQ(SplitString("a b\tc", " \t"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("  a  ", " ").size(), 1u);
  EXPECT_EQ(StripString("  hi \n"), "hi");
  EXPECT_TRUE(StartsWith("graphaug", "graph"));
  EXPECT_FALSE(StartsWith("gr", "graph"));
  EXPECT_EQ(JoinStrings({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(AsciiToLower("AbC"), "abc");
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += std::sqrt(static_cast<double>(i));
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1e3 - 1e-6);
}

TEST(CheckTest, PassingCheckDoesNothing) {
  GA_CHECK(true) << "never evaluated";
  GA_CHECK_EQ(1, 1);
  GA_CHECK_LT(1, 2);
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(GA_CHECK(false) << "boom", "boom");
  EXPECT_DEATH(GA_CHECK_EQ(1, 2), "1 vs 2");
}

}  // namespace
}  // namespace graphaug
