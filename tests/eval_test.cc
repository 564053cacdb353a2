// Tests for the evaluation stack: hand-computed Recall/NDCG cases, the
// full-ranking evaluator with a known-perfect scorer, train-item masking,
// a bitwise match against an independent full-sort reference,
// MAD / uniformity diagnostics, and the Welch t-test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/embedding_stats.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "eval/significance.h"
#include "tensor/init.h"

namespace graphaug {
namespace {

TEST(MetricsTest, HandComputedCase) {
  // Ranked: [5, 2, 9, 1]; relevant: {2, 1, 7}.
  std::vector<int> ks = {2, 4};
  std::vector<double> recall(2, 0), ndcg(2, 0), prec(2, 0), hit(2, 0);
  AccumulateUserMetrics({5, 2, 9, 1}, {1, 2, 7}, ks, &recall, &ndcg, &prec,
                        &hit);
  EXPECT_NEAR(recall[0], 1.0 / 3.0, 1e-9);  // only item 2 in top-2
  EXPECT_NEAR(recall[1], 2.0 / 3.0, 1e-9);  // items 2 and 1 in top-4
  EXPECT_NEAR(prec[0], 0.5, 1e-9);
  EXPECT_NEAR(hit[0], 1.0, 1e-9);
  // DCG@4 = 1/log2(3) + 1/log2(5); IDCG@4 = 1/log2(2)+1/log2(3)+1/log2(4).
  const double dcg = 1 / std::log2(3.0) + 1 / std::log2(5.0);
  const double idcg = 1.0 + 1 / std::log2(3.0) + 0.5;
  EXPECT_NEAR(ndcg[1], dcg / idcg, 1e-9);
}

TEST(MetricsTest, PerfectRankingGivesOnes) {
  std::vector<int> ks = {3};
  std::vector<double> recall(1, 0), ndcg(1, 0), prec(1, 0), hit(1, 0),
      map(1, 0), mrr(1, 0);
  AccumulateUserMetrics({4, 7, 9}, {4, 7, 9}, ks, &recall, &ndcg, &prec,
                        &hit, &map, &mrr);
  EXPECT_DOUBLE_EQ(recall[0], 1.0);
  EXPECT_DOUBLE_EQ(ndcg[0], 1.0);
  EXPECT_DOUBLE_EQ(prec[0], 1.0);
  EXPECT_DOUBLE_EQ(map[0], 1.0);
  EXPECT_DOUBLE_EQ(mrr[0], 1.0);
}

TEST(MetricsTest, MapAndMrrHandComputed) {
  // Ranked [9, 2, 5, 1], relevant {2, 1}:
  // hits at ranks 2 and 4 => AP@4 = (1/2)(1/2 + 2/4) = 0.5; RR = 1/2.
  std::vector<int> ks = {4};
  std::vector<double> recall(1, 0), ndcg(1, 0), prec(1, 0), hit(1, 0),
      map(1, 0), mrr(1, 0);
  AccumulateUserMetrics({9, 2, 5, 1}, {1, 2}, ks, &recall, &ndcg, &prec,
                        &hit, &map, &mrr);
  EXPECT_NEAR(map[0], 0.5, 1e-12);
  EXPECT_NEAR(mrr[0], 0.5, 1e-12);
  // No relevant items in the ranking => both zero.
  std::fill(map.begin(), map.end(), 0.0);
  std::fill(mrr.begin(), mrr.end(), 0.0);
  std::vector<double> r2(1, 0), n2(1, 0), p2(1, 0), h2(1, 0);
  AccumulateUserMetrics({9, 5, 3, 8}, {1, 2}, ks, &r2, &n2, &p2, &h2, &map,
                        &mrr);
  EXPECT_DOUBLE_EQ(map[0], 0.0);
  EXPECT_DOUBLE_EQ(mrr[0], 0.0);
}

TEST(MetricsTest, UnknownCutoffAborts) {
  TopKMetrics m;
  m.ks = {20};
  m.recall = {0.5};
  EXPECT_DEATH(m.RecallAt(40), "");
}

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    dataset_.name = "eval-test";
    dataset_.num_users = 4;
    dataset_.num_items = 10;
    dataset_.train_edges = {{0, 0}, {0, 1}, {1, 2}, {2, 3}, {3, 4}};
    dataset_.test_edges = {{0, 5}, {1, 6}, {2, 7}};  // user 3 has no test
  }
  Dataset dataset_;
};

TEST_F(EvaluatorTest, PerfectOracleScoresOne) {
  Evaluator eval(&dataset_, {2, 5});
  EXPECT_EQ(eval.evaluable_users().size(), 3u);
  // Oracle puts each user's test item on top.
  auto scorer = [&](const std::vector<int32_t>& users) {
    Matrix scores(static_cast<int64_t>(users.size()), dataset_.num_items);
    auto test_items = dataset_.TestItemsByUser();
    for (size_t i = 0; i < users.size(); ++i) {
      for (int32_t v : test_items[users[i]]) {
        scores.at(static_cast<int64_t>(i), v) = 10.f;
      }
    }
    return scores;
  };
  TopKMetrics m = eval.Evaluate(scorer);
  EXPECT_EQ(m.num_users, 3);
  EXPECT_DOUBLE_EQ(m.RecallAt(2), 1.0);
  EXPECT_DOUBLE_EQ(m.NdcgAt(2), 1.0);
}

TEST_F(EvaluatorTest, TrainItemsAreMasked) {
  Evaluator eval(&dataset_, {1});
  // Adversarial scorer that puts train items on top: masking must kick in
  // and the next-best item decides the metric.
  auto scorer = [&](const std::vector<int32_t>& users) {
    Matrix scores(static_cast<int64_t>(users.size()), dataset_.num_items);
    for (size_t i = 0; i < users.size(); ++i) {
      // Train items get huge scores; the test item gets medium.
      for (const Edge& e : dataset_.train_edges) {
        if (e.user == users[i]) {
          scores.at(static_cast<int64_t>(i), e.item) = 100.f;
        }
      }
      for (const Edge& e : dataset_.test_edges) {
        if (e.user == users[i]) {
          scores.at(static_cast<int64_t>(i), e.item) = 1.f;
        }
      }
    }
    return scores;
  };
  TopKMetrics m = eval.Evaluate(scorer);
  // With train items masked, the test item ranks first for everyone.
  EXPECT_DOUBLE_EQ(m.RecallAt(1), 1.0);
}

TEST_F(EvaluatorTest, EvaluateUsersSubset) {
  Evaluator eval(&dataset_, {5});
  auto zero_scorer = [&](const std::vector<int32_t>& users) {
    return Matrix(static_cast<int64_t>(users.size()), dataset_.num_items);
  };
  TopKMetrics m = eval.EvaluateUsers(zero_scorer, {0, 3});  // 3 has no test
  EXPECT_EQ(m.num_users, 1);
}

TEST_F(EvaluatorTest, ItemGroupRestrictsRelevance) {
  Evaluator eval(&dataset_, {2});
  // Oracle scorer: every user's test item on top.
  auto scorer = [&](const std::vector<int32_t>& users) {
    Matrix scores(static_cast<int64_t>(users.size()), dataset_.num_items);
    auto test_items = dataset_.TestItemsByUser();
    for (size_t i = 0; i < users.size(); ++i) {
      for (int32_t v : test_items[users[i]]) {
        scores.at(static_cast<int64_t>(i), v) = 10.f;
      }
    }
    return scores;
  };
  // Test edges are {0,5},{1,6},{2,7}. Group {5,6}: users 0,1 evaluable.
  TopKMetrics m = eval.EvaluateItemGroup(scorer, {5, 6});
  EXPECT_EQ(m.num_users, 2);
  EXPECT_DOUBLE_EQ(m.RecallAt(2), 1.0);
  // Group containing no test item: nobody evaluable.
  TopKMetrics empty = eval.EvaluateItemGroup(scorer, {9});
  EXPECT_EQ(empty.num_users, 0);
}

// Quantized score: four values, so most ranks are decided by the id
// tie-break.
float TieHeavyScore(int32_t u, int32_t v) {
  return static_cast<float>((u * 7 + v * 13) % 4) * 0.25f;
}

TEST(EvaluatorOracleTest, MatchesFullSortReferenceBitwise) {
  // 60 users (one 128-user chunk, so the reference sums users in order),
  // 30 items, K up to 20. Every seventh user has trained on 25 items and
  // has fewer unseen items than max(K). User 0 trained on items 0..24 and
  // also holds item 0 in its test set: an item seen in training is never
  // ranked, so that test item can never be a hit.
  Dataset d;
  d.name = "oracle";
  d.num_users = 60;
  d.num_items = 30;
  Rng rng(17);
  for (int32_t u = 0; u < d.num_users; ++u) {
    std::vector<int32_t> perm(static_cast<size_t>(d.num_items));
    for (int32_t v = 0; v < d.num_items; ++v) perm[v] = v;
    if (u > 0) {
      for (size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.NextU64() % i]);
      }
    }
    const int num_train = u % 7 == 0 ? 25 : 6;
    for (int i = 0; i < num_train; ++i) d.train_edges.push_back({u, perm[i]});
    if (u % 11 == 5) continue;  // some users hold no test items
    d.test_edges.push_back({u, perm[num_train]});
    d.test_edges.push_back({u, perm[num_train + 2]});
  }
  d.test_edges.push_back({0, 0});

  const std::vector<int> ks = {10, 20};
  Evaluator eval(&d, ks);
  const TopKMetrics got = eval.Evaluate([](const std::vector<int32_t>& us) {
    Matrix scores(static_cast<int64_t>(us.size()), 30);
    for (size_t i = 0; i < us.size(); ++i) {
      for (int32_t v = 0; v < 30; ++v) {
        scores.at(static_cast<int64_t>(i), v) = TieHeavyScore(us[i], v);
      }
    }
    return scores;
  });

  // Reference: sort every unseen item by (score desc, id asc), cut to
  // max(K), and average AccumulateUserMetrics over users in id order.
  std::vector<std::vector<int32_t>> train(d.num_users);
  for (const Edge& e : d.train_edges) train[e.user].push_back(e.item);
  const auto test = d.TestItemsByUser();
  TopKMetrics want;
  for (auto* v : {&want.recall, &want.ndcg, &want.precision, &want.hit_rate,
                  &want.map, &want.mrr}) {
    v->assign(ks.size(), 0.0);
  }
  for (int32_t u = 0; u < d.num_users; ++u) {
    if (test[u].empty()) continue;
    ++want.num_users;
    std::vector<int32_t> ranked;
    for (int32_t v = 0; v < d.num_items; ++v) {
      if (std::find(train[u].begin(), train[u].end(), v) == train[u].end()) {
        ranked.push_back(v);
      }
    }
    std::sort(ranked.begin(), ranked.end(), [u](int32_t a, int32_t b) {
      const float sa = TieHeavyScore(u, a), sb = TieHeavyScore(u, b);
      return sa != sb ? sa > sb : a < b;
    });
    if (ranked.size() > 20) ranked.resize(20);
    AccumulateUserMetrics(ranked, test[u], ks, &want.recall, &want.ndcg,
                          &want.precision, &want.hit_rate, &want.map,
                          &want.mrr);
  }
  const double inv = 1.0 / want.num_users;
  for (auto* v : {&want.recall, &want.ndcg, &want.precision, &want.hit_rate,
                  &want.map, &want.mrr}) {
    for (double& x : *v) x *= inv;
  }

  ASSERT_EQ(got.num_users, want.num_users);
  EXPECT_EQ(got.ks, ks);
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    EXPECT_EQ(got.recall[ki], want.recall[ki]) << "K=" << ks[ki];
    EXPECT_EQ(got.ndcg[ki], want.ndcg[ki]) << "K=" << ks[ki];
    EXPECT_EQ(got.precision[ki], want.precision[ki]) << "K=" << ks[ki];
    EXPECT_EQ(got.hit_rate[ki], want.hit_rate[ki]) << "K=" << ks[ki];
    EXPECT_EQ(got.map[ki], want.map[ki]) << "K=" << ks[ki];
    EXPECT_EQ(got.mrr[ki], want.mrr[ki]) << "K=" << ks[ki];
  }
}

TEST(StatsGroupingTest, GroupItemsByDegree) {
  Dataset d;
  d.num_users = 30;
  d.num_items = 3;
  // Item degrees: 1, 5, 12.
  d.train_edges.push_back({0, 0});
  for (int32_t u = 0; u < 5; ++u) d.train_edges.push_back({u, 1});
  for (int32_t u = 0; u < 12; ++u) d.train_edges.push_back({u, 2});
  auto groups = GroupItemsByDegree(d, {0, 4, 10, 100});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], std::vector<int32_t>{0});
  EXPECT_EQ(groups[1], std::vector<int32_t>{1});
  EXPECT_EQ(groups[2], std::vector<int32_t>{2});
}

TEST(EmbeddingStatsTest, MadDetectsCollapse) {
  Rng rng(1);
  Matrix spread(100, 16);
  InitNormal(&spread, &rng, 0.f, 1.f);
  Matrix collapsed(100, 16);
  // All rows nearly identical.
  for (int64_t r = 0; r < collapsed.rows(); ++r) {
    for (int64_t c = 0; c < collapsed.cols(); ++c) {
      collapsed.at(r, c) =
          1.f + 0.01f * static_cast<float>(rng.Gaussian());
    }
  }
  Rng mrng(2);
  const double mad_spread = ComputeMad(spread, 4000, &mrng);
  const double mad_collapsed = ComputeMad(collapsed, 4000, &mrng);
  EXPECT_GT(mad_spread, 0.5);
  EXPECT_LT(mad_collapsed, 0.05);
}

TEST(EmbeddingStatsTest, UniformityOrdersDistributions) {
  Rng rng(3);
  Matrix uniform(200, 8);
  InitNormal(&uniform, &rng, 0.f, 1.f);  // ~uniform on sphere when normalized
  Matrix clumped(200, 8);
  for (int64_t r = 0; r < clumped.rows(); ++r) {
    clumped.at(r, 0) = 5.f + static_cast<float>(rng.Gaussian(0, 0.1));
    for (int64_t c = 1; c < 8; ++c) {
      clumped.at(r, c) = static_cast<float>(rng.Gaussian(0, 0.1));
    }
  }
  Rng urng(4);
  EXPECT_LT(ComputeUniformity(uniform, 4000, &urng),
            ComputeUniformity(clumped, 4000, &urng));
}

TEST(EmbeddingStatsTest, AlignmentOfIdenticalViewsIsOne) {
  Rng rng(5);
  Matrix a(50, 8);
  InitNormal(&a, &rng, 0.f, 1.f);
  EXPECT_NEAR(ComputeAlignment(a, a), 1.0, 1e-6);
}

TEST(EmbeddingStatsTest, PcaProjectionPreservesDominantDirection) {
  // Points lie along a line in 8-D; the first PCA coordinate must carry
  // nearly all the variance.
  Rng rng(6);
  Matrix pts(300, 8);
  for (int64_t r = 0; r < pts.rows(); ++r) {
    const float t = static_cast<float>(rng.Gaussian(0, 3));
    for (int64_t c = 0; c < 8; ++c) {
      pts.at(r, c) = t * (c == 2 ? 1.f : 0.1f) +
                     static_cast<float>(rng.Gaussian(0, 0.05));
    }
  }
  Matrix proj = PcaProject2d(pts, &rng);
  ASSERT_EQ(proj.cols(), 2);
  double var1 = 0, var2 = 0;
  for (int64_t r = 0; r < proj.rows(); ++r) {
    var1 += proj.at(r, 0) * proj.at(r, 0);
    var2 += proj.at(r, 1) * proj.at(r, 1);
  }
  EXPECT_GT(var1, 10 * var2);
}

TEST(SignificanceTest, TTestSeparatesDistinctMeans) {
  std::vector<double> a = {0.20, 0.21, 0.20, 0.22, 0.21};
  std::vector<double> b = {0.18, 0.17, 0.18, 0.19, 0.18};
  TTestResult r = WelchTTest(a, b);
  EXPECT_GT(r.t_statistic, 3.0);
  EXPECT_LT(r.p_value, 0.01);
}

TEST(SignificanceTest, TTestIdenticalSamplesNotSignificant) {
  std::vector<double> a = {0.2, 0.21, 0.19, 0.2};
  TTestResult r = WelchTTest(a, a);
  EXPECT_NEAR(r.t_statistic, 0.0, 1e-9);
  EXPECT_GT(r.p_value, 0.9);
}

TEST(SignificanceTest, IncompleteBetaSanity) {
  EXPECT_NEAR(IncompleteBeta(1, 1, 0.3), 0.3, 1e-9);  // uniform CDF
  EXPECT_NEAR(IncompleteBeta(2, 2, 0.5), 0.5, 1e-9);  // symmetric
  EXPECT_DOUBLE_EQ(IncompleteBeta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(IncompleteBeta(2, 3, 1.0), 1.0);
}

}  // namespace
}  // namespace graphaug
