// Model-level tests: every baseline must construct, run training epochs
// with finite losses, finalize embeddings of the right shape, and beat a
// random scorer on held-out data after a short training run (smoke-level
// learning signal). Parameterized over the full registry.

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/kmeans.h"
#include "models/registry.h"
#include "tensor/init.h"

namespace graphaug {
namespace {

ModelConfig TinyConfig() {
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.num_layers = 2;
  cfg.learning_rate = 0.01f;
  cfg.batch_size = 256;
  cfg.batches_per_epoch = 4;
  cfg.contrast_batch = 48;
  cfg.seed = 11;
  return cfg;
}

class ModelSmokeTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const Dataset& TinyDataset() {
    static const SyntheticData* data =
        new SyntheticData(GeneratePreset("tiny"));
    return data->dataset;
  }
};

TEST_P(ModelSmokeTest, TrainsAndScores) {
  const Dataset& dataset = TinyDataset();
  auto model = CreateModel(GetParam(), &dataset, TinyConfig());
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name(), GetParam());

  double first_loss = 0, last_loss = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    const double loss = model->TrainEpoch();
    ASSERT_TRUE(std::isfinite(loss)) << "epoch " << epoch;
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
  }
  // Loss should not explode.
  EXPECT_LT(last_loss, first_loss * 3 + 10);

  model->Finalize();
  EXPECT_EQ(model->user_embeddings().rows(), dataset.num_users);
  EXPECT_EQ(model->item_embeddings().rows(), dataset.num_items);

  Matrix scores = model->ScoreUsers({0, 1, 2});
  EXPECT_EQ(scores.rows(), 3);
  EXPECT_EQ(scores.cols(), dataset.num_items);
  for (int64_t i = 0; i < scores.size(); ++i) {
    ASSERT_TRUE(std::isfinite(scores[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelSmokeTest,
                         ::testing::ValuesIn(AllModelNames()),
                         [](const auto& info) { return info.param; });

TEST(ModelLearningTest, LightGcnBeatsRandomScorer) {
  SyntheticData data = GeneratePreset("tiny");
  ModelConfig cfg = TinyConfig();
  cfg.batches_per_epoch = 6;
  auto model = CreateModel("LightGCN", &data.dataset, cfg);
  for (int epoch = 0; epoch < 25; ++epoch) model->TrainEpoch();
  model->Finalize();

  Evaluator eval(&data.dataset, {10});
  TopKMetrics trained = eval.Evaluate([&](const std::vector<int32_t>& users) {
    return model->ScoreUsers(users);
  });
  Rng rng(99);
  TopKMetrics random = eval.Evaluate([&](const std::vector<int32_t>& users) {
    Matrix m(static_cast<int64_t>(users.size()), data.dataset.num_items);
    InitNormal(&m, &rng);
    return m;
  });
  // Note: with 50 items and K=10, random recall is already ~0.2-0.35 on
  // this tiny dataset, so require a 1.5x margin rather than an absolute.
  EXPECT_GT(trained.RecallAt(10), 1.5 * random.RecallAt(10))
      << "trained=" << trained.RecallAt(10)
      << " random=" << random.RecallAt(10);
}

TEST(RegistryTest, UnknownModelAborts) {
  SyntheticData data = GeneratePreset("tiny");
  ModelConfig cfg = TinyConfig();
  EXPECT_DEATH(CreateModel("NotAModel", &data.dataset, cfg),
               "unknown model");
}

TEST(RegistryTest, AllNamesCreatable) {
  EXPECT_EQ(AllModelNames().size(), 19u);
}

TEST(KMeansTest, SeparatesWellSeparatedClusters) {
  Rng rng(7);
  Matrix pts(90, 4);
  for (int64_t r = 0; r < 90; ++r) {
    const int c = static_cast<int>(r / 30);
    for (int64_t j = 0; j < 4; ++j) {
      pts.at(r, j) = 10.f * c + static_cast<float>(rng.Gaussian(0, 0.3));
    }
  }
  KMeansResult res = RunKMeans(pts, 3, 20, &rng);
  // All points in the same ground-truth block share an assignment.
  for (int block = 0; block < 3; ++block) {
    const int32_t rep = res.assignment[block * 30];
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(res.assignment[block * 30 + i], rep);
    }
  }
  // Blocks map to distinct clusters.
  EXPECT_NE(res.assignment[0], res.assignment[30]);
  EXPECT_NE(res.assignment[30], res.assignment[60]);
}

TEST(KMeansTest, CentroidsHaveRightShape) {
  Rng rng(8);
  Matrix pts(20, 3);
  InitNormal(&pts, &rng);
  KMeansResult res = RunKMeans(pts, 4, 5, &rng);
  EXPECT_EQ(res.centroids.rows(), 4);
  EXPECT_EQ(res.centroids.cols(), 3);
  EXPECT_EQ(res.assignment.size(), 20u);
  for (int32_t a : res.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
  }
}

}  // namespace
}  // namespace graphaug
