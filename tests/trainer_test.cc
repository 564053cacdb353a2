// Trainer-loop tests: history recording, best-checkpoint selection,
// early stopping, and learning-rate decay plumbing.

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/registry.h"
#include "models/trainer.h"

namespace graphaug {
namespace {

ModelConfig TinyConfig() {
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.num_layers = 2;
  cfg.learning_rate = 0.01f;
  cfg.batch_size = 256;
  cfg.batches_per_epoch = 4;
  cfg.contrast_batch = 32;
  cfg.seed = 17;
  return cfg;
}

TEST(TrainerTest, RecordsHistoryAtEvalEpochs) {
  SyntheticData data = GeneratePreset("tiny");
  auto model = CreateModel("LightGCN", &data.dataset, TinyConfig());
  Evaluator eval(&data.dataset, {20, 40});
  TrainOptions opts;
  opts.epochs = 6;
  opts.eval_every = 2;
  TrainResult result = TrainAndEvaluate(model.get(), eval, opts);
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.history[0].epoch, 2);
  EXPECT_EQ(result.history[2].epoch, 6);
  EXPECT_GT(result.train_seconds, 0.0);
  // Timestamps are monotonically increasing.
  for (size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GE(result.history[i].elapsed_seconds,
              result.history[i - 1].elapsed_seconds);
  }
}

TEST(TrainerTest, BestEpochTracksBestRecall) {
  SyntheticData data = GeneratePreset("tiny");
  auto model = CreateModel("BiasMF", &data.dataset, TinyConfig());
  Evaluator eval(&data.dataset, {20, 40});
  TrainOptions opts;
  opts.epochs = 8;
  opts.eval_every = 2;
  TrainResult result = TrainAndEvaluate(model.get(), eval, opts);
  double best = 0;
  for (const EpochRecord& r : result.history) {
    best = std::max(best, r.recall20);
  }
  EXPECT_DOUBLE_EQ(result.best_recall20, best);
  EXPECT_DOUBLE_EQ(result.final_metrics.RecallAt(20), best);
}

TEST(TrainerTest, EarlyStoppingHalts) {
  SyntheticData data = GeneratePreset("tiny");
  ModelConfig cfg = TinyConfig();
  cfg.learning_rate = 0.f;  // frozen model: recall never improves
  auto model = CreateModel("LightGCN", &data.dataset, cfg);
  Evaluator eval(&data.dataset, {20, 40});
  TrainOptions opts;
  opts.epochs = 40;
  opts.eval_every = 1;
  opts.patience = 3;
  TrainResult result = TrainAndEvaluate(model.get(), eval, opts);
  // First eval sets the best; after `patience` flat evals we stop.
  EXPECT_LE(result.history.size(), 6u);
}

TEST(TrainerTest, FinalEpochAlwaysEvaluated) {
  SyntheticData data = GeneratePreset("tiny");
  auto model = CreateModel("LightGCN", &data.dataset, TinyConfig());
  Evaluator eval(&data.dataset, {20, 40});
  TrainOptions opts;
  opts.epochs = 5;
  opts.eval_every = 3;  // 3 and 5 (final)
  TrainResult result = TrainAndEvaluate(model.get(), eval, opts);
  ASSERT_EQ(result.history.size(), 2u);
  EXPECT_EQ(result.history.back().epoch, 5);
}

TEST(TrainerTest, StopsAtFirstNonFiniteLoss) {
  SyntheticData data = GeneratePreset("tiny");
  ModelConfig cfg = TinyConfig();
  cfg.learning_rate = 1e30f;  // diverges within the first epochs
  auto model = CreateModel("LightGCN", &data.dataset, cfg);
  Evaluator eval(&data.dataset, {20, 40});
  TrainOptions opts;
  opts.epochs = 10;
  opts.eval_every = 1;
  TrainResult result = TrainAndEvaluate(model.get(), eval, opts);
  ASSERT_GT(result.nonfinite_epoch, 0);
  ASSERT_LT(result.nonfinite_epoch, opts.epochs);
  // Every epoch before the failing one was evaluated; the failing one
  // and everything after it were not run or scored.
  ASSERT_EQ(static_cast<int>(result.history.size()),
            result.nonfinite_epoch - 1);
  for (const EpochRecord& r : result.history) {
    EXPECT_TRUE(std::isfinite(r.loss));
    EXPECT_LT(r.epoch, result.nonfinite_epoch);
  }
}

TEST(TrainerTest, FiniteRunReportsNoNonFiniteEpoch) {
  SyntheticData data = GeneratePreset("tiny");
  auto model = CreateModel("LightGCN", &data.dataset, TinyConfig());
  Evaluator eval(&data.dataset, {20, 40});
  TrainOptions opts;
  opts.epochs = 2;
  opts.eval_every = 1;
  EXPECT_EQ(TrainAndEvaluate(model.get(), eval, opts).nonfinite_epoch, 0);
}

}  // namespace
}  // namespace graphaug
