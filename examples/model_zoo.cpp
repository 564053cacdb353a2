// Scenario: model selection for a new recommendation workload. This
// example runs any subset of the library's 19 recommenders on a chosen
// dataset preset and prints a leaderboard — the typical "which model
// family fits my data" experiment.
//
// Usage:
//   ./build/examples/model_zoo [dataset] [epochs] [model ...]
//   ./build/examples/model_zoo retailrocket-sim 20 LightGCN SGL GraphAug

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/registry.h"
#include "models/trainer.h"

int main(int argc, char** argv) {
  using namespace graphaug;
  const std::string dataset_name = argc > 1 ? argv[1] : "retailrocket-sim";
  const int epochs = argc > 2 ? std::atoi(argv[2]) : 16;
  std::vector<std::string> models;
  for (int i = 3; i < argc; ++i) models.push_back(argv[i]);
  if (models.empty()) {
    models = {"BiasMF", "LightGCN", "SGL", "NCL", "GraphAug"};
  }

  SyntheticData data = GeneratePreset(dataset_name);
  DatasetStats stats = ComputeStats(data.dataset);
  std::printf("dataset %s: %d users, %d items, %lld interactions "
              "(density %.2e)\n\n",
              dataset_name.c_str(), stats.num_users, stats.num_items,
              static_cast<long long>(stats.num_train), stats.density);

  ModelConfig config;
  config.dim = 32;
  config.batches_per_epoch = 6;
  Evaluator evaluator(&data.dataset, {20, 40});
  TrainOptions options;
  options.epochs = epochs;
  options.eval_every = std::max(1, epochs / 4);

  Table board({"Model", "Recall@20", "Recall@40", "NDCG@20", "NDCG@40",
               "Train s", "Params"});
  for (const std::string& name : models) {
    auto model = CreateModel(name, &data.dataset, config);
    TrainResult r = TrainAndEvaluate(model.get(), evaluator, options);
    board.AddRow({name, FormatDouble(r.final_metrics.RecallAt(20)),
                  FormatDouble(r.final_metrics.RecallAt(40)),
                  FormatDouble(r.final_metrics.NdcgAt(20)),
                  FormatDouble(r.final_metrics.NdcgAt(40)),
                  FormatDouble(r.train_seconds, 1),
                  std::to_string(model->params()->NumScalars())});
    std::printf("finished %s\n", name.c_str());
  }
  std::printf("\n%s", board.ToString().c_str());
  return 0;
}
