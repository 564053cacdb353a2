// Reproduces Table II: overall recommendation performance of all 19
// models on the three datasets (Recall@20/40, NDCG@20/40), plus the
// significance row (Welch t-test between GraphAug and the best baseline
// over repeated seeded runs on each dataset).

#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/table.h"
#include "eval/significance.h"

int main() {
  using namespace graphaug;
  bench::PrintBanner(
      "Table II — Overall Performance Comparison",
      "All baselines + GraphAug; Recall@20/40 and NDCG@20/40.");
  bench::BenchSettings settings = bench::BenchSettings::Default();

  std::vector<std::string> header = {"Model"};
  for (const std::string& ds : bench::BenchDatasets()) {
    header.push_back(ds + " R@20");
    header.push_back(ds + " R@40");
    header.push_back(ds + " N@20");
    header.push_back(ds + " N@40");
  }
  Table t(header);

  std::string best_baseline;
  double best_baseline_r20 = 0;  // on the first dataset (gowalla-sim)
  for (const std::string& model : AllModelNames()) {
    std::vector<std::string> row = {model};
    for (const std::string& ds : bench::BenchDatasets()) {
      bench::RunResult r = bench::RunModel(model, ds, settings);
      row.push_back(FormatDouble(r.recall20));
      row.push_back(FormatDouble(r.recall40));
      row.push_back(FormatDouble(r.ndcg20));
      row.push_back(FormatDouble(r.ndcg40));
      if (ds == "gowalla-sim" && model != "GraphAug" &&
          r.recall20 > best_baseline_r20) {
        best_baseline_r20 = r.recall20;
        best_baseline = model;
      }
      GA_LOG(Info) << model << " / " << ds << " R@20=" << r.recall20;
    }
    t.AddRow(std::move(row));
  }
  std::printf("%s\n", t.ToString().c_str());

  // Significance: repeated seeded runs of GraphAug vs the best baseline on
  // gowalla-sim.
  const int kSeeds = settings.fast ? 2 : 3;
  std::vector<double> ours, theirs;
  for (int s = 0; s < kSeeds; ++s) {
    ours.push_back(bench::RunModel("GraphAug", "gowalla-sim", settings,
                                   1000 + s)
                       .recall20);
    theirs.push_back(bench::RunModel(best_baseline, "gowalla-sim", settings,
                                     1000 + s)
                         .recall20);
  }
  TTestResult tt = WelchTTest(ours, theirs);
  std::printf("Significance (gowalla-sim, Recall@20, %d seeds):\n", kSeeds);
  std::printf("  GraphAug vs %s: t=%.3f, p-val=%.3g\n\n",
              best_baseline.c_str(), tt.t_statistic, tt.p_value);
  std::printf(
      "Paper shape to verify: SSL-enhanced models (SGL/NCL/HCCF/...) beat\n"
      "plain GNN CF; GNN CF beats shallow CF; GraphAug ranks first.\n");
  return 0;
}
