// Design-choice ablations beyond the paper's Fig. 2: quantifies the
// implementation decisions DESIGN.md calls out —
//   (a) mixhop parameterization: vector-gate vs full matrix transforms,
//   (b) per-layer activation on/off,
//   (c) hop set M ({0,1} vs {0,1,2} vs {0,1,2,3}),
//   (d) adjacency self-loop weight,
//   (e) structure-level Bernoulli-KL compression on/off,
// plus a cross-augmentor shoot-out: the same GraphAug backbone trained
// with each registered view-generation strategy (gib / edgedrop / advcl /
// autocf / lightgcl), reporting ranking quality, wall-clock, and the
// per-strategy augment/aux-loss time attributed by the obs counters.
//
// Flags:
//   --determinism-json=FILE  skip the tables; instead train every
//       augmentor at 1/2/7 threads on the tiny preset and write a
//       bench_compare-compatible JSON ("kernels": aug_<name>) whose
//       bitwise_equal_to_serial records whether the final parameters
//       match the single-thread run bit for bit. tools/bench_compare
//       fails on any violation regardless of --max-drop, which makes
//       this file the CI determinism gate for the augmentor family.
//   --epochs=N               override epochs for the determinism harness
//                            (default 3).
// Run on the Gowalla stand-in with the shared settings.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace graphaug {
namespace {

/// Snapshot of the obs counters that attribute augmentor wall-clock.
int64_t AugmentNsTotal(const std::string& augmentor) {
  auto& reg = obs::MetricsRegistry::Get();
  return reg.GetCounter("augment." + augmentor + ".augment_ns")->value() +
         reg.GetCounter("augment." + augmentor + ".aux_loss_ns")->value();
}

// ------------------------------------------------- determinism harness

struct DetRun {
  double seconds = 0;
  std::vector<float> params;  ///< all trainable values, concatenated
};

DetRun TrainForDeterminism(const std::string& augmentor, int threads,
                           int epochs) {
  SetNumThreads(threads);
  const SyntheticData& data = bench::GetDataset("tiny");
  bench::BenchSettings settings = bench::BenchSettings::Default();
  GraphAugConfig cfg = bench::MakeGraphAugConfig(settings, 0, "");
  cfg.augmentor.name = augmentor;
  GraphAug model(&data.dataset, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    model.TrainEpoch();
    model.DecayLearningRate();
  }
  DetRun out;
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  for (const Parameter* p : model.params()->params()) {
    out.params.insert(out.params.end(), p->value.data(),
                      p->value.data() + p->value.size());
  }
  return out;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

int WriteDeterminismJson(const std::string& path, int epochs) {
  const std::vector<int> thread_counts = {1, 2, 7};
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n  \"generated_by\": \"bench_ablation_design\",\n";
  out << bench::BenchEnvJsonFields(bench::GetBenchEnv(), 2);
  out << "  \"kernels\": [\n";
  int violations = 0;
  const std::vector<std::string> names = AllAugmenterNames();
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    DetRun serial = TrainForDeterminism(name, 1, epochs);
    out << "    {\"name\": \"aug_" << name << "\", \"shape\": \"tiny_e"
        << epochs << "\", \"work\": " << serial.params.size()
        << ",\n     \"runs\": [\n";
    out << "      {\"threads\": 1, \"seconds\": " << serial.seconds
        << ", \"speedup_vs_1\": 1, \"bitwise_equal_to_serial\": true}";
    for (size_t t = 1; t < thread_counts.size(); ++t) {
      DetRun run = TrainForDeterminism(name, thread_counts[t], epochs);
      const bool bitwise = BitwiseEqual(serial.params, run.params);
      if (!bitwise) {
        ++violations;
        std::fprintf(stderr, "DETERMINISM VIOLATION: aug_%s at %d threads\n",
                     name.c_str(), thread_counts[t]);
      }
      out << ",\n      {\"threads\": " << thread_counts[t]
          << ", \"seconds\": " << run.seconds << ", \"speedup_vs_1\": "
          << (run.seconds > 0 ? serial.seconds / run.seconds : 0)
          << ", \"bitwise_equal_to_serial\": "
          << (bitwise ? "true" : "false") << "}";
    }
    out << "\n    ]}" << (i + 1 < names.size() ? "," : "") << "\n";
    std::printf("aug_%-10s %s\n", name.c_str(),
                violations == 0 ? "deterministic at 1/2/7 threads"
                                : "checked (see violations above)");
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%d violation(s))\n", path.c_str(), violations);
  return violations == 0 ? 0 : 1;
}

// ------------------------------------------------------------- tables

int RunTables() {
  bench::PrintBanner("Design ablations — GraphAug implementation choices",
                     "Encoder parameterization, hop set, self-loops, "
                     "structure KL, augmentor family (gowalla-sim).");
  bench::BenchSettings settings = bench::BenchSettings::Default();
  const SyntheticData& data = bench::GetDataset("gowalla-sim");

  auto run = [&](GraphAugConfig cfg) {
    GraphAug model(&data.dataset, cfg);
    return bench::RunRecommender(&model, data.dataset, settings);
  };
  auto base = [&] {
    return bench::MakeGraphAugConfig(settings, 0, "gowalla-sim");
  };

  Table t({"Variant", "Recall@20", "NDCG@20"});
  {
    bench::RunResult r = run(base());
    t.AddRow("default (vector gate, act, M={0,1,2})",
             {r.recall20, r.ndcg20});
  }
  {
    GraphAugConfig cfg = base();
    cfg.mixhop_mode = MixhopMode::kMatrixTransform;
    bench::RunResult r = run(cfg);
    t.AddRow("matrix transforms (Eq. 12 literal)", {r.recall20, r.ndcg20});
  }
  {
    GraphAugConfig cfg = base();
    cfg.mixhop_activation = false;
    bench::RunResult r = run(cfg);
    t.AddRow("no per-layer activation", {r.recall20, r.ndcg20});
  }
  for (std::vector<int> hops :
       {std::vector<int>{0, 1}, std::vector<int>{0, 1, 2, 3}}) {
    GraphAugConfig cfg = base();
    cfg.hops = hops;
    bench::RunResult r = run(cfg);
    std::string label = "hops {";
    for (size_t i = 0; i < hops.size(); ++i) {
      label += (i ? "," : "") + std::to_string(hops[i]);
    }
    label += "}";
    t.AddRow(label, {r.recall20, r.ndcg20});
  }
  {
    GraphAugConfig cfg = base();
    cfg.self_loop_weight = 1.f;
    bench::RunResult r = run(cfg);
    t.AddRow("self-loops in adjacency", {r.recall20, r.ndcg20});
  }
  {
    GraphAugConfig cfg = base();
    cfg.augmentor.gib.structure_kl_weight = 0.3f;
    bench::RunResult r = run(cfg);
    t.AddRow("structure Bernoulli-KL (w=0.3)", {r.recall20, r.ndcg20});
  }
  std::printf("%s\n", t.ToString().c_str());
  std::printf("Expected: the default is at or near the top; matrix\n"
              "transforms underfit at this scale; hop sets beyond {0,1,2}\n"
              "give diminishing returns.\n\n");

  // Cross-augmentor shoot-out: same backbone + objective, the view
  // strategy is the only variable. Timing columns come from the obs
  // counters GraphAug::BuildLoss maintains around Augment/AuxLoss, so
  // they measure strategy overhead, not the shared encoder.
  obs::SetEnabled(true);
  Table shootout({"Augmentor", "Recall@20", "NDCG@20", "train s",
                  "augment ms"});
  for (const std::string& name : AllAugmenterNames()) {
    GraphAugConfig cfg = base();
    cfg.augmentor.name = name;
    const int64_t ns0 = AugmentNsTotal(name);
    bench::RunResult r = run(cfg);
    const double augment_ms =
        static_cast<double>(AugmentNsTotal(name) - ns0) / 1e6;
    shootout.AddRow({name, FormatDouble(r.recall20), FormatDouble(r.ndcg20),
                     FormatDouble(r.train.train_seconds, 1),
                     FormatDouble(augment_ms, 1)});
  }
  std::printf("%s\n", shootout.ToString().c_str());
  std::printf("Shoot-out notes: gib carries the paper's denoising bound;\n"
              "edgedrop is the SGL baseline; advcl pays an inner ascent\n"
              "per batch; autocf adds masked reconstruction; lightgcl\n"
              "front-loads a randomized SVD at init. augment ms is 0 in\n"
              "GRAPHAUG_NO_OBS builds (counters compiled out).\n");
  return 0;
}

}  // namespace
}  // namespace graphaug

int main(int argc, char** argv) {
  using namespace graphaug;
  FlagParser flags(argc, argv);
  const std::string det_json = flags.GetString("determinism-json", "");
  if (!det_json.empty()) {
    return WriteDeterminismJson(
        det_json, flags.GetInt32("epochs", 3));
  }
  return RunTables();
}
