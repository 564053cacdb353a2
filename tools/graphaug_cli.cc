// graphaug — command-line interface to the library.
//
// Subcommands:
//   generate   create a synthetic dataset TSV from a preset
//   stats      summarize a dataset
//   train      train any model, optionally saving a checkpoint
//   recommend  top-K recommendations from a trained checkpoint
//   denoise    rank training interactions by learned retention probability
//
// Examples:
//   graphaug generate --preset=gowalla-sim --out=/tmp/gowalla.tsv
//   graphaug train --dataset=/tmp/gowalla.tsv --model=GraphAug \
//       --epochs=24 --checkpoint=/tmp/model.bin
//   graphaug recommend --dataset=/tmp/gowalla.tsv --checkpoint=/tmp/model.bin \
//       --user=42 --topk=10
//   graphaug denoise --preset=amazon-sim --epochs=24 --budget=0.1

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "autograd/serialize.h"
#include "common/env.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/graphaug.h"
#include "data/io.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/registry.h"
#include "models/trainer.h"
#include "obs/obs.h"
#include "retrieval/mips_index.h"
#include "retrieval/topk.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: graphaug <generate|stats|train|recommend|denoise> [flags]\n"
      "  generate  --preset=NAME --out=FILE [--seed=N]\n"
      "  stats     --dataset=FILE | --preset=NAME\n"
      "  train     --dataset=FILE|--preset=NAME --model=NAME [--epochs=N]\n"
      "            [--dim=N] [--layers=N] [--lr=F] [--checkpoint=FILE]\n"
      "            [--augmentor=NAME]  (GraphAug only)\n"
      "  recommend --dataset=FILE|--preset=NAME --checkpoint=FILE\n"
      "            [--model=NAME] [--user=N] [--topk=N] [--out=FILE]\n"
      "            [--index=exact|heap|pruned]  (default heap)\n"
      "              exact  dense oracle: score every item, rank the row\n"
      "              heap   partial-heap top-K over GEMM tiles (identical\n"
      "                     results, no full score row)\n"
      "              pruned k-means + norm-bound pruned MIPS index\n"
      "            [--index-in=FILE] [--index-out=FILE]  load / save the\n"
      "              pruned index instead of / after building it\n"
      "  denoise   --dataset=FILE|--preset=NAME [--epochs=N] [--budget=F]\n"
      "            [--augmentor=NAME]\n"
      "  --augmentor=NAME selects the GraphAug view-generation strategy:\n"
      "            gib|edgedrop|advcl|autocf|lightgcl (default gib)\n"
      "common flags:\n"
      "  --threads=N      worker threads for the parallel runtime (0 = auto;\n"
      "                   overrides GRAPHAUG_NUM_THREADS). Output is\n"
      "                   identical at any thread count.\n"
      "  --log-level=L    minimum log severity: debug|info|warn|error\n"
      "                   (default info; overrides GRAPHAUG_LOG_LEVEL)\n"
      "  --metrics-out=F  write combined metrics JSON (per-op autograd\n"
      "                   profile, per-epoch training health, parallel\n"
      "                   runtime stats) on exit\n"
      "  --trace-out=F    record scoped trace spans and write Chrome\n"
      "                   trace-event JSON (chrome://tracing / Perfetto)\n"
      "  --obs-report     print the instrumentation report to stdout\n"
      "                   (enables profiling like --metrics-out)\n"
      "  --report-out=F   (train) append one JSONL record per epoch (loss\n"
      "                   breakdown, grad/param norms, timing, memory) plus\n"
      "                   a footer (env, config, final metrics); diff two\n"
      "                   runs with tools/report_compare\n"
      "  --profile-out=B  run the sampling CPU profiler and write B.folded\n"
      "                   (collapsed stacks, flamegraph.pl-ready) and\n"
      "                   B.json (top-N self/total table, span shares) on\n"
      "                   exit; inspect with tools/profile_report. For\n"
      "                   train the profiled scope is the training loop,\n"
      "                   otherwise the whole subcommand\n"
      "  --profile-hz=N   sampling rate per thread in Hz of CPU time\n"
      "                   (default 997; kernel tick caps the effective\n"
      "                   rate). Only meaningful with --profile-out\n");
  return 2;
}

/// Returns true when `name` is one of `known`; otherwise prints one line
/// naming the valid choices and returns false (the caller exits 2).
bool KnownName(const char* flag, const std::string& name,
               const std::vector<std::string>& known) {
  if (std::find(known.begin(), known.end(), name) != known.end()) {
    return true;
  }
  std::string valid;
  for (const std::string& n : known) {
    if (!valid.empty()) valid += "|";
    valid += n;
  }
  std::fprintf(stderr, "unknown --%s '%s' (expected %s)\n", flag,
               name.c_str(), valid.c_str());
  return false;
}

/// Checks --preset against the preset list unless --dataset names a file.
bool KnownDatasetSource(const FlagParser& flags) {
  return flags.Has("dataset") ||
         KnownName("preset", flags.GetString("preset", "gowalla-sim"),
                   PresetNames());
}

/// Resolves --dataset (TSV path) or a --preset checked by
/// KnownDatasetSource into a Dataset. On failure prints one line naming
/// the command and the reason.
bool ResolveDataset(const char* cmd, const FlagParser& flags, Dataset* out) {
  if (flags.Has("dataset")) {
    GA_TRACE_SPAN("data_load");
    std::string error;
    if (LoadDatasetTsv(flags.GetString("dataset", ""), out, &error)) {
      return true;
    }
    std::fprintf(stderr, "%s: cannot load dataset: %s\n", cmd, error.c_str());
    return false;
  }
  GA_TRACE_SPAN("data_generate");
  const std::string preset = flags.GetString("preset", "gowalla-sim");
  *out = GeneratePreset(preset,
                        static_cast<uint64_t>(flags.GetInt("seed", 0)))
             .dataset;
  return true;
}

/// Reads --augmentor and validates it against the augmentor registry.
/// Returns false (after printing the valid names) on an unknown name.
bool ResolveAugmentor(const FlagParser& flags, std::string* name) {
  *name = flags.GetString("augmentor", "gib");
  return KnownName("augmentor", *name, AllAugmenterNames());
}

ModelConfig ConfigFromFlags(const FlagParser& flags) {
  ModelConfig cfg;
  cfg.dim = flags.GetInt32("dim", 32);
  cfg.num_layers = flags.GetInt32("layers", 2);
  cfg.learning_rate = static_cast<float>(flags.GetDouble("lr", 5e-3));
  cfg.batch_size = flags.GetInt32("batch", 2048);
  cfg.batches_per_epoch = flags.GetInt32("batches-per-epoch", 6);
  cfg.temperature =
      static_cast<float>(flags.GetDouble("temperature", 0.9));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("model-seed", 123));
  return cfg;
}

/// --eval-every, defaulting to four evaluations per run.
int EvalEveryFlag(const FlagParser& flags, int epochs) {
  return flags.GetInt32("eval-every", std::max(1, epochs / 4));
}

/// Rejects training settings no model can run with. Each bad value prints
/// one line naming the flag; the caller exits 2 before loading any data.
/// denoise runs the same epochs without evaluating, but a bad
/// --eval-every is still rejected there rather than ignored.
bool ValidTrainingConfig(const char* cmd, const ModelConfig& cfg, int epochs,
                         int eval_every) {
  struct Bound {
    const char* flag;
    int value;
    int min;
  };
  for (const Bound& b :
       {Bound{"epochs", epochs, 1}, Bound{"dim", cfg.dim, 1},
        Bound{"layers", cfg.num_layers, 0}, Bound{"batch", cfg.batch_size, 1},
        Bound{"batches-per-epoch", cfg.batches_per_epoch, 1},
        Bound{"eval-every", eval_every, 1}}) {
    if (b.value < b.min) {
      std::fprintf(stderr, "%s: --%s must be >= %d (got %d)\n", cmd, b.flag,
                   b.min, b.value);
      return false;
    }
  }
  struct Positive {
    const char* flag;
    float value;
  };
  for (const Positive& p : {Positive{"lr", cfg.learning_rate},
                            Positive{"temperature", cfg.temperature}}) {
    if (!std::isfinite(p.value) || p.value <= 0.f) {
      std::fprintf(stderr, "%s: --%s must be finite and > 0 (got %g)\n", cmd,
                   p.flag, static_cast<double>(p.value));
      return false;
    }
  }
  return true;
}

/// Reports a training run whose loss stopped being finite; no metric or
/// output of it is worth reporting.
int NonFiniteLoss(const char* cmd, int epoch) {
  std::fprintf(stderr, "%s: loss is not finite at epoch %d; nothing reported\n",
               cmd, epoch);
  return 1;
}

int CmdGenerate(const FlagParser& flags) {
  const std::string preset = flags.GetString("preset", "gowalla-sim");
  if (!KnownName("preset", preset, PresetNames())) return 2;
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  SyntheticData data;
  {
    GA_TRACE_SPAN("data_generate");
    data = GeneratePreset(preset,
                          static_cast<uint64_t>(flags.GetInt("seed", 0)));
  }
  GA_TRACE_SPAN("write_outputs");
  if (!SaveDatasetTsv(data.dataset, out)) {
    std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu train, %zu test interactions)\n", out.c_str(),
              data.dataset.train_edges.size(),
              data.dataset.test_edges.size());
  return 0;
}

int CmdStats(const FlagParser& flags) {
  if (!KnownDatasetSource(flags)) return 2;
  Dataset dataset;
  if (!ResolveDataset("stats", flags, &dataset)) return 1;
  DatasetStats s = ComputeStats(dataset);
  Table t({"Field", "Value"});
  t.AddRow({"name", dataset.name});
  t.AddRow({"users", std::to_string(s.num_users)});
  t.AddRow({"items", std::to_string(s.num_items)});
  t.AddRow({"train interactions", std::to_string(s.num_train)});
  t.AddRow({"test interactions", std::to_string(s.num_test)});
  char density[32];
  std::snprintf(density, sizeof(density), "%.3e", s.density);
  t.AddRow({"density", density});
  t.AddRow({"mean user degree", FormatDouble(s.mean_user_degree, 2)});
  t.AddRow({"max user degree", FormatDouble(s.max_user_degree, 0)});
  t.AddRow({"item-popularity Gini", FormatDouble(s.gini_item_popularity, 3)});
  std::printf("%s", t.ToString().c_str());
  return 0;
}

int CmdTrain(const FlagParser& flags) {
  const ModelConfig cfg = ConfigFromFlags(flags);
  const int epochs = flags.GetInt32("epochs", 24);
  const int eval_every = EvalEveryFlag(flags, epochs);
  if (!ValidTrainingConfig("train", cfg, epochs, eval_every)) return 2;
  const std::string model_name = flags.GetString("model", "GraphAug");
  std::string augmentor;
  if (!KnownDatasetSource(flags) ||
      !KnownName("model", model_name, AllModelNames()) ||
      !ResolveAugmentor(flags, &augmentor)) {
    return 2;
  }
  Dataset dataset;
  if (!ResolveDataset("train", flags, &dataset)) return 1;
  std::unique_ptr<Recommender> model;
  {
    // Model construction builds the training graph and its normalized
    // adjacency.
    GA_TRACE_SPAN("model_build");
    if (model_name == "GraphAug") {
      // Constructed directly (not via CreateModel) so the augmentor choice
      // survives: ModelConfig has no augmentor field to carry it through.
      GraphAugConfig gcfg;
      static_cast<ModelConfig&>(gcfg) = cfg;
      gcfg.augmentor.name = augmentor;
      model = std::make_unique<GraphAug>(&dataset, gcfg);
    } else {
      if (flags.Has("augmentor")) {
        std::fprintf(stderr,
                     "train: --augmentor applies only to --model=GraphAug\n");
        return 2;
      }
      model = CreateModel(model_name, &dataset, cfg);
    }
  }
  Evaluator evaluator(&dataset, {20, 40});
  TrainOptions options;
  options.epochs = epochs;
  options.eval_every = eval_every;
  options.patience = flags.GetInt32("patience", 0);
  options.verbose = flags.GetBool("verbose", true);
  // The trainer scopes the profiling session to the training loop, so
  // dataset generation and model setup do not dilute the span shares.
  if (!flags.GetString("profile-out", "").empty()) {
    options.profile_hz =
        flags.GetInt32("profile-hz", obs::kDefaultProfileHz);
  }
  obs::RunReportWriter report;
  const std::string report_out = flags.GetString("report-out", "");
  if (!report_out.empty()) {
    if (!report.Open(report_out)) {
      std::fprintf(stderr, "train: cannot write report %s\n",
                   report_out.c_str());
      return 1;
    }
    options.report = &report;
  }
  TrainResult result = TrainAndEvaluate(model.get(), evaluator, options);
  if (result.nonfinite_epoch > 0) {
    return NonFiniteLoss("train", result.nonfinite_epoch);
  }
  GA_TRACE_SPAN("write_outputs");
  if (report.is_open()) {
    obs::ReportFooter footer;
    const RuntimeEnv env = ProbeRuntimeEnv();
    footer.env["git_sha"] = env.git_sha;
    footer.env["timestamp_utc"] = env.timestamp_utc;
    footer.env["hardware_concurrency"] =
        std::to_string(env.hardware_concurrency);
    footer.env["threads"] = std::to_string(NumThreads());
    footer.config["model"] = model_name;
    footer.config["dataset"] = dataset.name;
    footer.config["epochs"] = std::to_string(options.epochs);
    footer.config["dim"] = std::to_string(flags.GetInt("dim", 32));
    footer.config["layers"] = std::to_string(flags.GetInt("layers", 2));
    footer.config["lr"] = FormatDouble(flags.GetDouble("lr", 5e-3), 6);
    if (model_name == "GraphAug") footer.config["augmentor"] = augmentor;
    footer.metrics["recall@20"] = result.final_metrics.RecallAt(20);
    footer.metrics["recall@40"] = result.final_metrics.RecallAt(40);
    footer.metrics["ndcg@20"] = result.final_metrics.NdcgAt(20);
    footer.metrics["ndcg@40"] = result.final_metrics.NdcgAt(40);
    footer.best_epoch = result.best_epoch;
    footer.train_seconds = result.train_seconds;
    footer.peak_bytes = obs::PeakBytes();
    footer.rss_peak_bytes = std::max(
        obs::PeakRssBytes(), obs::RssSampler::Get().SampledPeakBytes());
    const obs::ProcessUsage usage = obs::ReadProcessUsage();
    footer.minor_faults = usage.minor_faults;
    footer.user_cpu_s = usage.user_cpu_s;
    footer.sys_cpu_s = usage.sys_cpu_s;
    footer.counters = obs::MetricsRegistry::Get().CounterSnapshot();
    report.WriteFooter(footer);
    if (!report.Close()) {
      std::fprintf(stderr, "train: cannot write report %s\n",
                   report_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "report written to %s\n", report_out.c_str());
  }
  std::printf("%s on %s: Recall@20=%.4f Recall@40=%.4f NDCG@20=%.4f "
              "NDCG@40=%.4f (best epoch %d, %.1fs)\n",
              model_name.c_str(), dataset.name.c_str(),
              result.final_metrics.RecallAt(20),
              result.final_metrics.RecallAt(40),
              result.final_metrics.NdcgAt(20),
              result.final_metrics.NdcgAt(40), result.best_epoch,
              result.train_seconds);
  const std::string ckpt = flags.GetString("checkpoint", "");
  if (!ckpt.empty()) {
    if (!SaveCheckpoint(*model->params(), ckpt)) {
      std::fprintf(stderr, "train: cannot write checkpoint %s\n",
                   ckpt.c_str());
      return 1;
    }
    std::printf("checkpoint saved to %s\n", ckpt.c_str());
  }
  return 0;
}

int CmdRecommend(const FlagParser& flags) {
  const std::string index_mode = flags.GetString("index", "heap");
  if (index_mode != "exact" && index_mode != "heap" &&
      index_mode != "pruned") {
    std::fprintf(stderr,
                 "recommend: unknown --index '%s' (expected "
                 "exact|heap|pruned)\n",
                 index_mode.c_str());
    return 2;
  }
  const std::string index_in = flags.GetString("index-in", "");
  const std::string index_out = flags.GetString("index-out", "");
  if ((!index_in.empty() || !index_out.empty()) && index_mode != "pruned") {
    std::fprintf(stderr,
                 "recommend: --index-in/--index-out require "
                 "--index=pruned\n");
    return 2;
  }
  // Same fail-fast contract as --report-out: probe every output path
  // before any model work, so a typo'd directory costs milliseconds.
  const std::string out = flags.GetString("out", "");
  for (const std::string& path : {out, index_out}) {
    if (path.empty()) continue;
    FILE* probe = std::fopen(path.c_str(), "a");
    if (probe == nullptr) {
      std::fprintf(stderr, "recommend: output path %s is not writable\n",
                   path.c_str());
      return 1;
    }
    std::fclose(probe);
  }
  const std::string model_name = flags.GetString("model", "GraphAug");
  if (!KnownDatasetSource(flags) ||
      !KnownName("model", model_name, AllModelNames())) {
    return 2;
  }
  Dataset dataset;
  if (!ResolveDataset("recommend", flags, &dataset)) return 1;
  const std::string ckpt = flags.GetString("checkpoint", "");
  if (ckpt.empty()) {
    std::fprintf(stderr, "recommend: --checkpoint is required\n");
    return 2;
  }
  std::unique_ptr<Recommender> model;
  {
    GA_TRACE_SPAN("model_build");
    model = CreateModel(model_name, &dataset, ConfigFromFlags(flags));
    if (!LoadCheckpoint(model->params(), ckpt)) {
      std::fprintf(stderr, "recommend: cannot load %s\n", ckpt.c_str());
      return 1;
    }
    model->Finalize();
  }
  const int32_t user = flags.GetInt32("user", 0);
  const int topk = flags.GetInt32("topk", 10);
  if (user < 0 || user >= dataset.num_users) {
    std::fprintf(stderr, "recommend: user %d out of range\n", user);
    return 2;
  }
  if (index_mode != "exact" && !model->factored_scoring()) {
    std::fprintf(stderr,
                 "recommend: model '%s' has non-factored scoring; the "
                 "retrieval engines serve dot-product models only "
                 "(use --index=exact)\n",
                 model->name().c_str());
    return 2;
  }
  BipartiteGraph g = dataset.TrainGraph();
  std::vector<int32_t> seen = g.ItemsOf(user);
  std::sort(seen.begin(), seen.end());

  retrieval::TopKList list;
  if (index_mode == "exact") {
    // Score the whole row with the model itself (any model, factored or
    // not) and select with the retrieval engines' ranking rule.
    const Matrix scores = model->ScoreUsers({user});
    retrieval::TopKHeap heap(topk);
    heap.OfferRow(scores.row(0), dataset.num_items, 0, seen);
    heap.TakeSortedDescending(&list);
  } else {
    const Matrix query = SliceRows(model->user_embeddings(), user, 1);
    if (index_mode == "heap") {
      retrieval::TopKScorer scorer(model->item_embeddings());
      list = scorer.Retrieve(query, topk, seen);
    } else {
      retrieval::MipsIndex index;
      if (!index_in.empty()) {
        if (!retrieval::MipsIndex::Load(index_in, &index)) {
          std::fprintf(stderr, "recommend: cannot load index %s\n",
                       index_in.c_str());
          return 1;
        }
        if (index.num_items() != dataset.num_items ||
            index.dim() != model->item_embeddings().cols()) {
          std::fprintf(stderr,
                       "recommend: index %s does not match the checkpoint "
                       "(%lld items x %lld dims vs %d x %lld)\n",
                       index_in.c_str(),
                       static_cast<long long>(index.num_items()),
                       static_cast<long long>(index.dim()),
                       dataset.num_items,
                       static_cast<long long>(
                           model->item_embeddings().cols()));
          return 1;
        }
      } else {
        index = retrieval::MipsIndex::Build(model->item_embeddings());
      }
      if (!index_out.empty()) {
        if (!index.Save(index_out)) {
          std::fprintf(stderr, "recommend: cannot write index %s\n",
                       index_out.c_str());
          return 1;
        }
        std::fprintf(stderr, "index saved to %s\n", index_out.c_str());
      }
      list = index.Retrieve(query, topk, seen);
    }
  }

  Table t({"rank", "item", "score"});
  for (size_t r = 0; r < list.items.size(); ++r) {
    t.AddRow({std::to_string(r + 1), std::to_string(list.items[r]),
              FormatDouble(list.scores[r], 3)});
  }
  const std::string header = "top-" + std::to_string(topk) +
                             " recommendations for user " +
                             std::to_string(user) + " (--index=" +
                             index_mode + "):\n";
  std::printf("%s%s", header.c_str(), t.ToString().c_str());
  if (!out.empty()) {
    FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "recommend: cannot write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "%s%s", header.c_str(), t.ToString().c_str());
    std::fclose(f);
    std::fprintf(stderr, "recommendations written to %s\n", out.c_str());
  }
  return 0;
}

int CmdDenoise(const FlagParser& flags) {
  GraphAugConfig cfg;
  static_cast<ModelConfig&>(cfg) = ConfigFromFlags(flags);
  const int epochs = flags.GetInt32("epochs", 24);
  if (!ValidTrainingConfig("denoise", cfg, epochs,
                           EvalEveryFlag(flags, epochs))) {
    return 2;
  }
  std::string augmentor;
  if (!KnownDatasetSource(flags) || !ResolveAugmentor(flags, &augmentor)) {
    return 2;
  }
  Dataset dataset;
  if (!ResolveDataset("denoise", flags, &dataset)) return 1;
  cfg.augmentor.name = augmentor;
  std::unique_ptr<GraphAug> model_ptr;
  {
    GA_TRACE_SPAN("model_build");
    model_ptr = std::make_unique<GraphAug>(&dataset, cfg);
  }
  GraphAug& model = *model_ptr;
  if (!model.augmenter().has_edge_scores()) {
    std::fprintf(stderr,
                 "denoise: augmentor '%s' learns no edge retention scores "
                 "(use --augmentor=gib)\n",
                 augmentor.c_str());
    return 2;
  }
  for (int e = 1; e <= epochs; ++e) {
    if (!std::isfinite(model.TrainEpoch())) return NonFiniteLoss("denoise", e);
    model.DecayLearningRate();
  }
  std::vector<float> probs = model.EdgeProbabilities();
  BipartiteGraph g = dataset.TrainGraph();
  const auto& edges = g.edges();
  std::vector<size_t> order(probs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return probs[a] < probs[b]; });
  const double budget = flags.GetDouble("budget", 0.05);
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(budget * static_cast<double>(probs.size())));
  std::printf("%zu interactions flagged as most suspicious "
              "(lowest retention p):\n",
              k);
  Table t({"user", "item", "retention p"});
  for (size_t i = 0; i < k && i < order.size(); ++i) {
    const Edge& e = edges[order[i]];
    t.AddRow({std::to_string(e.user), std::to_string(e.item),
              FormatDouble(probs[order[i]])});
  }
  std::printf("%s", t.ToString().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  // --threads=N caps the shared parallel runtime for every subcommand
  // (0 = auto: GRAPHAUG_NUM_THREADS env var, then hardware concurrency).
  // Results are identical at any setting; only wall-clock changes.
  if (flags.Has("threads")) {
    const int threads = flags.GetInt32("threads", 0);
    if (threads < 0) {
      std::fprintf(stderr, "--threads must be >= 0 (got %d)\n", threads);
      return 2;
    }
    SetNumThreads(threads);
  }
  if (flags.Has("log-level")) {
    const std::string name = flags.GetString("log-level", "info");
    LogLevel level;
    if (!ParseLogLevel(name, &level)) {
      std::fprintf(stderr, "unknown --log-level '%s' "
                   "(expected debug|info|warn|error)\n", name.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  // Observability: any of the output flags turns the master switch on;
  // tracing additionally records scoped spans into the ring buffers.
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string report_out = flags.GetString("report-out", "");
  const std::string profile_out = flags.GetString("profile-out", "");
  const int profile_hz =
      flags.GetInt32("profile-hz", obs::kDefaultProfileHz);
  const std::string profile_folded =
      profile_out.empty() ? "" : profile_out + ".folded";
  const std::string profile_json =
      profile_out.empty() ? "" : profile_out + ".json";
  const bool obs_report = flags.GetBool("obs-report", false);
  const bool obs_on =
      !metrics_out.empty() || !trace_out.empty() || !report_out.empty() ||
      !profile_out.empty() || obs_report;
  if (obs_on) obs::SetEnabled(true);
  if (!trace_out.empty()) obs::SetTraceEnabled(true);
  // Fail loudly before any work if an output path is unwritable: probing
  // with "a" creates the file without clobbering an existing one, so a
  // typo'd directory is caught in milliseconds, not after training.
  for (const std::string& path :
       {metrics_out, trace_out, report_out, profile_folded, profile_json}) {
    if (path.empty()) continue;
    FILE* probe = std::fopen(path.c_str(), "a");
    if (probe == nullptr) {
      std::fprintf(stderr, "warning: output path %s is not writable\n",
                   path.c_str());
      return 1;
    }
    std::fclose(probe);
  }
  // Poll RSS in the background while instrumented so transient spikes
  // between epoch boundaries still show up in reports.
  if (obs_on) obs::RssSampler::Get().Start();
  const std::string& cmd = flags.positional()[0];
  // train scopes its own profiling session to the training loop (see
  // TrainOptions::profile_hz); every other subcommand is profiled whole.
  if (!profile_out.empty() && cmd != "train") {
    if (!obs::StartProfiler(profile_hz)) {
      std::fprintf(stderr,
                   "warning: sampling profiler unavailable (per-thread "
                   "timers/signals denied); %s will be empty\n",
                   profile_folded.c_str());
    }
  }
  int rc;
  if (cmd == "generate") {
    rc = CmdGenerate(flags);
  } else if (cmd == "stats") {
    rc = CmdStats(flags);
  } else if (cmd == "train") {
    rc = CmdTrain(flags);
  } else if (cmd == "recommend") {
    rc = CmdRecommend(flags);
  } else if (cmd == "denoise") {
    rc = CmdDenoise(flags);
  } else {
    return Usage();
  }
  obs::RssSampler::Get().Stop();
  obs::StopProfiler();
  GA_TRACE_SPAN("write_outputs");
  if (!trace_out.empty()) {
    if (obs::WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "trace written to %s (%lld events)\n",
                   trace_out.c_str(),
                   static_cast<long long>(obs::TraceEventTotal()));
      // A full ring overwrites oldest-first, so the exported trace is
      // silently missing its beginning — say so instead of letting a
      // truncated timeline masquerade as a complete one.
      const int64_t dropped = obs::TraceDroppedTotal();
      if (dropped > 0) {
        std::fprintf(stderr,
                     "warning: trace is truncated — %lld oldest events were "
                     "dropped due to ring-buffer overflow (see the "
                     "trace.dropped_events counter); earliest spans are "
                     "missing from %s\n",
                     static_cast<long long>(dropped), trace_out.c_str());
      }
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", trace_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!profile_out.empty()) {
    if (obs::WriteProfileFolded(profile_folded) &&
        obs::WriteProfileJson(profile_json)) {
      const obs::ProfileSummary prof = obs::SummarizeProfile();
      std::fprintf(stderr,
                   "profile written to %s / %s (%lld samples, %lld lost, "
                   "%.1f%% in a scope, %.1f%% with a symbolized leaf)\n",
                   profile_folded.c_str(), profile_json.c_str(),
                   static_cast<long long>(prof.samples),
                   static_cast<long long>(prof.lost),
                   100.0 * prof.span_covered_frac,
                   100.0 * prof.attributed_frac);
    } else {
      std::fprintf(stderr, "cannot write profile %s\n", profile_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!metrics_out.empty()) {
    if (obs::WriteMetricsJson(metrics_out)) {
      std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics %s\n", metrics_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (obs_report) std::printf("%s", obs::AsciiReport().c_str());
  // A usage error (rc 2) or an input error (rc 1, e.g. a malformed
  // --dataset) stops a command before it reads its other flags; listing
  // those as unused would bury the one-line error.
  if (rc == 0) {
    for (const std::string& f : flags.UnusedFlags()) {
      std::fprintf(stderr, "warning: unused flag --%s\n", f.c_str());
    }
  }
  return rc;
}

}  // namespace
}  // namespace graphaug

int main(int argc, char** argv) { return graphaug::Main(argc, argv); }
