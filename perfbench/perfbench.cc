// End-to-end train/serve benchmark with a per-layer breakdown.
//
// One process runs one workload at threads = min(4, hardware threads):
//
//   gib-gowalla     GraphAug (GIB augmentor) on the gowalla-sim preset
//   lightgcn-large  LightGCN on the gowalla-sim generator at 9000 x 10000
//   serve-pruned    MipsIndex serving over a 20000 x 50000 x 32 catalog
//
// Every layer is reached only through its public functions, and training
// is driven through the same calls, in the same order, that
// TrainAndEvaluate makes (TrainEpoch, DecayLearningRate, then Finalize and
// Evaluate at the eval cadence), so epoch and eval time come out apart.
// Outputs are checked untimed: finite losses and embeddings, Evaluate equal
// bit for bit to EvaluateRetrieval(TopKScorer), and every served list equal
// to the exact TopKScorer list. README.md in this directory documents the
// workloads and the metrics.
//
// Usage (run.py builds the binary and passes these):
//   perfbench --prepare --workload=W --seed=N --data-dir=D
//   perfbench --workload=W --seed=N --seconds=S --trace=0|1 --data-dir=D
//             --out-dir=O
// The last stdout line is the JSON result. A record with the host
// context, wall and CPU seconds per phase and, when traced, every span
// goes to O/<workload>-seed<N>-trace<0|1>.json.

#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/env.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "core/graphaug.h"
#include "data/io.h"
#include "eval/evaluator.h"
#include "inputs.h"
#include "models/registry.h"
#include "obs/obs.h"
#include "retrieval/mips_index.h"
#include "retrieval/topk.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using graphaug::Dataset;
using graphaug::Evaluator;
using graphaug::Matrix;
using graphaug::Recommender;
using graphaug::TopKMetrics;
using graphaug::retrieval::MipsIndex;
using graphaug::retrieval::Retriever;
using graphaug::retrieval::TopKList;
using graphaug::retrieval::TopKScorer;
using Exclusions = std::vector<std::vector<int32_t>>;

constexpr int kTopK = 20;
/// Set-ups per training trial, and index builds per serving run; the
/// reported setup_s is the median over all of them.
constexpr int kSetupReps = 3;
constexpr int kIndexBuilds = 5;
/// Epochs per training trial. Both training workloads evaluate after every
/// epoch, which for four epochs is also the CLI's default cadence of four
/// evals per run (eval_every = max(1, epochs / 4)).
constexpr int kEpochs = 4;
/// Online single-user queries per serving pass; the pass's p99 has 40
/// samples beyond it.
constexpr int64_t kOnlineQueries = 4000;

/// Autograd ops whose per-epoch time (forward + backward) is reported.
const char* const kTracedOps[] = {
    "MatMul",     "LeakyRelu", "MulRowBroadcast", "EdgeWeightedSpmm",
    "GatherRows", "SpmmPower", "Add",             "ConcatCols"};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::vector<double> WallOf(const std::vector<Timing>& v) {
  std::vector<double> out;
  for (const Timing& t : v) out.push_back(t.wall_s);
  return out;
}

std::vector<double> CpuOf(const std::vector<Timing>& v) {
  std::vector<double> out;
  for (const Timing& t : v) out.push_back(t.cpu_s);
  return out;
}

double SumOf(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string LoadAvg() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "null";
  return "[" + Num(l[0]) + ", " + Num(l[1]) + ", " + Num(l[2]) + "]";
}

/// Operations attempted and failed, with the reason of the first failures.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }
};

/// Bitwise equality of two vectors of floating-point values.
template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameList(const TopKList& a, const TopKList& b) {
  return a.items == b.items && SameBits(a.scores, b.scores);
}

bool SameMetrics(const TopKMetrics& a, const TopKMetrics& b) {
  return a.num_users == b.num_users && SameBits(a.recall, b.recall) &&
         SameBits(a.ndcg, b.ndcg) && SameBits(a.precision, b.precision) &&
         SameBits(a.hit_rate, b.hit_rate) && SameBits(a.map, b.map) &&
         SameBits(a.mrr, b.mrr);
}

bool AllFinite(const Matrix& m) {
  for (int64_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return true;
}

/// Read-only copy of the process-wide obs tables, for per-call deltas.
struct ObsSnap {
  std::map<std::string, graphaug::obs::OpStats> ops;
  std::map<std::string, int64_t> counters;
  int64_t allocs = 0;
  int64_t alloc_bytes = 0;
};

ObsSnap TakeSnap() {
  ObsSnap s;
  s.ops = graphaug::obs::AutogradProfiler::Get().Snapshot();
  s.counters = graphaug::obs::MetricsRegistry::Get().CounterSnapshot();
  s.allocs = graphaug::obs::AllocCount();
  s.alloc_bytes = graphaug::obs::TotalAllocBytes();
  return s;
}

/// Change, between two snapshots, of the counters whose names start with
/// `prefix` and end with `suffix`.
int64_t CounterDelta(const ObsSnap& a, const ObsSnap& b,
                     const std::string& prefix,
                     const std::string& suffix = "") {
  int64_t total = 0;
  for (const auto& [name, value] : b.counters) {
    if (name.size() < prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const auto it = a.counters.find(name);
    total += value - (it == a.counters.end() ? 0 : it->second);
  }
  return total;
}

/// Everything one run measures: one sample per call, and sums of wall and
/// CPU seconds and of obs-table deltas over the traced calls.
struct Measurements {
  std::vector<double> query_us;
  std::vector<double> pass_p99_us;  ///< p99 query latency of each pass
  /// Set-ups, main-loop passes, evaluations (Finalize + Evaluate, or
  /// EvaluateRetrieval), and the Evaluate / EvaluateRetrieval, TrainEpoch
  /// and RetrieveBatch calls alone.
  std::vector<Timing> setups, loops, evals, evaluate_calls, epoch_calls,
      batches;
  std::vector<double> load_s, graph_s, construct_s, finalize_s;
  int64_t triplets_per_epoch = 0;
  int64_t batch_queries = 0;
  double fwd_ns = 0, bwd_ns = 0, augment_ns = 0, aux_ns = 0;
  std::map<std::string, double> op_ns;
  int64_t allocs = 0, alloc_bytes = 0;
  int64_t queries = 0, scored = 0, pruned = 0;
  /// Wall and CPU seconds per phase, for the record file.
  std::map<std::string, Timing> phases;

  void Add(const std::string& phase, const Timing& t) {
    phases[phase] = phases[phase] + t;
  }
};

/// The model exactly as `graphaug train` builds it from its flag defaults
/// (ConfigFromFlags: d=32, L=2, lr 5e-3, batch 2048, 6 batches per epoch,
/// temperature 0.9, model seed 123).
std::unique_ptr<Recommender> MakeModel(const std::string& workload,
                                       const Dataset* ds) {
  graphaug::ModelConfig cfg;
  cfg.dim = 32;
  cfg.num_layers = 2;
  cfg.learning_rate = 5e-3f;
  cfg.batch_size = 2048;
  cfg.batches_per_epoch = 6;
  cfg.temperature = 0.9f;
  cfg.seed = 123;
  if (workload == "gib-gowalla") {
    graphaug::GraphAugConfig g;
    static_cast<graphaug::ModelConfig&>(g) = cfg;
    g.augmentor.name = "gib";
    return std::make_unique<graphaug::GraphAug>(ds, g);
  }
  return graphaug::CreateModel("LightGCN", ds, cfg);
}

Retriever::ExcludeFn ExcludeOf(const Exclusions& exclude) {
  return [&exclude](int64_t r) -> const std::vector<int32_t>& {
    return exclude[static_cast<size_t>(r)];
  };
}

/// Exact reference lists (TopKScorer), computed untimed.
std::vector<TopKList> ExactLists(const Matrix& items, const Matrix& users,
                                 const Exclusions& exclude) {
  std::vector<TopKList> lists;
  TopKScorer(items).RetrieveBatch(users, kTopK, ExcludeOf(exclude), &lists);
  return lists;
}

/// The serving inputs shared by the passes of one index.
struct ServeState {
  const MipsIndex* index = nullptr;
  const Matrix* users = nullptr;
  const Exclusions* exclude = nullptr;
  std::vector<TopKList> exact;
  std::vector<int32_t> order;  ///< closed-loop caller's user order
  int64_t cursor = 0;
};

/// One serving pass: `online` single-user Retrieve calls from one
/// closed-loop caller, then one RetrieveBatch over every user. Lists are
/// compared with the exact ones afterwards, untimed. Returns the time of
/// the two phases.
Timing ServePass(ServeState* s, int64_t online, SpanRecorder* rec,
                 Outcome* out, Measurements* m) {
  const ObsSnap before = rec->enabled() ? TakeSnap() : ObsSnap{};
  const Matrix& users = *s->users;
  Matrix q(1, users.cols());
  std::vector<std::pair<int32_t, TopKList>> got;
  got.reserve(static_cast<size_t>(online));
  ScopedSpan phase(rec, "serve.online");
  for (int64_t i = 0; i < online; ++i) {
    const int32_t u = s->order[static_cast<size_t>(s->cursor)];
    s->cursor = (s->cursor + 1) % static_cast<int64_t>(s->order.size());
    std::memcpy(q.row(0), users.row(u), sizeof(float) * users.cols());
    ScopedSpan call(rec, "retrieval.Retrieve");
    TopKList list =
        s->index->Retrieve(q, kTopK, (*s->exclude)[static_cast<size_t>(u)]);
    m->query_us.push_back(call.Stop().wall_s * 1e6);
    got.emplace_back(u, std::move(list));
  }
  const Timing online_t = phase.Stop();
  m->Add("serve.online", online_t);
  m->pass_p99_us.push_back(Percentile(
      std::vector<double>(m->query_us.end() - online, m->query_us.end()),
      0.99));

  std::vector<TopKList> lists;
  Timing batch_t;
  {
    ScopedSpan call(rec, "retrieval.RetrieveBatch");
    s->index->RetrieveBatch(users, kTopK, ExcludeOf(*s->exclude), &lists);
    batch_t = call.Stop();
  }
  m->Add("serve.batch", batch_t);
  m->batches.push_back(batch_t);
  m->batch_queries = users.rows();
  if (rec->enabled()) {
    const ObsSnap after = TakeSnap();
    m->queries += CounterDelta(before, after, "retrieval.queries");
    m->scored += CounterDelta(before, after, "retrieval.items_scored");
    m->pruned += CounterDelta(before, after, "retrieval.items_pruned");
  }

  for (const auto& [u, list] : got) {
    out->Check(SameList(list, s->exact[static_cast<size_t>(u)]),
               "online list of user " + std::to_string(u) +
                   " differs from the exact list");
  }
  for (size_t u = 0; u < lists.size(); ++u) {
    out->Check(SameList(lists[u], s->exact[u]),
               "batch list of user " + std::to_string(u) +
                   " differs from the exact list");
  }
  out->Check(lists.size() == s->exact.size(), "batch returned too few lists");
  return online_t + batch_t;
}

std::vector<int32_t> ShuffledUsers(int64_t n, uint64_t seed) {
  std::vector<int32_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  graphaug::Rng rng(DeriveSeed(seed, 3));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(static_cast<uint64_t>(i))]);
  }
  return order;
}

/// Adds the obs-table changes of one TrainEpoch call.
void AddEpochDeltas(const ObsSnap& before, const ObsSnap& after,
                    Measurements* m) {
  for (const auto& [op, st] : after.ops) {
    const auto it = before.ops.find(op);
    const graphaug::obs::OpStats prev =
        it == before.ops.end() ? graphaug::obs::OpStats{} : it->second;
    const double f = static_cast<double>(st.fwd_ns - prev.fwd_ns);
    const double b = static_cast<double>(st.bwd_ns - prev.bwd_ns);
    m->fwd_ns += f;
    m->bwd_ns += b;
    m->op_ns[op] += f + b;
  }
  m->augment_ns += static_cast<double>(
      CounterDelta(before, after, "augment.", ".augment_ns"));
  m->aux_ns += static_cast<double>(
      CounterDelta(before, after, "augment.", ".aux_loss_ns"));
  m->allocs += after.allocs - before.allocs;
  m->alloc_bytes += after.alloc_bytes - before.alloc_bytes;
}

/// One training trial: kSetupReps set-ups (the last one is kept), then the
/// epoch-plus-eval loop. Returns the final evaluation's metrics.
TopKMetrics TrainTrial(const std::string& workload, const std::string& tsv,
                       SpanRecorder* rec, Outcome* out, Measurements* m) {
  const bool traced = rec->enabled();
  ScopedSpan trial(rec, "trial");
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<Recommender> model;
  std::unique_ptr<Evaluator> evaluator;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    evaluator.reset();
    model.reset();
    ds = std::make_unique<Dataset>();
    ScopedSpan setup(rec, "setup");
    {
      ScopedSpan call(rec, "data.LoadDatasetTsv");
      out->Check(graphaug::LoadDatasetTsv(tsv, ds.get()),
                 "cannot load " + tsv);
      m->load_s.push_back(call.Stop().wall_s);
    }
    {
      ScopedSpan call(rec, "models.construct");
      model = MakeModel(workload, ds.get());
      m->construct_s.push_back(call.Stop().wall_s);
    }
    {
      ScopedSpan call(rec, "eval.Evaluator");
      evaluator =
          std::make_unique<Evaluator>(ds.get(), std::vector<int>{20, 40});
    }
    const Timing t = setup.Stop();
    m->setups.push_back(t);
    m->Add("setup", t);
  }
  if (traced) {
    // The graph layer alone: the interaction graph and the normalized
    // adjacency that propagation models build at construction.
    ScopedSpan call(rec, "graph.build");
    const graphaug::BipartiteGraph g = ds->TrainGraph();
    const graphaug::NormalizedAdjacency adj = g.BuildNormalizedAdjacency(0.f);
    m->graph_s.push_back(call.Stop().wall_s);
  }

  m->triplets_per_epoch = static_cast<int64_t>(model->config().batch_size) *
                          model->config().batches_per_epoch;
  auto scorer = [&model](const std::vector<int32_t>& users) {
    return model->ScoreUsers(users);
  };
  Timing loop;
  TopKMetrics metrics;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const ObsSnap before = traced ? TakeSnap() : ObsSnap{};
    double loss = 0;
    Timing et;
    {
      ScopedSpan call(rec, "models.TrainEpoch");
      loss = model->TrainEpoch();
      et = call.Stop();
    }
    if (traced) AddEpochDeltas(before, TakeSnap(), m);
    m->Add("epoch", et);
    m->epoch_calls.push_back(et);
    {
      ScopedSpan call(rec, "models.DecayLearningRate");
      model->DecayLearningRate();
      loop = loop + et + call.Stop();
    }
    out->Check(std::isfinite(loss),
               "epoch " + std::to_string(epoch) + " loss is not finite");

    Timing ft, vt;
    {
      ScopedSpan call(rec, "models.Finalize");
      model->Finalize();
      ft = call.Stop();
    }
    {
      ScopedSpan call(rec, "eval.Evaluate");
      metrics = evaluator->Evaluate(scorer);
      vt = call.Stop();
    }
    m->Add("finalize", ft);
    m->Add("evaluate", vt);
    m->finalize_s.push_back(ft.wall_s);
    m->evaluate_calls.push_back(vt);
    m->evals.push_back(ft + vt);
    loop = loop + ft + vt;
    out->Check(AllFinite(model->user_embeddings()) &&
                   AllFinite(model->item_embeddings()),
               "finalized embeddings are not finite after epoch " +
                   std::to_string(epoch));
  }
  m->loops.push_back(loop);

  // Untimed: the dense evaluator must agree bit for bit with the exact
  // retrieval path on the final embeddings.
  const TopKMetrics via_retrieval = evaluator->EvaluateRetrieval(
      TopKScorer(model->item_embeddings()), model->user_embeddings());
  out->Check(SameMetrics(metrics, via_retrieval),
             "Evaluate differs from EvaluateRetrieval(TopKScorer)");

  return metrics;
}

std::string DatasetPath(const std::string& data_dir,
                        const std::string& workload, uint64_t seed) {
  return data_dir + "/" + workload + "-seed" + std::to_string(seed) + ".tsv";
}

/// Writes the workload's training set to TSV unless it is already there.
int Prepare(const std::string& workload, uint64_t seed,
            const std::string& data_dir) {
  if (workload == "serve-pruned") return 0;  // generated in-process
  const std::string path = DatasetPath(data_dir, workload, seed);
  if (std::ifstream(path).good()) return 0;
  Dataset ds;
  if (!MakeTrainingDataset(workload, seed, &ds)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const std::string tmp = path + ".tmp";
  if (!graphaug::SaveDatasetTsv(ds, tmp) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

/// Runs `step` until `seconds` are used, starting another one only while
/// it is expected to end within the budget. At least one step runs.
template <typename Fn>
int64_t RunFor(double seconds, Fn step) {
  const int64_t start = WallNs();
  int64_t n = 0;
  double last = 0;
  do {
    const int64_t t0 = WallNs();
    step();
    last = static_cast<double>(WallNs() - t0) * 1e-9;
    ++n;
  } while (static_cast<double>(WallNs() - start) * 1e-9 + 0.5 * last <
           seconds);
  return n;
}

struct RunResult {
  Outcome outcome;
  Measurements untraced;
  Measurements traced;
  double recall20 = 0;
  double overhead_frac = 0;  ///< traced loop CPU / untraced loop CPU - 1
  int64_t steps = 0;         ///< trials (training) or passes (serving)
  std::string shape;
  std::string spans_json = "null";
  std::map<std::string, SpanRecorder::NameTotals> span_totals;
};

/// Shared driver: a warm-up step, then untraced steps for the whole budget,
/// or untraced reference steps for a third of it followed by traced steps.
/// `step(rec, m)` returns the step's metrics; every step must give
/// bit-identical metrics.
template <typename StepFn>
void Drive(double seconds, bool trace, uint64_t seed, RunResult* r,
           StepFn step) {
  bool have_ref = false;
  TopKMetrics ref;
  auto checked = [&](SpanRecorder* rec, Measurements* m) {
    const TopKMetrics mt = step(rec, m);
    if (!have_ref) {
      ref = mt;
      have_ref = true;
      return;
    }
    r->outcome.Check(SameMetrics(ref, mt),
                     "metrics differ between identical steps");
  };
  // One warm-up step, checked but not measured: the first step pays
  // one-off costs (page cache, allocator growth, cold caches) that would
  // otherwise skew the per-run medians.
  const int64_t start = WallNs();
  SpanRecorder off(seed);
  Measurements warmup;
  checked(&off, &warmup);
  if (!trace) {
    r->steps = RunFor(seconds, [&] { checked(&off, &r->untraced); });
  } else {
    // A third of the time untraced, as the reference for the tracing
    // overhead, then traced steps with the obs layer on.
    RunFor(seconds / 3, [&] { checked(&off, &r->untraced); });
    const double used = static_cast<double>(WallNs() - start) * 1e-9;
    graphaug::obs::ResetAll();
    graphaug::obs::ResetPeakBytes();
    graphaug::obs::SetEnabled(true);
    SpanRecorder on(DeriveSeed(seed, static_cast<uint64_t>(WallNs())));
    on.set_enabled(true);
    r->steps = RunFor(std::max(0.0, seconds - used),
                      [&] { checked(&on, &r->traced); });
    graphaug::obs::SetEnabled(false);
    r->overhead_frac = Ratio(Median(CpuOf(r->traced.loops)),
                             Median(CpuOf(r->untraced.loops))) -
                       1.0;
    r->spans_json = on.ToJson();
    r->span_totals = on.Totals();
  }
  r->recall20 = ref.RecallAt(20);
}

void RunTraining(const std::string& workload, uint64_t seed, double seconds,
                 bool trace, const std::string& data_dir, RunResult* r) {
  const std::string tsv = DatasetPath(data_dir, workload, seed);
  Drive(seconds, trace, seed, r, [&](SpanRecorder* rec, Measurements* m) {
    return TrainTrial(workload, tsv, rec, &r->outcome, m);
  });
  Dataset ds;
  if (graphaug::LoadDatasetTsv(tsv, &ds)) {
    r->shape = std::to_string(ds.num_users) + " users x " +
               std::to_string(ds.num_items) + " items, " +
               std::to_string(ds.train_edges.size()) + " train / " +
               std::to_string(ds.test_edges.size()) + " test interactions";
  }
}

void RunServing(uint64_t seed, double seconds, bool trace, RunResult* r) {
  // Input making, untimed: embeddings, exclusion lists, held-out items,
  // the evaluator over them, and the exact reference lists and metrics.
  const ServeInputs in = MakeServeInputs(seed);
  const Evaluator evaluator(&in.dataset, {kTopK});
  const TopKMetrics exact_metrics =
      evaluator.EvaluateRetrieval(TopKScorer(in.item_emb), in.user_emb);
  ServeState s;
  s.users = &in.user_emb;
  s.exclude = &in.exclude;
  s.exact = ExactLists(in.item_emb, in.user_emb, in.exclude);
  s.order = ShuffledUsers(in.user_emb.rows(), seed);
  r->shape = std::to_string(in.user_emb.rows()) + " users x " +
             std::to_string(in.item_emb.rows()) + " items x " +
             std::to_string(in.item_emb.cols()) + " dims, " +
             std::to_string(in.dataset.train_edges.size()) + " exclusions";

  // Set-up: the index build, kIndexBuilds times.
  SpanRecorder off(seed);
  MipsIndex index;
  for (int rep = 0; rep < kIndexBuilds; ++rep) {
    ScopedSpan call(&off, "setup");
    index = MipsIndex::Build(in.item_emb);
    const Timing t = call.Stop();
    r->untraced.setups.push_back(t);
    r->untraced.Add("setup", t);
  }
  s.index = &index;

  Drive(seconds, trace, seed, r, [&](SpanRecorder* rec, Measurements* m) {
    TopKMetrics metrics;
    Timing vt;
    {
      ScopedSpan call(rec, "eval.EvaluateRetrieval");
      metrics = evaluator.EvaluateRetrieval(index, in.user_emb);
      vt = call.Stop();
    }
    m->Add("evaluate", vt);
    m->evaluate_calls.push_back(vt);
    m->evals.push_back(vt);
    r->outcome.Check(SameMetrics(metrics, exact_metrics),
                     "EvaluateRetrieval(MipsIndex) differs from the exact "
                     "TopKScorer metrics");
    m->loops.push_back(vt + ServePass(&s, kOnlineQueries, rec, &r->outcome, m));
    return metrics;
  });
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// `units` of work per second of each call, median over calls, on the CPU
/// clock or the wall clock.
double Rate(const std::vector<Timing>& calls, double units, bool cpu) {
  std::vector<double> rates;
  for (const Timing& t : calls) {
    rates.push_back(Ratio(units, cpu ? t.cpu_s : t.wall_s));
  }
  return Median(rates);
}

/// BPR triplets per CPU second of TrainEpoch (training), or queries per CPU
/// second of RetrieveBatch (serving).
double ThroughputPerCpuS(const Measurements& m) {
  return m.epoch_calls.empty()
             ? Rate(m.batches, static_cast<double>(m.batch_queries), true)
             : Rate(m.epoch_calls, static_cast<double>(m.triplets_per_epoch),
                    true);
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  const Measurements& m = r.untraced;
  return {
      {"setup_s", Median(CpuOf(m.setups)), "s"},
      {"loop_cpu_s", Median(CpuOf(m.loops)), "s"},
      {"throughput_per_cpu_s", ThroughputPerCpuS(m), "1/s"},
      {"eval_cpu_s_p50", Median(CpuOf(m.evals)), "s"},
      {"peak_rss_mb",
       static_cast<double>(graphaug::obs::PeakRssBytes()) / (1 << 20), "MiB"},
  };
}

std::vector<Metric> PerLayer(const RunResult& r) {
  const Measurements& m = r.traced;
  const double epochs = static_cast<double>(m.epoch_calls.size());
  const double per_epoch = epochs > 0 ? 1e-9 / epochs : 0;  // ns -> s/epoch
  const double epochs_wall = SumOf(WallOf(m.epoch_calls));
  const double epoch_s = Ratio(epochs_wall, epochs);
  const graphaug::ParallelStats par = graphaug::GetParallelStats();
  // The serving workload's set-up is its index builds, measured untraced
  // before the passes.
  const std::vector<Timing> builds =
      m.batches.empty() ? std::vector<Timing>{} : r.untraced.setups;
  std::vector<Metric> out = {
      {"data.load_s", Median(m.load_s), "s"},
      {"graph.build_s", Median(m.graph_s), "s"},
      {"models.construct_s", Median(m.construct_s), "s"},
      {"models.loop_wall_s",
       m.epoch_calls.empty() ? 0 : Median(WallOf(m.loops)), "s"},
      {"models.epoch_s", Median(WallOf(m.epoch_calls)), "s"},
      {"models.epoch_cpu_per_wall",
       Ratio(SumOf(CpuOf(m.epoch_calls)), epochs_wall),
       "ratio"},
      {"models.epoch_other_s",
       epochs > 0 ? epoch_s - (m.fwd_ns + m.bwd_ns) * per_epoch : 0, "s"},
      {"models.finalize_s", Median(m.finalize_s), "s"},
      {"augment.augment_s_per_epoch", m.augment_ns * per_epoch, "s"},
      {"augment.aux_loss_s_per_epoch", m.aux_ns * per_epoch, "s"},
      {"augment.epoch_share",
       Ratio((m.augment_ns + m.aux_ns) * 1e-9, epochs_wall), "fraction"},
      {"autograd.fwd_s_per_epoch", m.fwd_ns * per_epoch, "s"},
      {"autograd.bwd_s_per_epoch", m.bwd_ns * per_epoch, "s"},
  };
  for (const char* op : kTracedOps) {
    const auto it = m.op_ns.find(op);
    out.push_back({std::string("autograd.op.") + op + ".s_per_epoch",
                   it == m.op_ns.end() ? 0 : it->second * per_epoch, "s"});
  }
  const std::vector<Metric> rest = {
      {"tensor.allocs_per_epoch",
       epochs > 0 ? static_cast<double>(m.allocs) / epochs : 0, "count"},
      {"tensor.alloc_mb_per_epoch",
       epochs > 0 ? static_cast<double>(m.alloc_bytes) / (1 << 20) / epochs
                  : 0,
       "MiB"},
      {"tensor.peak_mb",
       static_cast<double>(graphaug::obs::PeakBytes()) / (1 << 20), "MiB"},
      {"parallel.pool_region_frac",
       Ratio(static_cast<double>(par.pool_regions),
             static_cast<double>(par.pool_regions + par.serial_regions)),
       "fraction"},
      {"parallel.utilization",
       Ratio(static_cast<double>(par.busy_ns),
             static_cast<double>(par.wall_ns) * graphaug::NumThreads()),
       "fraction"},
      {"eval.evaluate_s", Median(WallOf(m.evaluate_calls)), "s"},
      {"eval.recall20", r.recall20, "fraction"},
      {"eval.cpu_per_wall",
       Ratio(SumOf(CpuOf(m.evaluate_calls)), SumOf(WallOf(m.evaluate_calls))),
       "ratio"},
      {"retrieval.index_build_s", Median(WallOf(builds)), "s"},
      {"retrieval.build_cpu_per_wall",
       Ratio(SumOf(CpuOf(builds)), SumOf(WallOf(builds))), "ratio"},
      {"retrieval.items_scored_per_query",
       Ratio(static_cast<double>(m.scored), static_cast<double>(m.queries)),
       "count"},
      {"retrieval.pruned_frac",
       Ratio(static_cast<double>(m.pruned),
             static_cast<double>(m.scored + m.pruned)),
       "fraction"},
      {"retrieval.batch_cpu_per_wall",
       Ratio(SumOf(CpuOf(m.batches)), SumOf(WallOf(m.batches))),
       "ratio"},
      {"retrieval.batch_queries_per_s",
       Rate(m.batches, static_cast<double>(m.batch_queries), false), "1/s"},
      {"retrieval.query_us_p50", Percentile(m.query_us, 0.5), "us"},
      {"retrieval.query_us_p99", Median(m.pass_p99_us), "us"},
      {"trace.overhead_frac", r.overhead_frac, "fraction"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
         Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return s + "}";
}

std::string PhasesJson(const Measurements& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, t] : m.phases) {
    s += (first ? "" : ", ") + Quote(name) + ": {\"wall_s\": " +
         Num(t.wall_s) + ", \"cpu_s\": " + Num(t.cpu_s) + "}";
    first = false;
  }
  return s + "}";
}

/// Per-call samples behind the end-to-end medians, for the record file.
std::string SamplesJson(const Measurements& m) {
  std::string s = "{";
  auto add = [&s](const char* name, const std::vector<double>& v) {
    s += std::string(s.size() > 1 ? ", " : "") + Quote(name) + ": [";
    for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + Num(v[i]);
    s += "]";
  };
  const std::pair<const char*, const std::vector<Timing>*> timed[] = {
      {"setup", &m.setups}, {"loop", &m.loops},    {"eval", &m.evals},
      {"epoch", &m.epoch_calls}, {"batch", &m.batches}};
  for (const auto& [name, v] : timed) {
    add((std::string(name) + "_wall_s").c_str(), WallOf(*v));
    add((std::string(name) + "_cpu_s").c_str(), CpuOf(*v));
  }
  add("pass_p99_us", m.pass_p99_us);
  return s + "}";
}

int Main(int argc, char** argv) {
  graphaug::FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  const std::string data_dir = flags.GetString("data-dir", ".");
  if (flags.GetBool("prepare", false)) {
    return Prepare(workload, seed, data_dir);
  }
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string out_dir = flags.GetString("out-dir", ".");
  if (workload != "gib-gowalla" && workload != "lightgcn-large" &&
      workload != "serve-pruned") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  graphaug::SetNumThreads(static_cast<int>(std::min(4u, hw)));
  const std::string git_sha = graphaug::ProbeRuntimeEnv().git_sha;
  const std::string load_start = LoadAvg();
  const int64_t wall0 = WallNs();
  const int64_t cpu0 = CpuNs();

  RunResult r;
  if (workload == "serve-pruned") {
    RunServing(seed, seconds, trace, &r);
  } else {
    RunTraining(workload, seed, seconds, trace, data_dir, &r);
  }

  const std::string context =
      "{\"hardware_concurrency\": " + std::to_string(hw) +
      ", \"threads\": " + std::to_string(graphaug::NumThreads()) +
      ", \"git_sha\": " + Quote(git_sha) +
      ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
      ", \"simd\": " +
      Quote(graphaug::SimdLevelName(graphaug::ActiveSimdLevel())) +
      ", \"loadavg_start\": " + load_start + ", \"loadavg_end\": " +
      LoadAvg() + ", \"wall_s\": " +
      Num(static_cast<double>(WallNs() - wall0) * 1e-9) +
      ", \"cpu_s\": " + Num(static_cast<double>(CpuNs() - cpu0) * 1e-9) + "}";
  const std::vector<Metric> metrics = trace ? PerLayer(r) : EndToEnd(r);
  const Outcome& o = r.outcome;
  const bool correct = o.failed == 0 && o.attempted > 0;

  // Human-readable report, then the record file, then the result line.
  std::printf("workload %s seed %llu: %s\n", workload.c_str(),
              static_cast<unsigned long long>(seed), r.shape.c_str());
  std::printf("context %s\n", context.c_str());
  std::printf("%lld %s, %lld operations, %lld failed (failed_frac %s)\n",
              static_cast<long long>(r.steps),
              workload == "serve-pruned" ? "serving passes" : "trials",
              static_cast<long long>(o.attempted),
              static_cast<long long>(o.failed),
              Num(Ratio(static_cast<double>(o.failed),
                        static_cast<double>(o.attempted)))
                  .c_str());
  for (const std::string& p : o.problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }
  for (const Metric& mt : metrics) {
    std::printf("  %-40s %14s %s\n", mt.name.c_str(), Num(mt.value).c_str(),
                mt.unit.c_str());
  }
  if (trace) {
    std::printf("span totals (count, total s, self s):\n");
    for (const auto& [name, t] : r.span_totals) {
      std::printf("  %-40s %8lld %12.6f %12.6f\n", name.c_str(),
                  static_cast<long long>(t.count), t.total_s, t.self_s);
    }
  }
  const std::string record_path = out_dir + "/" + workload + "-seed" +
                                  std::to_string(seed) + "-trace" +
                                  (trace ? "1" : "0") + ".json";
  std::ofstream record(record_path);
  record << "{\"workload\": " << Quote(workload) << ", \"seed\": " << seed
         << ", \"shape\": " << Quote(r.shape) << ", \"context\": " << context
         << ",\n\"phases_untraced\": " << PhasesJson(r.untraced)
         << ",\n\"phases_traced\": " << PhasesJson(r.traced)
         << ",\n\"samples_untraced\": " << SamplesJson(r.untraced)
         << ",\n\"metrics\": " << MetricsJson(metrics)
         << ",\n\"trace\": " << r.spans_json << "}\n";
  if (!record.good()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", record_path.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(o.attempted),
              static_cast<long long>(o.failed), MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
