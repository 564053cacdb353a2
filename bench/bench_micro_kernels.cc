// Micro-benchmarks for the compute kernels underlying every experiment:
// dense GEMM, SpMM (plain and edge-weighted), the mixhop encoder forward
// pass, BPR triplet sampling, and full-ranking evaluation throughput.
// These back the complexity discussion in §III-D.2 of the paper (mixhop
// cost ≈ vanilla GNN cost).
//
// Two modes:
//   bench_micro_kernels                 # kernel scaling baseline: times
//       serial vs. parallel variants of each hot kernel at 1/2/4/N
//       threads, verifies bitwise determinism across thread counts, and
//       writes machine-readable BENCH_kernels.json for later PRs to
//       regress against. Flags: --json-out=FILE, --fast, --reps=N.
//   bench_micro_kernels --gbench ...    # the google-benchmark suite
//       (accepts the usual --benchmark_* flags).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "bench/bench_common.h"
#include "common/cpu_features.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/mixhop_encoder.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/propagation.h"
#include "obs/memory.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "tensor/init.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

const SyntheticData& BenchData() {
  static const SyntheticData* data =
      new SyntheticData(GeneratePreset("gowalla-sim"));
  return *data;
}

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Matrix a(n, n), b(n, n), out;
  InitNormal(&a, &rng);
  InitNormal(&b, &rng);
  for (auto _ : state) {
    Gemm(a, false, b, false, 1.f, 0.f, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Spmm(benchmark::State& state) {
  const int64_t d = state.range(0);
  BipartiteGraph g = BenchData().dataset.TrainGraph();
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Rng rng(2);
  Matrix h(g.num_nodes(), d), out;
  InitNormal(&h, &rng);
  for (auto _ : state) {
    adj.matrix.Spmm(h, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.matrix.nnz() * d);
}
BENCHMARK(BM_Spmm)->Arg(16)->Arg(32)->Arg(64);

void BM_EdgeWeightedSpmm(benchmark::State& state) {
  const int64_t d = state.range(0);
  BipartiteGraph g = BenchData().dataset.TrainGraph();
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Rng rng(3);
  Matrix h(g.num_nodes(), d);
  InitNormal(&h, &rng);
  Matrix w(g.num_edges(), 1, 0.8f);
  for (auto _ : state) {
    Tape tape;
    Var out = ag::EdgeWeightedSpmm(&adj, ag::Constant(&tape, w),
                                   ag::Constant(&tape, h));
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(state.iterations() * adj.matrix.nnz() * d);
}
BENCHMARK(BM_EdgeWeightedSpmm)->Arg(16)->Arg(32);

void BM_MixhopForward(benchmark::State& state) {
  // §III-D.2: mixhop forward cost vs the vanilla propagation below.
  const int64_t d = 32;
  BipartiteGraph g = BenchData().dataset.TrainGraph();
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Rng rng(4);
  ParamStore store;
  MixhopEncoder enc(&store, "mix", d, 2, {0, 1, 2}, 0.5f, &rng);
  Parameter* base = store.CreateNormal("emb", g.num_nodes(), d, &rng);
  for (auto _ : state) {
    Tape tape;
    Var out = enc.Encode(&tape, &adj.matrix, ag::Leaf(&tape, base));
    benchmark::DoNotOptimize(out.value().data());
  }
}
BENCHMARK(BM_MixhopForward);

void BM_LightGcnForward(benchmark::State& state) {
  const int64_t d = 32;
  BipartiteGraph g = BenchData().dataset.TrainGraph();
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(0.f);
  Rng rng(5);
  ParamStore store;
  Parameter* base = store.CreateNormal("emb", g.num_nodes(), d, &rng);
  for (auto _ : state) {
    Tape tape;
    Var out =
        LightGcnPropagate(&tape, &adj.matrix, ag::Leaf(&tape, base), 2);
    benchmark::DoNotOptimize(out.value().data());
  }
}
BENCHMARK(BM_LightGcnForward);

void BM_TripletSampling(benchmark::State& state) {
  BipartiteGraph g = BenchData().dataset.TrainGraph();
  TripletSampler sampler(&g);
  Rng rng(6);
  for (auto _ : state) {
    TripletBatch b = sampler.Sample(2048, &rng);
    benchmark::DoNotOptimize(b.users.data());
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_TripletSampling);

void BM_NormalizedAdjacencyBuild(benchmark::State& state) {
  BipartiteGraph g = BenchData().dataset.TrainGraph();
  for (auto _ : state) {
    NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
    benchmark::DoNotOptimize(adj.matrix.nnz());
  }
}
BENCHMARK(BM_NormalizedAdjacencyBuild);

// ------------------------------------------------------------------------
// Kernel scaling baseline (BENCH_kernels.json)

/// One timed kernel: Run() executes the operation once and returns a
/// checksum of the output so determinism across thread counts can be
/// asserted (bitwise on the accumulated bytes of the result).
struct KernelCase {
  std::string name;
  std::string shape;
  double work = 0;  ///< approximate flops (or scored entries) per run
  std::function<Matrix()> run;
  /// When non-empty, a "notes" field is emitted after the runs array:
  /// the implied Amdahl serial fraction computed from the measured
  /// timings, followed by this attribution text (plain ASCII, no quotes).
  std::string attribution;
  /// Approximate bytes streamed per run (reads + writes). When > 0 each
  /// run additionally records "gbps" — the honest throughput axis for the
  /// bandwidth-bound sparse kernels, where GFLOP/s undersells saturation.
  double bytes = 0;
  /// Pins this case to the scalar dispatch table, giving every SIMD
  /// kernel a same-binary scalar reference row in the JSON.
  bool force_scalar = false;
};

/// Yelp-scale synthetic adjacency (the paper's largest benchmark: ~42.7K
/// users, ~26.8K items, ~182K interactions) built from a uniform random
/// pattern — kernel cost depends only on the pattern shape.
BipartiteGraph YelpScaleGraph() {
  constexpr int32_t kUsers = 42712, kItems = 26822;
  constexpr int64_t kEdges = 182357;
  Rng rng(99);
  std::vector<Edge> edges;
  edges.reserve(kEdges);
  for (int64_t i = 0; i < kEdges; ++i) {
    edges.push_back({static_cast<int32_t>(rng.UniformInt(uint64_t{kUsers})),
                     static_cast<int32_t>(rng.UniformInt(uint64_t{kItems}))});
  }
  return BipartiteGraph(kUsers, kItems, std::move(edges));
}

std::vector<KernelCase> BuildKernelCases(bool fast) {
  std::vector<KernelCase> cases;

  // Dense GEMM at GIB-augmenter scale: (2048 x 128) * (128 x 2048).
  {
    const int64_t m = fast ? 512 : 2048, k = 128, n = fast ? 512 : 2048;
    auto a = std::make_shared<Matrix>(m, k);
    auto b = std::make_shared<Matrix>(k, n);
    Rng rng(1);
    InitNormal(a.get(), &rng);
    InitNormal(b.get(), &rng);
    cases.push_back(
        {"gemm_nn", std::to_string(m) + "x" + std::to_string(k) + "x" +
                        std::to_string(n),
         2.0 * static_cast<double>(m) * k * n,
         [a, b] {
           Matrix out;
           Gemm(*a, false, *b, false, 1.f, 0.f, &out);
           return out;
         },
         ""});
    KernelCase scalar_twin = cases.back();
    scalar_twin.name = "gemm_nn_scalar";
    scalar_twin.force_scalar = true;
    cases.push_back(std::move(scalar_twin));
  }

  // SpMM over the Yelp-scale normalized adjacency, d = 64. The adjacency
  // is its own transpose, so SpmmT on it is this same product.
  {
    auto g = std::make_shared<BipartiteGraph>(
        fast ? BipartiteGraph(4000, 2500, [] {
          Rng rng(98);
          std::vector<Edge> es;
          for (int i = 0; i < 20000; ++i) {
            es.push_back({static_cast<int32_t>(rng.UniformInt(uint64_t{4000})),
                          static_cast<int32_t>(rng.UniformInt(uint64_t{2500}))});
          }
          return es;
        }())
             : YelpScaleGraph());
    auto adj = std::make_shared<NormalizedAdjacency>(
        g->BuildNormalizedAdjacency(1.f));
    const int64_t d = 64;
    auto h = std::make_shared<Matrix>(g->num_nodes(), d);
    Rng rng(2);
    InitNormal(h.get(), &rng);
    const std::string shape = std::to_string(adj->matrix.nnz()) + "nnz_x" +
                              std::to_string(d);
    const double work = 2.0 * static_cast<double>(adj->matrix.nnz()) * d;
    // Streamed-byte model shared by every sparse case: per nonzero one
    // value + one index (8B) plus a d-wide dense-row gather, and a
    // read-modify-write of every output row.
    const double sparse_bytes =
        static_cast<double>(adj->matrix.nnz()) * (8.0 + 4.0 * d) +
        8.0 * static_cast<double>(adj->matrix.rows()) * d;
    cases.push_back({"spmm", shape, work,
                     [adj, h] {
                       Matrix out;
                       adj->matrix.Spmm(*h, &out);
                       return out;
                     },
                     "", sparse_bytes});
    {
      KernelCase scalar_twin = cases.back();
      scalar_twin.name = "spmm_scalar";
      scalar_twin.force_scalar = true;
      cases.push_back(std::move(scalar_twin));
    }
    // Edge-weighted SpMM forward + backward (the GraphAug training step's
    // differentiable propagation), d = 32.
    const int64_t dw = 32;
    auto hw = std::make_shared<Matrix>(g->num_nodes(), dw);
    InitNormal(hw.get(), &rng);
    auto store = std::make_shared<ParamStore>();
    Parameter* wp = store->Create("w", g->num_edges(), 1);
    wp->value.Fill(0.8f);
    Parameter* hp = store->Create("h", g->num_nodes(), dw);
    hp->value = *hw;
    cases.push_back(
        {"edge_weighted_spmm_fwd_bwd",
         std::to_string(adj->matrix.nnz()) + "nnz_x" + std::to_string(dw),
         6.0 * static_cast<double>(adj->matrix.nnz()) * dw,
         [adj, store, wp, hp] {
           wp->ZeroGrad();
           hp->ZeroGrad();
           Tape tape;
           Var y = ag::EdgeWeightedSpmm(adj.get(), ag::Leaf(&tape, wp),
                                        ag::Leaf(&tape, hp));
           tape.Backward(ag::MeanAll(ag::Square(y)));
           Matrix out(1, 2);
           out[0] = static_cast<float>(SumAll(wp->grad));
           out[1] = static_cast<float>(SumAll(hp->grad));
           return out;
         },
         ""});
  }

  // Large elementwise op (8M elements).
  {
    const int64_t n = fast ? 1 << 20 : 1 << 23;
    auto a = std::make_shared<Matrix>(n, 1);
    auto b = std::make_shared<Matrix>(n, 1);
    Rng rng(3);
    InitNormal(a.get(), &rng);
    InitNormal(b.get(), &rng);
    cases.push_back({"elementwise_add", std::to_string(n),
                     static_cast<double>(n),
                     [a, b] { return Add(*a, *b); }, "",
                     12.0 * static_cast<double>(n)});
  }

  // Full-ranking evaluation: score + mask + top-K + metrics over every
  // evaluable user of a mid-sized synthetic dataset.
  {
    SyntheticConfig cfg;
    cfg.num_users = fast ? 800 : 3000;
    cfg.num_items = fast ? 600 : 1500;
    cfg.mean_user_degree = 16.0;
    cfg.seed = 21;
    auto data = std::make_shared<SyntheticData>(GenerateSynthetic(cfg));
    auto evaluator = std::make_shared<Evaluator>(&data->dataset,
                                                 std::vector<int>{20, 40});
    const int64_t d = 32;
    auto ue = std::make_shared<Matrix>(data->dataset.num_users, d);
    auto ie = std::make_shared<Matrix>(data->dataset.num_items, d);
    Rng rng(4);
    InitNormal(ue.get(), &rng);
    InitNormal(ie.get(), &rng);
    const double work = 2.0 * static_cast<double>(data->dataset.num_users) *
                        data->dataset.num_items * d;
    cases.push_back(
        {"eval_full_ranking",
         std::to_string(data->dataset.num_users) + "users_x" +
             std::to_string(data->dataset.num_items) + "items",
         work, [data, evaluator, ue, ie] {  // data keeps the Dataset alive
           const TopKMetrics m = evaluator->Evaluate(
               [&](const std::vector<int32_t>& users) {
                 Matrix batch = GatherRows(*ue, users);
                 Matrix scores;
                 Gemm(batch, false, *ie, true, 1.f, 0.f, &scores);
                 return scores;
               });
           Matrix out(1, 2);
           out[0] = static_cast<float>(m.recall[0]);
           out[1] = static_cast<float>(m.ndcg[1]);
           return out;
         },
         ""});
  }
  return cases;
}

int RunKernelBaseline(const FlagParser& flags) {
  const std::string json_path =
      flags.GetString("json-out", "BENCH_kernels.json");
  const bool fast = flags.GetBool("fast", false);
  const int reps = flags.GetInt32("reps", 3);
  // --profile-out=B samples every kernel case (all threads) into
  // B.folded / B.json — the flamegraph answers "which loop inside gemm_nn
  // ate the time", which the per-case wall numbers cannot.
  const std::string profile_out = flags.GetString("profile-out", "");
  if (!profile_out.empty() &&
      !obs::StartProfiler(
          flags.GetInt32("profile-hz", obs::kDefaultProfileHz))) {
    std::fprintf(stderr,
                 "warning: sampling profiler unavailable; %s.folded will be "
                 "empty\n",
                 profile_out.c_str());
  }

  // Thread counts: 1, 2, 4, and hardware concurrency when it adds a new
  // point. (On narrow machines the higher counts still run — the runtime
  // oversubscribes — so the determinism check always covers them.)
  SetNumThreads(0);
  const int hw = NumThreads();
  std::vector<int> counts = {1, 2, 4};
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());

  // Open the output before the (expensive) input construction so an
  // unwritable path fails immediately.
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::vector<KernelCase> cases = BuildKernelCases(fast);
  const bench::BenchEnv env = bench::GetBenchEnv();
  // Probe perf_event_open once up front so the header can record whether
  // the IPC / cache-miss columns below are populated or skipped (CI
  // containers commonly deny perf).
  obs::PerfCounterGroup perf;
  if (perf.Begin()) perf.End();
  std::fprintf(f, "{\n  \"generated_by\": \"bench_micro_kernels\",\n");
  std::fprintf(f, "  \"fast_mode\": %s,\n", fast ? "true" : "false");
  std::fprintf(f, "  \"perf_counters\": \"%s\",\n",
               obs::PerfCountersAvailable() ? "available" : "unavailable");
  // hardware_concurrency is the machine's real core count; threads_resolved
  // is the pool width the sweep actually used (GRAPHAUG_NUM_THREADS can
  // narrow it, which used to masquerade as the hardware value here).
  std::fprintf(f, "%s", bench::BenchEnvJsonFields(env, 2).c_str());
  std::fprintf(f, "  \"simd_level\": \"%s\",\n",
               SimdLevelName(ActiveSimdLevel()));
  std::fprintf(f, "  \"threads_resolved\": %d,\n  \"kernels\": [\n", hw);

  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const KernelCase& kc = cases[ci];
    // Pin the dispatch mode for the whole case (warmup + timed reps), then
    // fall back to the probe default for the next one.
    ForceScalarKernels(kc.force_scalar);
    const char* simd_name = simd::ActiveKernels().name;
    std::fprintf(stderr, "[%zu/%zu] %s (%s, %s)\n", ci + 1, cases.size(),
                 kc.name.c_str(), kc.shape.c_str(), simd_name);
    Matrix reference;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"work\": %.6g, "
                 "\"simd\": \"%s\",\n"
                 "     \"runs\": [\n",
                 kc.name.c_str(), kc.shape.c_str(), kc.work, simd_name);
    // Warmup pass per thread count: populates lazy caches and records the
    // outputs for the determinism check. Timed reps are then interleaved
    // across thread counts (rep 0 at every width, then rep 1, ...) so
    // slow machine-wide drift — frequency scaling, page-cache state —
    // biases every width equally instead of penalizing whichever count
    // happens to run last.
    obs::ResetPeakBytes();  // per-case tensor high-water mark
    std::vector<bool> bitwise_ok(counts.size(), true);
    for (size_t ti = 0; ti < counts.size(); ++ti) {
      SetNumThreads(counts[ti]);
      Matrix out = kc.run();
      if (ti == 0) {
        reference = out;
      } else {
        bitwise_ok[ti] =
            reference.SameShape(out) &&
            std::memcmp(reference.data(), out.data(),
                        sizeof(float) * static_cast<size_t>(out.size())) == 0;
      }
    }
    // Counter group around the serial reps only: group reads cover the
    // calling thread, so IPC / miss rates are meaningful exactly at
    // threads=1 (pool workers would go uncounted at higher widths).
    std::vector<double> best_seconds(counts.size(), 1e300);
    obs::PerfCounts best_counts;
    for (int r = 0; r < reps; ++r) {
      for (size_t ti = 0; ti < counts.size(); ++ti) {
        SetNumThreads(counts[ti]);
        const bool counting = counts[ti] == 1 && perf.Begin();
        Stopwatch sw;
        Matrix out = kc.run();
        const double seconds = sw.ElapsedSeconds();
        obs::PerfCounts pc;
        if (counting) pc = perf.End();
        if (seconds < best_seconds[ti]) {
          best_seconds[ti] = seconds;
          if (counts[ti] == 1) best_counts = pc;
        }
      }
    }
    const double serial_seconds = best_seconds[0];
    for (size_t ti = 0; ti < counts.size(); ++ti) {
      const double gflops = kc.work / best_seconds[ti] / 1e9;
      std::string gbps;
      if (kc.bytes > 0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ", \"gbps\": %.4g",
                      kc.bytes / best_seconds[ti] / 1e9);
        gbps = buf;
      }
      std::string perf_cols;
      if (counts[ti] == 1 && best_counts.valid) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ", \"ipc\": %.3f, \"cache_miss_rate\": %.4f",
                      best_counts.Ipc(), best_counts.CacheMissRate());
        perf_cols = buf;
      }
      std::fprintf(
          f,
          "      {\"threads\": %d, \"seconds\": %.6g, \"speedup_vs_1\": "
          "%.4g, \"gflops\": %.4g%s%s, \"bitwise_equal_to_serial\": %s}%s\n",
          counts[ti], best_seconds[ti], serial_seconds / best_seconds[ti],
          gflops, gbps.c_str(), perf_cols.c_str(),
          bitwise_ok[ti] ? "true" : "false",
          ti + 1 < counts.size() ? "," : "");
      std::fprintf(stderr,
                   "    threads=%d  %.4fs  speedup=%.2fx  %.2f GFLOP/s  %s\n",
                   counts[ti], best_seconds[ti],
                   serial_seconds / best_seconds[ti], gflops,
                   bitwise_ok[ti] ? "bitwise-ok" : "MISMATCH");
      if (!bitwise_ok[ti]) {
        std::fclose(f);
        std::fprintf(stderr, "determinism violation in %s\n", kc.name.c_str());
        return 1;
      }
    }
    std::fprintf(f, "    ]");
    // Tensor high-water mark across the case's warmup + reps (0 under
    // GRAPHAUG_NO_OBS, where the accounting hooks compile away).
    std::fprintf(f, ",\n     \"peak_mem_mb\": %.2f",
                 static_cast<double>(obs::PeakBytes()) / (1024.0 * 1024.0));
    if (!kc.attribution.empty()) {
      // Implied Amdahl serial fraction from the measured timings:
      //   s(p) = (T_p/T_1 - 1/p) / (1 - 1/p)
      // solved from T_p = T_1 * (s + (1 - s)/p) at each thread count.
      std::string fractions;
      for (size_t ti = 1; ti < counts.size(); ++ti) {
        const double p = counts[ti];
        const double s =
            (best_seconds[ti] / serial_seconds - 1.0 / p) / (1.0 - 1.0 / p);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%ss(%d)=%.2f",
                      ti > 1 ? ", " : "", counts[ti], s);
        fractions += buf;
      }
      std::fprintf(f,
                   ",\n     \"notes\": \"implied Amdahl serial fraction "
                   "s(p) = (T_p/T_1 - 1/p) / (1 - 1/p): %s. %s\"",
                   fractions.c_str(), kc.attribution.c_str());
    }
    std::fprintf(f, "}%s\n", ci + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  ForceScalarKernels(false);
  SetNumThreads(0);
  if (!profile_out.empty()) {
    obs::StopProfiler();
    const std::string folded = profile_out + ".folded";
    const std::string json = profile_out + ".json";
    if (obs::WriteProfileFolded(folded) && obs::WriteProfileJson(json)) {
      const obs::ProfileSummary prof = obs::SummarizeProfile();
      std::fprintf(stderr,
                   "profile written to %s / %s (%lld samples, %.1f%% "
                   "attributed)\n",
                   folded.c_str(), json.c_str(),
                   static_cast<long long>(prof.samples),
                   100.0 * prof.attributed_frac);
    } else {
      std::fprintf(stderr, "cannot write profile %s\n", profile_out.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace graphaug

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);  // strips --benchmark_* flags
  graphaug::FlagParser flags(argc, argv);
  if (flags.Has("threads")) {
    graphaug::SetNumThreads(flags.GetInt32("threads", 0));
  }
  if (flags.GetBool("gbench", false)) {
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
  }
  return graphaug::RunKernelBaseline(flags);
}
