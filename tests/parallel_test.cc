// Tests for the shared parallel runtime (common/parallel.h) and the
// determinism contract of every parallelized kernel: the fork-join team
// (measured dispatch, static chunk walk, inline nested and concurrent
// dispatch, resize, worker hooks), static chunking coverage, and exact
// bitwise equality of serial vs. parallel Gemm / Spmm / SpmmT /
// EdgeWeightedSpmm / FillNormal / evaluator outputs at 1, 2, and 7 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "common/parallel.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "obs/obs.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

/// Every determinism test runs the kernel at these widths; 7 is prime,
/// above the team's core-count width cap on narrow hosts, and larger than
/// the chunk count of some kernels, exercising regions that wake fewer
/// workers than the team has.
const int kThreadCounts[] = {1, 2, 7};

/// Restores automatic thread-count resolution when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      sizeof(float) * static_cast<size_t>(a.size())) == 0);
}

/// Random bipartite graph (not the latent-factor generator — this is the
/// kernel substrate, structure does not matter, only the pattern shape).
BipartiteGraph RandomGraph(int32_t users, int32_t items, int64_t edges,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> es;
  es.reserve(edges);
  for (int64_t i = 0; i < edges; ++i) {
    es.push_back({static_cast<int32_t>(rng.UniformInt(users)),
                  static_cast<int32_t>(rng.UniformInt(items))});
  }
  return BipartiteGraph(users, items, std::move(es));
}

// -------------------------------------------------------- fork-join team

/// Spins until `arrived` reaches `n` (each caller adds one first), so `n`
/// chunks of one region are forced onto `n` distinct threads. Returns
/// false after a generous deadline instead of hanging the suite.
bool ArriveAndWait(std::atomic<int>* arrived, int n) {
  arrived->fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (arrived->load() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Makes the chunk that calls it cost 5 ms of wall time, ten times the
/// runtime's 500 us break-even. Put in chunk 0 (which the dispatcher runs
/// and times), it sends a region of three or more chunks to the team.
void SpendPastBreakEven() {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

TEST(ParallelTeamTest, RegionBelowBreakEvenRunsInlineInChunkOrder) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  const ParallelStats before = GetParallelStats();
  // Four near-empty chunks: chunk 0's time x 3 is far below the
  // break-even, so the caller walks chunks 1..3 itself, in order.
  std::atomic<int> next{0};
  int64_t order[4] = {-1, -1, -1, -1};
  std::thread::id ran_on[4];
  ParallelFor(0, 4, 1, [&](int64_t b, int64_t) {
    const int slot = next.fetch_add(1);
    order[slot] = b;
    ran_on[slot] = std::this_thread::get_id();
  });
  const ParallelStats after = GetParallelStats();
  ASSERT_EQ(next.load(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], caller);
  }
  EXPECT_EQ(after.serial_regions - before.serial_regions, 1);
  EXPECT_EQ(after.declined_regions - before.declined_regions, 1);
  EXPECT_EQ(after.pool_regions, before.pool_regions);
}

TEST(ParallelTeamTest, RegionAboveBreakEvenReachesAWorker) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  const std::thread::id dispatcher = std::this_thread::get_id();
  const ParallelStats before = GetParallelStats();
  std::atomic<int> arrived{0};
  std::atomic<bool> met{true};
  std::thread::id ran_on[3];
  ParallelFor(0, 3, 1, [&](int64_t b, int64_t) {
    // Chunk 0 is costly, so chunks 1 and 2 go to the team; they wait for
    // each other, so one of them runs on a worker.
    if (b == 0) {
      SpendPastBreakEven();
    } else if (!ArriveAndWait(&arrived, 2)) {
      met = false;
    }
    ran_on[b] = std::this_thread::get_id();
  });
  const ParallelStats after = GetParallelStats();
  ASSERT_TRUE(met.load());
  EXPECT_EQ(ran_on[0], dispatcher);
  EXPECT_NE(ran_on[1], ran_on[2]);
  EXPECT_TRUE(ran_on[1] != dispatcher || ran_on[2] != dispatcher);
  EXPECT_EQ(after.pool_regions - before.pool_regions, 1);
  EXPECT_EQ(after.pool_chunks - before.pool_chunks, 2);
  EXPECT_EQ(after.serial_regions, before.serial_regions);
  EXPECT_EQ(after.declined_regions, before.declined_regions);
}

TEST(ParallelTeamTest, StaticChunkWalkAtWidthFour) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  // grain 10 over [3, 47) must yield exactly these chunks, each once,
  // whichever team thread claims them.
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelFor(3, 47, 10, [&](int64_t b, int64_t e) {
    if (b == 3) SpendPastBreakEven();
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({b, e});
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {3, 13}, {13, 23}, {23, 33}, {33, 43}, {43, 47}};
  EXPECT_EQ(chunks, want);
}

TEST(ParallelTeamTest, NestedRegionRunsInlineOnWorkerAndDispatcher) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  const std::thread::id dispatcher = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<bool> met{true};
  std::thread::id outer_thread[3];
  std::vector<int64_t> inner_order[3];
  std::vector<std::thread::id> inner_thread[3];
  ParallelFor(0, 3, 1, [&](int64_t b, int64_t) {
    // Chunk 0 runs on the dispatcher and is costly, so chunks 1 and 2 go
    // to the team. They wait for each other, so one runs on the
    // dispatcher and the other on a worker.
    if (b == 0) {
      SpendPastBreakEven();
    } else if (!ArriveAndWait(&arrived, 2)) {
      met = false;
    }
    outer_thread[b] = std::this_thread::get_id();
    ParallelFor(0, 6, 1, [&](int64_t ib, int64_t) {
      inner_order[b].push_back(ib);
      inner_thread[b].push_back(std::this_thread::get_id());
    });
  });
  ASSERT_TRUE(met.load());
  EXPECT_EQ(outer_thread[0], dispatcher);
  EXPECT_NE(outer_thread[1], outer_thread[2]);
  EXPECT_TRUE(outer_thread[1] == dispatcher || outer_thread[2] == dispatcher);
  for (int b = 0; b < 3; ++b) {
    // Inline means: every inner chunk on the outer chunk's thread, in
    // chunk order.
    EXPECT_EQ(inner_order[b], (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
    for (const std::thread::id& id : inner_thread[b]) {
      EXPECT_EQ(id, outer_thread[b]);
    }
  }
}

TEST(ParallelTeamTest, ResizeBetweenRegionsCoversEveryIndexOnce) {
  ThreadCountGuard guard;
  for (int t : {4, 2, 7, 1}) {
    SetNumThreads(t);
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
      if (b == 0) SpendPastBreakEven();
      for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "threads=" << t;
  }
}

TEST(ParallelTeamTest, SecondThreadRegionWhileTeamBusyIsBitwiseEqual) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  Rng rng(19);
  Matrix a(193, 67), b(67, 141);
  InitNormal(&a, &rng);
  InitNormal(&b, &rng);
  Matrix ref;
  Gemm(a, false, b, false, 1.f, 0.f, &ref);

  // Chunk 0 is costly, so chunks 1..3 go to the team. The second thread
  // dispatches from inside chunk 1, while the team is held: its Gemm and
  // a region costly enough for the team both run inline with the same
  // chunks.
  const ParallelStats before = GetParallelStats();
  Matrix concurrent;
  std::vector<int64_t> second_order;
  std::vector<std::thread::id> second_ran_on;
  std::thread::id second_id;
  ParallelFor(0, 4, 1, [&](int64_t c, int64_t) {
    if (c == 0) SpendPastBreakEven();
    if (c != 1) return;
    std::thread second([&] {
      second_id = std::this_thread::get_id();
      Gemm(a, false, b, false, 1.f, 0.f, &concurrent);
      ParallelFor(0, 3, 1, [&](int64_t ib, int64_t) {
        if (ib == 0) SpendPastBreakEven();
        second_order.push_back(ib);
        second_ran_on.push_back(std::this_thread::get_id());
      });
    });
    second.join();
  });
  const ParallelStats after = GetParallelStats();
  EXPECT_TRUE(BitwiseEqual(ref, concurrent));
  EXPECT_GT(after.serial_regions, before.serial_regions);
  EXPECT_EQ(after.pool_regions - before.pool_regions, 1);
  EXPECT_EQ(second_order, (std::vector<int64_t>{0, 1, 2}));
  for (const std::thread::id& id : second_ran_on) EXPECT_EQ(id, second_id);
}

std::mutex g_hook_mu;
std::vector<std::thread::id> g_hook_starts;
std::vector<std::thread::id> g_hook_exits;

void RecordWorkerStart() {
  std::lock_guard<std::mutex> lock(g_hook_mu);
  g_hook_starts.push_back(std::this_thread::get_id());
}

void RecordWorkerExit() {
  std::lock_guard<std::mutex> lock(g_hook_mu);
  g_hook_exits.push_back(std::this_thread::get_id());
}

TEST(ParallelTeamTest, WorkerHooksFireOncePerWorkerAcrossResize) {
  ThreadCountGuard guard;
  SetNumThreads(1);  // tear down any team built under the default hooks
  g_hook_starts.clear();
  g_hook_exits.clear();
  SetWorkerThreadHooks(&RecordWorkerStart, &RecordWorkerExit);
  auto run_region = [] {
    std::atomic<int> sum{0};
    ParallelFor(0, 64, 1, [&](int64_t, int64_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 64);
  };
  SetNumThreads(4);
  run_region();
  SetNumThreads(2);  // resize: joins the first team's workers
  run_region();
  SetNumThreads(1);  // joins the second team's workers
  SetWorkerThreadHooks(nullptr, nullptr);

  // A team at --threads=t has min(t, max(2, cores)) - 1 workers; the
  // 4 -> 2 resize rebuilds it only when those widths differ. Each worker
  // starts and exits once on its own thread (ids of joined threads may
  // be reused, so the id lists are compared as multisets).
  const int cap = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  const int width4 = std::min(4, cap);
  const int width2 = std::min(2, cap);
  const size_t want = static_cast<size_t>(
      (width4 - 1) + (width4 != width2 ? width2 - 1 : 0));
  std::vector<std::thread::id> starts = g_hook_starts;
  std::vector<std::thread::id> exits = g_hook_exits;
  std::sort(starts.begin(), starts.end());
  std::sort(exits.begin(), exits.end());
  EXPECT_EQ(starts.size(), want);
  EXPECT_EQ(starts, exits);
}

// --------------------------------------------------------- runtime basics

TEST(ParallelRuntimeTest, ThreadCountResolutionOrder) {
  ThreadCountGuard guard;
  SetNumThreads(5);
  EXPECT_EQ(NumThreads(), 5);
  SetNumThreads(0);  // back to env / hardware resolution
  EXPECT_GE(NumThreads(), 1);
}

TEST(ParallelRuntimeTest, ParallelForCoversEveryIndexOnce) {
  ThreadCountGuard guard;
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
      if (b == 0) SpendPastBreakEven();
      for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ParallelRuntimeTest, ParallelReduceIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  std::vector<double> vals(100000);
  Rng rng(3);
  for (double& v : vals) v = rng.Gaussian() * 1e-3;
  std::vector<double> results;
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    results.push_back(ParallelReduce(0, static_cast<int64_t>(vals.size()), 997,
                                     [&](int64_t b, int64_t e) {
                                       double s = 0;
                                       for (int64_t i = b; i < e; ++i) {
                                         s += vals[static_cast<size_t>(i)];
                                       }
                                       return s;
                                     }));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]);  // bitwise: deterministic merge order
  }
}

// ------------------------------------------------- kernel bitwise equality

TEST(ParallelKernelsTest, GemmBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(11);
  // Tall enough that every transpose combination spans several chunks,
  // and large enough that the team takes them.
  Matrix a(389, 131), b(131, 517), at(131, 389), bt(517, 131);
  InitNormal(&a, &rng);
  InitNormal(&b, &rng);
  InitNormal(&at, &rng);
  InitNormal(&bt, &rng);
  struct Case {
    const Matrix *a, *b;
    bool ta, tb;
  };
  const Case cases[] = {
      {&a, &b, false, false},
      {&at, &b, true, false},
      {&a, &bt, false, true},
      {&at, &bt, true, true},
  };
  for (const Case& c : cases) {
    SetNumThreads(1);
    Matrix ref;
    Gemm(*c.a, c.ta, *c.b, c.tb, 1.3f, 0.f, &ref);
    for (int t : kThreadCounts) {
      SetNumThreads(t);
      Matrix out;
      Gemm(*c.a, c.ta, *c.b, c.tb, 1.3f, 0.f, &out);
      EXPECT_TRUE(BitwiseEqual(ref, out))
          << "ta=" << c.ta << " tb=" << c.tb << " threads=" << t;
    }
  }
}

TEST(ParallelKernelsTest, SpmmAndSpmmTBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  BipartiteGraph g = RandomGraph(2579, 1811, 60000, 5);
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Rng rng(6);
  Matrix h(g.num_nodes(), 24);
  InitNormal(&h, &rng);

  SetNumThreads(1);
  Matrix ref_fwd, ref_bwd;
  adj.matrix.Spmm(h, &ref_fwd);
  adj.matrix.SpmmT(h, &ref_bwd);
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    Matrix fwd, bwd;
    adj.matrix.Spmm(h, &fwd);
    adj.matrix.SpmmT(h, &bwd);
    EXPECT_TRUE(BitwiseEqual(ref_fwd, fwd)) << "threads=" << t;
    EXPECT_TRUE(BitwiseEqual(ref_bwd, bwd)) << "threads=" << t;
  }
  // Independent bitwise reference for the transposed product: a scalar
  // scatter over the original rows accumulates each output row in
  // ascending original-row order, the order SpmmT keeps.
  const CsrMatrix& a = adj.matrix;
  Matrix scatter(a.cols(), h.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      for (int64_t c = 0; c < h.cols(); ++c) {
        scatter.at(a.col_idx()[k], c) += a.values()[k] * h.at(r, c);
      }
    }
  }
  EXPECT_TRUE(BitwiseEqual(ref_bwd, scatter));

  // Cross-check against the explicit transposed matrix product (same
  // math, independent code path).
  Matrix via_transpose;
  adj.matrix.Transpose().Spmm(h, &via_transpose);
  EXPECT_TRUE(AllClose(ref_bwd, via_transpose, 1e-5f, 1e-6f));

}

TEST(ParallelScopeTest, WorkerChunkAllocationsChargeToDispatchingOp) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  ThreadCountGuard guard;
  SetNumThreads(4);
  obs::ResetAll();
  obs::SetEnabled(true);  // obs on, no profiler session
  constexpr int64_t kChunks = 64;
  {
    GA_AG_OP("ParallelTestAllocOp", 0, 0);
    // A costly chunk 0 sends chunks 1..63 to the workers.
    ParallelFor(0, kChunks, 1, [](int64_t b, int64_t e) {
      if (b == 0) SpendPastBreakEven();
      for (int64_t i = b; i < e; ++i) {
        Matrix m(8, 8);
        ASSERT_NE(m.data(), nullptr);
      }
    });
  }
  obs::SetEnabled(false);
  const auto tags = obs::MemoryTagSnapshot();
  obs::ResetAll();
  ASSERT_TRUE(tags.count("ParallelTestAllocOp"));
  EXPECT_EQ(tags.at("ParallelTestAllocOp").count, kChunks);
  EXPECT_EQ(tags.count("(untagged)"), 0u);
}

TEST(ParallelKernelsTest, EdgeWeightedSpmmBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  BipartiteGraph g = RandomGraph(97, 83, 1200, 7);
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Rng rng(8);
  Matrix h(g.num_nodes(), 12), w(g.num_edges(), 1);
  InitNormal(&h, &rng);
  for (int64_t i = 0; i < w.size(); ++i) w[i] = 0.5f + 0.1f * (i % 7);

  auto run = [&](Matrix* out, Matrix* gw, Matrix* gh) {
    ParamStore store;
    Parameter* wp = store.Create("w", w.rows(), 1);
    wp->value = w;
    Parameter* hp = store.Create("h", h.rows(), h.cols());
    hp->value = h;
    wp->ZeroGrad();
    hp->ZeroGrad();
    Tape tape;
    Var y = ag::EdgeWeightedSpmm(&adj, ag::Leaf(&tape, wp),
                                 ag::Leaf(&tape, hp));
    *out = y.value();
    tape.Backward(ag::MeanAll(ag::Square(y)));
    *gw = wp->grad;
    *gh = hp->grad;
  };

  SetNumThreads(1);
  Matrix ref_out, ref_gw, ref_gh;
  run(&ref_out, &ref_gw, &ref_gh);
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    Matrix out, gw, gh;
    run(&out, &gw, &gh);
    EXPECT_TRUE(BitwiseEqual(ref_out, out)) << "threads=" << t;
    EXPECT_TRUE(BitwiseEqual(ref_gw, gw)) << "threads=" << t;
    EXPECT_TRUE(BitwiseEqual(ref_gh, gh)) << "threads=" << t;
  }
}

TEST(ParallelKernelsTest, EdgeWeightedSpmmGradCheckUnderParallelRuntime) {
  // Finite-difference check of the edge-value gradient kernel while the
  // runtime dispatches to 7 threads: proves the two-pass dw accumulation
  // and the transpose-gather dh are race-free, not just reproducible.
  ThreadCountGuard guard;
  SetNumThreads(7);
  BipartiteGraph g(3, 2, {{0, 0}, {0, 1}, {1, 0}, {2, 1}});
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Rng rng(9);
  ParamStore store;
  Parameter* w = store.CreateNormal("w", g.num_edges(), 1, &rng, 0.3f);
  for (int64_t i = 0; i < w->value.size(); ++i) {
    w->value[i] = 0.5f + std::fabs(w->value[i]);
  }
  Parameter* h = store.CreateNormal("h", g.num_nodes(), 3, &rng, 0.5f);
  for (Parameter* target : {w, h}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::MeanAll(ag::Square(
          ag::EdgeWeightedSpmm(&adj, ag::Leaf(t, w), ag::Leaf(t, h))));
    });
    EXPECT_TRUE(res.ok) << res.max_abs_error;
  }
}

TEST(ParallelKernelsTest, EvaluatorIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Enough evaluable users to span several 128-user ranking chunks.
  SyntheticConfig cfg;
  cfg.num_users = 400;
  cfg.num_items = 180;
  cfg.mean_user_degree = 10.0;
  cfg.seed = 12;
  const SyntheticData data = GenerateSynthetic(cfg);
  Evaluator evaluator(&data.dataset, {5, 20});

  Rng rng(13);
  Matrix user_emb(data.dataset.num_users, 16);
  Matrix item_emb(data.dataset.num_items, 16);
  InitNormal(&user_emb, &rng);
  InitNormal(&item_emb, &rng);
  const auto scorer = [&](const std::vector<int32_t>& users) {
    Matrix batch = GatherRows(user_emb, users);
    Matrix scores;
    Gemm(batch, false, item_emb, true, 1.f, 0.f, &scores);
    return scores;
  };

  SetNumThreads(1);
  const TopKMetrics ref = evaluator.Evaluate(scorer);
  ASSERT_GT(ref.num_users, 256);  // spans > 2 chunks
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    const TopKMetrics m = evaluator.Evaluate(scorer);
    EXPECT_EQ(ref.num_users, m.num_users);
    for (size_t ki = 0; ki < ref.ks.size(); ++ki) {
      // Exact double equality: partials merge in user order.
      EXPECT_EQ(ref.recall[ki], m.recall[ki]) << "threads=" << t;
      EXPECT_EQ(ref.ndcg[ki], m.ndcg[ki]) << "threads=" << t;
      EXPECT_EQ(ref.precision[ki], m.precision[ki]) << "threads=" << t;
      EXPECT_EQ(ref.hit_rate[ki], m.hit_rate[ki]) << "threads=" << t;
      EXPECT_EQ(ref.map[ki], m.map[ki]) << "threads=" << t;
      EXPECT_EQ(ref.mrr[ki], m.mrr[ki]) << "threads=" << t;
    }
  }
}

TEST(ParallelKernelsTest, ElementwiseAndReductionsIdentical) {
  ThreadCountGuard guard;
  Rng rng(17);
  Matrix a(2000, 1000), b(2000, 1000);
  InitNormal(&a, &rng);
  InitNormal(&b, &rng);

  SetNumThreads(1);
  const Matrix ref_add = Add(a, b);
  const Matrix ref_mul = Mul(a, b);
  const double ref_sum = SumAll(a);
  const double ref_sq = SquaredNorm(a);
  const float ref_max = MaxAbs(a);
  const Matrix ref_rowsum = RowSum(a);
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    EXPECT_TRUE(BitwiseEqual(ref_add, Add(a, b))) << t;
    EXPECT_TRUE(BitwiseEqual(ref_mul, Mul(a, b))) << t;
    EXPECT_EQ(ref_sum, SumAll(a)) << t;
    EXPECT_EQ(ref_sq, SquaredNorm(a)) << t;
    EXPECT_EQ(ref_max, MaxAbs(a)) << t;
    EXPECT_TRUE(BitwiseEqual(ref_rowsum, RowSum(a))) << t;
  }
}

TEST(ParallelKernelsTest, FillNormalIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // 333,000 elements: 41 chunks, the last one partial.
  Matrix ref(1000, 333);
  SetNumThreads(1);
  FillNormal(&ref, 42, 0.f, 0.1f);
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    Matrix m(1000, 333);
    FillNormal(&m, 42, 0.f, 0.1f);
    EXPECT_TRUE(BitwiseEqual(ref, m)) << t;
  }
}

}  // namespace
}  // namespace graphaug
