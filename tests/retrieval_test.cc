// Tests for the top-K retrieval layer (DESIGN.md §10): TopKHeap::OfferRow
// edge cases, heap-vs-dense exact equality including tie handling,
// pruned-index exactness at bound_slack = 1 on random and norm-skewed
// embeddings, the recall floor under relaxed slack, Save/Load
// round-trips, bitwise thread-count determinism, scalar-vs-AVX2
// score_panels parity, and Evaluator metric parity between the dense
// oracle and the retrieval-backed path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "retrieval/mips_index.h"
#include "retrieval/topk.h"
#include "tensor/init.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

using retrieval::MipsIndex;
using retrieval::MipsIndexConfig;
using retrieval::Retriever;
using retrieval::TopKHeap;
using retrieval::TopKList;
using retrieval::TopKScorer;

/// RAII guard for the parallel runtime's thread count (same idiom as
/// simd_test).
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(1); }
};

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  InitNormal(&m, &rng, 0.f, 1.f);
  return m;
}

/// Dense oracle: scores every item through the same dispatched GEMM the
/// retrieval engines use and ranks (score desc, id asc) — the shared
/// ranking contract. Returns the full sorted list cut to k.
std::vector<TopKList> DenseTopK(const Matrix& queries, const Matrix& items,
                                int k,
                                const std::vector<std::vector<int32_t>>& ex) {
  Matrix scores;
  Gemm(queries, false, items, true, 1.f, 0.f, &scores);
  std::vector<TopKList> out(static_cast<size_t>(queries.rows()));
  for (int64_t q = 0; q < queries.rows(); ++q) {
    const float* row = scores.row(q);
    std::vector<int32_t> order;
    order.reserve(static_cast<size_t>(items.rows()));
    const auto& exq = ex.empty() ? Retriever::NoExclusions() : ex[q];
    for (int32_t j = 0; j < items.rows(); ++j) {
      if (!std::binary_search(exq.begin(), exq.end(), j)) order.push_back(j);
    }
    std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return TopKHeap::Better(row[a], a, row[b], b);
    });
    if (static_cast<int>(order.size()) > k) order.resize(static_cast<size_t>(k));
    for (int32_t j : order) {
      out[static_cast<size_t>(q)].items.push_back(j);
      out[static_cast<size_t>(q)].scores.push_back(row[j]);
    }
  }
  return out;
}

std::vector<TopKList> RunRetriever(const Retriever& r, const Matrix& queries, int k,
                          const std::vector<std::vector<int32_t>>& ex) {
  static const std::vector<int32_t> kNone;
  std::vector<TopKList> out;
  r.RetrieveBatch(
      queries, k,
      [&](int64_t q) -> const std::vector<int32_t>& {
        return ex.empty() ? kNone : ex[static_cast<size_t>(q)];
      },
      &out);
  return out;
}

/// Exact equality: same items in the same order, bitwise-equal scores.
void ExpectListsEqual(const std::vector<TopKList>& got,
                      const std::vector<TopKList>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].items.size(), want[q].items.size()) << "query " << q;
    for (size_t i = 0; i < got[q].items.size(); ++i) {
      EXPECT_EQ(got[q].items[i], want[q].items[i])
          << "query " << q << " rank " << i;
      EXPECT_EQ(std::memcmp(&got[q].scores[i], &want[q].scores[i],
                            sizeof(float)),
                0)
          << "query " << q << " rank " << i << ": " << got[q].scores[i]
          << " vs " << want[q].scores[i];
    }
  }
}

double RecallVs(const std::vector<TopKList>& got,
                const std::vector<TopKList>& truth) {
  int64_t hit = 0, total = 0;
  for (size_t q = 0; q < truth.size(); ++q) {
    for (int32_t id : truth[q].items) {
      ++total;
      hit += std::count(got[q].items.begin(), got[q].items.end(), id);
    }
  }
  return total ? static_cast<double>(hit) / static_cast<double>(total) : 1.0;
}

/// Scales item rows by a Zipf-like factor so norms span ~two orders of
/// magnitude — the skew regime trained recommender embeddings live in,
/// and the one the norm-descending cutoff must stay exact under.
void SkewNorms(Matrix* items, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> rank(static_cast<size_t>(items->rows()));
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = static_cast<int32_t>(i);
  for (size_t i = rank.size(); i > 1; --i) {
    std::swap(rank[i - 1], rank[rng.NextU64() % i]);
  }
  for (int64_t j = 0; j < items->rows(); ++j) {
    const float s = std::pow(1.f + static_cast<float>(rank[j]), -0.7f) * 10.f;
    float* row = items->row(j);
    for (int64_t c = 0; c < items->cols(); ++c) row[c] *= s;
  }
}

// ------------------------------------------------------------- TopKHeap

TEST(TopKHeapTest, KeepsBestKWithIdTieBreak) {
  TopKHeap heap(3);
  // Two candidates tie at 2.f: the lower id must survive and rank first
  // among equals.
  heap.Offer(1.f, 9);
  heap.Offer(2.f, 7);
  heap.Offer(0.5f, 1);
  heap.Offer(2.f, 3);
  heap.Offer(1.5f, 2);
  TopKList list;
  heap.TakeSortedDescending(&list);
  ASSERT_EQ(list.items.size(), 3u);
  EXPECT_EQ(list.items[0], 3);  // 2.f, lower id
  EXPECT_EQ(list.items[1], 7);  // 2.f, higher id
  EXPECT_EQ(list.items[2], 2);  // 1.5f
  EXPECT_EQ(list.scores[0], 2.f);
  EXPECT_EQ(list.scores[2], 1.5f);
}

TEST(TopKHeapTest, ShortStreamReturnsAll) {
  TopKHeap heap(10);
  heap.Offer(1.f, 0);
  heap.Offer(3.f, 1);
  TopKList list;
  heap.TakeSortedDescending(&list);
  ASSERT_EQ(list.items.size(), 2u);
  EXPECT_EQ(list.items[0], 1);
  EXPECT_EQ(list.items[1], 0);
}

// ---------------------------------------------------- TopKHeap::OfferRow

/// Embeddings with entries in {0, 1, 2}: scores take a handful of values,
/// so most ranks are decided by the id tie-break.
Matrix TieHeavyMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextU64() % 3);
  }
  return m;
}

/// One query's selection through OfferRow, offering the dense score row
/// as the segments (first_id, n) in the order given.
TopKList OfferSegments(const Matrix& query, const Matrix& items, int k,
                       const std::vector<std::pair<int32_t, int64_t>>& segs,
                       const std::vector<int32_t>& ex) {
  Matrix scores;
  Gemm(query, false, items, true, 1.f, 0.f, &scores);
  TopKHeap heap(k);
  for (const auto& [first_id, n] : segs) {
    heap.OfferRow(scores.row(0) + first_id, n, first_id, ex);
  }
  TopKList list;
  heap.TakeSortedDescending(&list);
  return list;
}

TEST(TopKHeapOfferRowTest, OffsetRowsAndExclusionsMatchDense) {
  const Matrix items = TieHeavyMatrix(40, 3, 51);
  const Matrix query = TieHeavyMatrix(1, 3, 52);
  // Three calls with first_id 0, 13 and 27. Exclusions sit before, inside
  // and past each row, run adjacent (5-7, 12-13, 26-27), cover the first
  // and last id, and reach past the catalog (45, 100).
  const std::vector<int32_t> ex = {0,  1,  5,  6,  7,  12, 13,
                                   20, 26, 27, 39, 45, 100};
  const std::vector<std::pair<int32_t, int64_t>> segs = {
      {0, 13}, {13, 14}, {27, 13}};
  for (int k : {1, 4, 10, 27}) {
    ExpectListsEqual({OfferSegments(query, items, k, segs, ex)},
                     DenseTopK(query, items, k, {ex}));
  }
}

TEST(TopKHeapOfferRowTest, AllExcludedAndKAboveRowLength) {
  const Matrix items = TieHeavyMatrix(12, 3, 61);
  const Matrix query = TieHeavyMatrix(1, 3, 62);
  std::vector<int32_t> all(12);
  for (int32_t j = 0; j < 12; ++j) all[static_cast<size_t>(j)] = j;
  EXPECT_TRUE(OfferSegments(query, items, 5, {{0, 12}}, all).items.empty());
  // k > n returns every remaining item, best first.
  const std::vector<int32_t> ex = {3, 11};
  const TopKList got = OfferSegments(query, items, 50, {{0, 12}}, ex);
  EXPECT_EQ(got.items.size(), 10u);
  ExpectListsEqual({got}, DenseTopK(query, items, 50, {ex}));
  // k <= 0 keeps nothing.
  EXPECT_TRUE(OfferSegments(query, items, 0, {{0, 12}}, {}).items.empty());
}

TEST(TopKHeapOfferRowTest, EqualScoreAtFloorWithLowerIdDisplaces) {
  // Offer ids 3..5 first: the heap fills with {3, 4} and its floor is
  // 1.f. Ids 0..2 then tie the floor exactly and must displace both.
  const std::vector<float> row(6, 1.f);
  TopKHeap heap(2);
  heap.OfferRow(row.data() + 3, 3, 3, {});
  heap.OfferRow(row.data(), 3, 0, {});
  TopKList got;
  heap.TakeSortedDescending(&got);
  ASSERT_EQ(got.items.size(), 2u);
  EXPECT_EQ(got.items[0], 0);
  EXPECT_EQ(got.items[1], 1);
}

TEST(TopKHeapOfferRowTest, SeveralCallsInAnyOrderMatchDense) {
  const Matrix items = TieHeavyMatrix(64, 3, 71);
  const Matrix queries = TieHeavyMatrix(5, 3, 72);
  const std::vector<int32_t> ex = {2, 3, 17, 31, 32, 33, 63};
  // Tile-sized rows in ascending order (as TopKScorer offers them), in
  // descending order, and interleaved.
  const std::vector<std::vector<std::pair<int32_t, int64_t>>> orders = {
      {{0, 16}, {16, 16}, {32, 16}, {48, 16}},
      {{48, 16}, {32, 16}, {16, 16}, {0, 16}},
      {{20, 25}, {0, 20}, {45, 19}}};
  for (int64_t q = 0; q < queries.rows(); ++q) {
    const Matrix query = SliceRows(queries, q, 1);
    const auto want = DenseTopK(query, items, 9, {ex});
    for (const auto& segs : orders) {
      ExpectListsEqual({OfferSegments(query, items, 9, segs, ex)}, want);
    }
  }
}

TEST(TopKHeapOfferRowTest, DrainedHeapIsReusable) {
  // The dense evaluator keeps one heap per user chunk and drains it into
  // one reused list per user.
  const Matrix items = TieHeavyMatrix(30, 3, 81);
  const Matrix queries = TieHeavyMatrix(4, 3, 82);
  Matrix scores;
  Gemm(queries, false, items, true, 1.f, 0.f, &scores);
  TopKHeap heap(7);
  TopKList list;
  for (int64_t q = 0; q < queries.rows(); ++q) {
    const std::vector<int32_t> ex = {static_cast<int32_t>(q), 29};
    heap.OfferRow(scores.row(q), items.rows(), 0, ex);
    heap.TakeSortedDescending(&list);
    ExpectListsEqual({list},
                     DenseTopK(SliceRows(queries, q, 1), items, 7, {ex}));
  }
}

// ------------------------------------------- heap scorer vs dense oracle

TEST(TopKScorerTest, MatchesDenseOracleExactly) {
  const Matrix items = RandomMatrix(777, 24, 11);  // non-multiple of tiles
  const Matrix queries = RandomMatrix(65, 24, 12);
  TopKScorer scorer(items);
  ExpectListsEqual(RunRetriever(scorer, queries, 20, {}),
                   DenseTopK(queries, items, 20, {}));
}

TEST(TopKScorerTest, TiesFromDuplicatedRowsMatchDense) {
  Matrix items = RandomMatrix(120, 16, 21);
  // Force exact score ties: several items share identical embeddings, so
  // only the ascending-id tie-break orders them.
  for (int64_t j = 40; j < 80; ++j) {
    std::memcpy(items.row(j), items.row(j % 8),
                static_cast<size_t>(items.cols()) * sizeof(float));
  }
  const Matrix queries = RandomMatrix(30, 16, 22);
  TopKScorer scorer(items);
  ExpectListsEqual(RunRetriever(scorer, queries, 25, {}),
                   DenseTopK(queries, items, 25, {}));
}

TEST(TopKScorerTest, ExclusionsAreNeverReturned) {
  const Matrix items = RandomMatrix(90, 12, 31);
  const Matrix queries = RandomMatrix(17, 12, 32);
  std::vector<std::vector<int32_t>> ex(17);
  Rng rng(33);
  for (auto& e : ex) {
    for (int32_t j = 0; j < 90; ++j) {
      if (rng.NextU64() % 3 == 0) e.push_back(j);
    }
  }
  TopKScorer scorer(items);
  const auto got = RunRetriever(scorer, queries, 10, ex);
  for (size_t q = 0; q < got.size(); ++q) {
    for (int32_t id : got[q].items) {
      EXPECT_FALSE(std::binary_search(ex[q].begin(), ex[q].end(), id));
    }
  }
  ExpectListsEqual(got, DenseTopK(queries, items, 10, ex));
}

TEST(TopKScorerTest, KLargerThanCatalogReturnsEverything) {
  const Matrix items = RandomMatrix(15, 8, 41);
  const Matrix queries = RandomMatrix(4, 8, 42);
  TopKScorer scorer(items);
  const auto got = RunRetriever(scorer, queries, 50, {});
  for (const auto& list : got) EXPECT_EQ(list.items.size(), 15u);
  ExpectListsEqual(got, DenseTopK(queries, items, 50, {}));
}

// ------------------------------------------------- pruned MIPS exactness

TEST(MipsIndexTest, ExactAtSlackOneOnRandomEmbeddings) {
  const Matrix items = RandomMatrix(600, 24, 51);
  const Matrix queries = RandomMatrix(80, 24, 52);
  const MipsIndex index = MipsIndex::Build(items);
  EXPECT_EQ(index.num_items(), 600);
  ExpectListsEqual(RunRetriever(index, queries, 20, {}),
                   DenseTopK(queries, items, 20, {}));
}

TEST(MipsIndexTest, ExactAtSlackOneOnSkewedNorms) {
  Matrix items = RandomMatrix(800, 32, 61);
  SkewNorms(&items, 62);
  const Matrix queries = RandomMatrix(60, 32, 63);
  MipsIndexConfig cfg;
  cfg.num_clusters = 16;
  const MipsIndex index = MipsIndex::Build(items, cfg);
  std::vector<std::vector<int32_t>> ex(60);
  Rng rng(64);
  for (auto& e : ex) {
    for (int32_t j = 0; j < 800; ++j) {
      if (rng.NextU64() % 10 == 0) e.push_back(j);
    }
  }
  ExpectListsEqual(RunRetriever(index, queries, 20, ex),
                   DenseTopK(queries, items, 20, ex));
}

TEST(MipsIndexTest, ExactWithDuplicateRowTies) {
  Matrix items = RandomMatrix(256, 16, 71);
  for (int64_t j = 100; j < 140; ++j) {
    std::memcpy(items.row(j), items.row(j % 5),
                static_cast<size_t>(items.cols()) * sizeof(float));
  }
  const Matrix queries = RandomMatrix(25, 16, 72);
  const MipsIndex index = MipsIndex::Build(items);
  ExpectListsEqual(RunRetriever(index, queries, 30, {}),
                   DenseTopK(queries, items, 30, {}));
}

TEST(MipsIndexTest, SingleClusterDegeneratesToNormPruning) {
  Matrix items = RandomMatrix(300, 16, 81);
  SkewNorms(&items, 82);
  const Matrix queries = RandomMatrix(20, 16, 83);
  MipsIndexConfig cfg;
  cfg.num_clusters = 1;
  const MipsIndex index = MipsIndex::Build(items, cfg);
  EXPECT_EQ(index.num_clusters(), 1);
  ExpectListsEqual(RunRetriever(index, queries, 15, {}),
                   DenseTopK(queries, items, 15, {}));
}

TEST(MipsIndexTest, RelaxedSlackKeepsHighRecall) {
  Matrix items = RandomMatrix(1000, 32, 91);
  SkewNorms(&items, 92);
  const Matrix queries = RandomMatrix(100, 32, 93);
  MipsIndexConfig cfg;
  cfg.bound_slack = 0.9f;
  const MipsIndex index = MipsIndex::Build(items, cfg);
  const auto truth = DenseTopK(queries, items, 20, {});
  const double recall = RecallVs(RunRetriever(index, queries, 20, {}), truth);
  // The CI gate floor; slack 0.9 typically stays well above it.
  EXPECT_GE(recall, 0.99);
}

TEST(MipsIndexTest, TinyAndEdgeCatalogs) {
  // Fewer items than k, fewer items than clusters, single item.
  for (int64_t n : {1, 3, 9}) {
    const Matrix items = RandomMatrix(n, 8, 100 + static_cast<uint64_t>(n));
    const Matrix queries = RandomMatrix(5, 8, 110 + static_cast<uint64_t>(n));
    const MipsIndex index = MipsIndex::Build(items);
    ExpectListsEqual(RunRetriever(index, queries, 4, {}),
                     DenseTopK(queries, items, 4, {}));
  }
}

// -------------------------------------------------- serialization

TEST(MipsIndexTest, SaveLoadRoundTripIsBitwiseIdentical) {
  Matrix items = RandomMatrix(400, 24, 121);
  SkewNorms(&items, 122);
  MipsIndexConfig cfg;
  cfg.num_clusters = 10;
  cfg.kmeans_iterations = 7;
  cfg.kmeans_restarts = 3;
  cfg.seed = 0xabcd;
  cfg.bound_slack = 0.97f;
  const MipsIndex built = MipsIndex::Build(items, cfg);

  const std::string path = "/tmp/graphaug_mips_test.bin";
  ASSERT_TRUE(built.Save(path));
  MipsIndex loaded;
  ASSERT_TRUE(MipsIndex::Load(path, &loaded));
  std::remove(path.c_str());

  EXPECT_EQ(loaded.config().num_clusters, cfg.num_clusters);
  EXPECT_EQ(loaded.config().kmeans_iterations, cfg.kmeans_iterations);
  EXPECT_EQ(loaded.config().kmeans_restarts, cfg.kmeans_restarts);
  EXPECT_EQ(loaded.config().seed, cfg.seed);
  EXPECT_EQ(loaded.config().bound_slack, cfg.bound_slack);
  EXPECT_EQ(loaded.num_items(), built.num_items());
  EXPECT_EQ(loaded.num_clusters(), built.num_clusters());
  EXPECT_EQ(loaded.ids(), built.ids());

  const Matrix queries = RandomMatrix(40, 24, 123);
  ExpectListsEqual(RunRetriever(loaded, queries, 20, {}),
                   RunRetriever(built, queries, 20, {}));
}

TEST(MipsIndexTest, LoadRejectsGarbageAndLeavesIndexUntouched) {
  const std::string path = "/tmp/graphaug_mips_bad.bin";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "NOTANIDX-garbage-bytes";
  fwrite(junk, 1, sizeof(junk), f);
  fclose(f);

  const Matrix items = RandomMatrix(50, 8, 131);
  MipsIndex index = MipsIndex::Build(items);
  const int64_t before = index.num_items();
  EXPECT_FALSE(MipsIndex::Load(path, &index));
  EXPECT_EQ(index.num_items(), before);  // untouched on failure
  std::remove(path.c_str());
  EXPECT_FALSE(MipsIndex::Load("/tmp/graphaug_mips_missing.bin", &index));
}

// ------------------------------------------- thread-count determinism

TEST(RetrievalDeterminismTest, BitwiseIdenticalAcrossThreadCounts) {
  Matrix items = RandomMatrix(700, 24, 141);
  SkewNorms(&items, 142);
  const Matrix queries = RandomMatrix(150, 24, 143);
  std::vector<std::vector<int32_t>> ex(150);
  Rng rng(144);
  for (auto& e : ex) {
    for (int32_t j = 0; j < 700; ++j) {
      if (rng.NextU64() % 8 == 0) e.push_back(j);
    }
  }
  const TopKScorer scorer(items);
  const MipsIndex index = MipsIndex::Build(items);

  std::vector<TopKList> heap1, pruned1;
  {
    ScopedThreads guard(1);
    heap1 = RunRetriever(scorer, queries, 20, ex);
    pruned1 = RunRetriever(index, queries, 20, ex);
  }
  for (int threads : {2, 7}) {
    ScopedThreads guard(threads);
    ExpectListsEqual(RunRetriever(scorer, queries, 20, ex), heap1);
    ExpectListsEqual(RunRetriever(index, queries, 20, ex), pruned1);
  }
}

// --------------------------------------- score_panels kernel parity

TEST(ScorePanelsTest, ScalarMatchesReferenceLoopBitwise) {
  const int64_t d = 24, n = 5;
  const Matrix panels = RandomMatrix(1, n * 8 * d, 151);
  const Matrix q = RandomMatrix(1, d, 152);
  float out[5 * 8];
  simd::ScalarKernels().score_panels(q.row(0), panels.row(0), d, n, out);
  for (int64_t p = 0; p < n; ++p) {
    for (int t = 0; t < 8; ++t) {
      // One item's ascending-j separate multiply-then-add chain.
      float acc = 0.f;
      for (int64_t j = 0; j < d; ++j) {
        acc += q.row(0)[j] * panels.row(0)[p * 8 * d + j * 8 + t];
      }
      EXPECT_EQ(std::memcmp(&acc, &out[p * 8 + t], sizeof(float)), 0)
          << "panel " << p << " lane " << t;
    }
  }
}

TEST(ScorePanelsTest, Avx2MatchesScalarBitwise) {
  const simd::KernelTable* vec = simd::Avx2KernelsOrNull();
  if (vec == nullptr) GTEST_SKIP() << "no AVX2 table in this build";
  const simd::KernelTable& sc = simd::ScalarKernels();
  for (int64_t n : {1, 2, 3, 8, 9}) {
    for (int64_t d : {1, 7, 24, 33}) {
      const Matrix panels =
          RandomMatrix(1, n * 8 * d, 160 + static_cast<uint64_t>(n * 100 + d));
      const Matrix q = RandomMatrix(1, d, 161);
      std::vector<float> a(static_cast<size_t>(n * 8)),
          b(static_cast<size_t>(n * 8));
      sc.score_panels(q.row(0), panels.row(0), d, n, a.data());
      vec->score_panels(q.row(0), panels.row(0), d, n, b.data());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
          << "n=" << n << " d=" << d;
    }
  }
}

// ------------------------------------------- Evaluator metric parity

TEST(EvaluatorRetrievalTest, RetrievalPathMatchesDenseMetrics) {
  SyntheticConfig cfg;
  cfg.num_users = 300;
  cfg.num_items = 200;
  cfg.mean_user_degree = 12.0;
  cfg.latent_dim = 16;
  cfg.num_communities = 6;
  cfg.seed = 7;
  SyntheticData data = GenerateSynthetic(cfg);
  const Matrix& ue = data.user_factors;
  const Matrix& ie = data.item_factors;

  Evaluator eval(&data.dataset, {10, 20});
  auto dense_scorer = [&](const std::vector<int32_t>& users) {
    Matrix scores;
    Gemm(GatherRows(ue, users), false, ie, true, 1.f, 0.f, &scores);
    return scores;
  };
  const TopKMetrics dense = eval.Evaluate(dense_scorer);

  const TopKScorer scorer(ie);
  const MipsIndex index = MipsIndex::Build(ie);
  for (const Retriever* r :
       {static_cast<const Retriever*>(&scorer),
        static_cast<const Retriever*>(&index)}) {
    const TopKMetrics got = eval.EvaluateRetrieval(*r, ue);
    ASSERT_EQ(got.num_users, dense.num_users) << r->name();
    for (size_t i = 0; i < dense.ks.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.recall[i], dense.recall[i]) << r->name();
      EXPECT_DOUBLE_EQ(got.ndcg[i], dense.ndcg[i]) << r->name();
      EXPECT_DOUBLE_EQ(got.precision[i], dense.precision[i]) << r->name();
      EXPECT_DOUBLE_EQ(got.map[i], dense.map[i]) << r->name();
      EXPECT_DOUBLE_EQ(got.mrr[i], dense.mrr[i]) << r->name();
    }
  }
}

}  // namespace
}  // namespace graphaug
