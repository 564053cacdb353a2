// Tests for the sparse graph substrate: CSR construction/products,
// bipartite graph invariants, Laplacian normalization (spectral bound,
// symmetry, edge mapping), and corruption operators.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "graph/bipartite_graph.h"
#include "graph/corruption.h"
#include "graph/csr.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

TEST(CsrTest, FromCooSortsAndMergesDuplicates) {
  CsrMatrix m = CsrMatrix::FromCoo(
      3, 3, {{2, 1, 1.f}, {0, 0, 2.f}, {2, 1, 3.f}, {1, 2, -1.f}});
  EXPECT_EQ(m.nnz(), 3);
  Matrix d = m.ToDense();
  EXPECT_FLOAT_EQ(d.at(2, 1), 4.f);  // merged 1 + 3
  EXPECT_FLOAT_EQ(d.at(0, 0), 2.f);
  EXPECT_FLOAT_EQ(d.at(1, 2), -1.f);
}

TEST(CsrTest, OutOfBoundsEntriesAbort) {
  EXPECT_DEATH(CsrMatrix::FromCoo(2, 2, {{2, 0, 1.f}}), "out of bounds");
}

TEST(CsrTest, IdentitySpmmIsNoop) {
  CsrMatrix id = CsrMatrix::Identity(4);
  Matrix x(4, 3);
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  Matrix out;
  id.Spmm(x, &out);
  EXPECT_TRUE(AllClose(out, x));
}

TEST(CsrTest, SpmmTMatchesTransposedSpmm) {
  CsrMatrix m = CsrMatrix::FromCoo(
      3, 4, {{0, 1, 2.f}, {1, 0, -1.f}, {1, 3, 0.5f}, {2, 2, 1.5f}});
  Matrix x(3, 2, std::vector<float>{1, 2, 3, 4, 5, 6});
  Matrix a, b;
  m.SpmmT(x, &a);
  m.Transpose().Spmm(x, &b);
  EXPECT_TRUE(AllClose(a, b));
}

TEST(CsrTest, WithValuesSwapsValuesOnly) {
  CsrMatrix m = CsrMatrix::FromCoo(2, 2, {{0, 0, 1.f}, {1, 1, 1.f}});
  CsrMatrix m2 = m.WithValues({3.f, 4.f});
  EXPECT_FLOAT_EQ(m2.ToDense().at(1, 1), 4.f);
  EXPECT_DEATH(m.WithValues({1.f}), "");
}

TEST(CsrTest, SpmmTBitwiseMatchesSerialScatter) {
  CsrMatrix m = CsrMatrix::FromCoo(
      5, 4,
      {{0, 1, 2.f}, {1, 0, -1.f}, {1, 3, 0.5f}, {2, 2, 1.5f},
       {3, 1, 4.f}, {4, 0, -2.5f}, {4, 3, 3.f}});
  Matrix x(5, 3);
  for (int64_t i = 0; i < x.size(); ++i) x[i] = 0.25f * static_cast<float>(i);
  // Independent reference: the serial scatter over the original rows. It
  // accumulates each output row in ascending original-row order, the
  // order the mirror stream reproduces, so the match is bitwise.
  Matrix ref(m.cols(), x.cols());
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      for (int64_t c = 0; c < x.cols(); ++c) {
        ref.at(m.col_idx()[k], c) += m.values()[k] * x.at(r, c);
      }
    }
  }
  Matrix out;
  m.SpmmT(x, &out);
  ASSERT_TRUE(out.SameShape(ref));
  EXPECT_EQ(std::memcmp(ref.data(), out.data(), sizeof(float) * ref.size()),
            0);
}

TEST(CsrTest, MutatingValuesInvalidatesMirrorValues) {
  // Satellite fix: building the mirror, then mutating values in place,
  // must not leave SpmmT reading a stale permuted-values cache.
  CsrMatrix m = CsrMatrix::FromCoo(
      3, 3, {{0, 1, 1.f}, {1, 0, 2.f}, {1, 2, 3.f}, {2, 1, 4.f}});
  Matrix x(3, 2, std::vector<float>{1, 2, 3, 4, 5, 6});
  Matrix before;
  m.SpmmT(x, &before);  // builds and caches mirror pattern + values

  (*m.mutable_values())[1] = 20.f;  // the (1,0) entry
  Matrix after, fresh_ref;
  m.SpmmT(x, &after);
  m.Transpose().Spmm(x, &fresh_ref);  // independent reference, new values
  EXPECT_TRUE(AllClose(after, fresh_ref));
  EXPECT_FALSE(AllClose(after, before));
}

TEST(CsrTest, WithValuesCopyMutationDoesNotCorruptSharedCaches) {
  // The mirror *pattern* is shared across WithValues copies; the permuted
  // values cache must not be. Mutating a copy in place must neither read
  // stale state in the copy nor poison the original.
  CsrMatrix m = CsrMatrix::FromCoo(
      4, 3, {{0, 0, 1.f}, {1, 2, 2.f}, {2, 1, 3.f}, {3, 0, 4.f}});
  Matrix x(4, 2);
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i + 1);
  Matrix orig;
  m.SpmmT(x, &orig);  // warm the shared caches on the original

  CsrMatrix c = m.WithValues({10.f, 20.f, 30.f, 40.f});
  Matrix copy_before;
  c.SpmmT(x, &copy_before);  // warms the copy's own values cache
  (*c.mutable_values())[2] = -30.f;
  Matrix copy_after, copy_ref;
  c.SpmmT(x, &copy_after);
  c.Transpose().Spmm(x, &copy_ref);
  EXPECT_TRUE(AllClose(copy_after, copy_ref));
  EXPECT_FALSE(AllClose(copy_after, copy_before));

  // The original still sees its own values.
  Matrix orig_again;
  m.SpmmT(x, &orig_again);
  EXPECT_TRUE(AllClose(orig, orig_again));
}

TEST(BipartiteGraphTest, DedupsAndIndexes) {
  BipartiteGraph g(3, 2, {{0, 0}, {0, 0}, {0, 1}, {2, 1}});
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.UserDegree(0), 2);
  EXPECT_EQ(g.ItemDegree(1), 2);
  EXPECT_EQ(g.UsersOf(1).size(), 2u);
  EXPECT_DOUBLE_EQ(g.Density(), 3.0 / 6.0);
}

TEST(BipartiteGraphTest, NormalizedAdjacencyIsSymmetric) {
  BipartiteGraph g(3, 3, {{0, 0}, {0, 1}, {1, 1}, {2, 2}});
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Matrix d = adj.matrix.ToDense();
  for (int64_t i = 0; i < d.rows(); ++i) {
    for (int64_t j = 0; j < d.cols(); ++j) {
      EXPECT_NEAR(d.at(i, j), d.at(j, i), 1e-6);
    }
  }
}

TEST(BipartiteGraphTest, NormalizationCoefficients) {
  // Single edge between u0 and v0 plus self-loops: deg(u0)=deg(v0)=2.
  BipartiteGraph g(1, 1, {{0, 0}});
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Matrix d = adj.matrix.ToDense();
  EXPECT_NEAR(d.at(0, 1), 1.0 / 2.0, 1e-6);   // 1/sqrt(2)/sqrt(2)
  EXPECT_NEAR(d.at(0, 0), 1.0 / 2.0, 1e-6);   // self loop
}

TEST(BipartiteGraphTest, NnzToEdgeMappingIsConsistent) {
  BipartiteGraph g(3, 2, {{0, 0}, {1, 0}, {1, 1}, {2, 1}});
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  // Each interaction appears exactly twice; self-loops map to -1.
  std::vector<int> counts(g.num_edges(), 0);
  int self_loops = 0;
  for (int64_t e : adj.nnz_to_edge) {
    if (e < 0) {
      ++self_loops;
    } else {
      counts[static_cast<size_t>(e)]++;
    }
  }
  EXPECT_EQ(self_loops, g.num_nodes());
  for (int c : counts) EXPECT_EQ(c, 2);
  // WeightedValues with w=1 reproduces base values.
  std::vector<float> w(g.num_edges(), 1.f);
  EXPECT_EQ(adj.WeightedValues(w), adj.base_values);
  // Zeroing one edge zeroes exactly its two nnz slots.
  w[0] = 0.f;
  auto vals = adj.WeightedValues(w);
  int zeroed = 0;
  for (size_t k = 0; k < vals.size(); ++k) {
    if (vals[k] == 0.f && adj.base_values[k] != 0.f) ++zeroed;
  }
  EXPECT_EQ(zeroed, 2);
}

TEST(BipartiteGraphTest, SpectralRadiusAtMostOne) {
  // Power iteration on Ã (with self loops) must not blow up: ‖Ã^k x‖ stays
  // bounded because the symmetric normalized adjacency has eigenvalues in
  // [-1, 1].
  BipartiteGraph g(10, 8, []{
    std::vector<Edge> edges;
    for (int32_t u = 0; u < 10; ++u) {
      for (int32_t v = 0; v < 8; v += (u % 3) + 1) edges.push_back({u, v});
    }
    return edges;
  }());
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Matrix x(g.num_nodes(), 1, 1.f);
  Matrix y;
  double prev = std::sqrt(SquaredNorm(x));
  for (int it = 0; it < 30; ++it) {
    adj.matrix.Spmm(x, &y);
    const double norm = std::sqrt(SquaredNorm(y));
    EXPECT_LE(norm, prev * 1.0001);
    x = y;
    prev = norm;
  }
}

TEST(BipartiteGraphTest, FilterAndExtend) {
  BipartiteGraph g(3, 3, {{0, 0}, {1, 1}, {2, 2}});
  BipartiteGraph g2 = g.WithExtraEdges({{0, 1}, {1, 1}});
  EXPECT_EQ(g2.num_edges(), 4);  // {1,1} deduped
  BipartiteGraph g3 = g.FilterEdges({true, false, true});
  EXPECT_EQ(g3.num_edges(), 2);
  EXPECT_FALSE(g3.HasEdge(1, 1));
}

TEST(CorruptionTest, AddRandomEdgesAddsOnlyNewEdges) {
  BipartiteGraph g(20, 20, {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}});
  Rng rng(5);
  BipartiteGraph noisy = AddRandomEdges(g, 1.0, rng);
  EXPECT_EQ(noisy.num_edges(), 10);
  for (const Edge& e : g.edges()) EXPECT_TRUE(noisy.HasEdge(e.user, e.item));
}

TEST(CorruptionTest, DropEdgesApproximatesRate) {
  std::vector<Edge> edges;
  for (int32_t u = 0; u < 50; ++u) {
    for (int32_t v = 0; v < 40; v += 2) edges.push_back({u, v});
  }
  BipartiteGraph g(50, 40, edges);
  Rng rng(9);
  BipartiteGraph dropped = DropEdges(g, 0.3, rng);
  const double kept =
      static_cast<double>(dropped.num_edges()) / g.num_edges();
  EXPECT_NEAR(kept, 0.7, 0.05);
}

TEST(CorruptionTest, RandomWalkSubgraphKeepsSubset) {
  std::vector<Edge> edges;
  for (int32_t u = 0; u < 30; ++u) {
    for (int32_t v = u % 5; v < 20; v += 5) edges.push_back({u, v});
  }
  BipartiteGraph g(30, 20, edges);
  Rng rng(13);
  BipartiteGraph sub = RandomWalkSubgraph(g, 10, 5, rng);
  EXPECT_GT(sub.num_edges(), 0);
  EXPECT_LE(sub.num_edges(), g.num_edges());
  for (const Edge& e : sub.edges()) EXPECT_TRUE(g.HasEdge(e.user, e.item));
}

}  // namespace
}  // namespace graphaug
