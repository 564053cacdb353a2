// Tests for the sparse graph substrate: CSR construction/products,
// bipartite graph invariants, Laplacian normalization (spectral bound,
// symmetry, edge mapping), and corruption operators.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/cpu_features.h"
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

/// Transposed-product reference: a serial scatter over the rows of `m`,
/// accumulating into a copy of `init`. Each output row receives its
/// terms in ascending original row, the order SpmmT promises.
Matrix SerialScatterT(const CsrMatrix& m, const Matrix& x,
                      const Matrix& init) {
  Matrix ref = init;
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      for (int64_t c = 0; c < x.cols(); ++c) {
        ref.at(m.col_idx()[k], c) += m.values()[k] * x.at(r, c);
      }
    }
  }
  return ref;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(CsrTest, SpmmTBitwiseMatchesSerialScatter) {
  BipartiteGraph g(9, 7,
                   {{0, 0}, {0, 3}, {1, 1}, {2, 3}, {2, 6}, {3, 0}, {4, 2},
                    {5, 5}, {6, 1}, {6, 4}, {7, 6}, {8, 0}, {8, 2}});
  struct Case {
    const char* name;
    CsrMatrix m;
    bool symmetric;
  };
  const Case cases[] = {
      {"normalized adjacency", g.BuildNormalizedAdjacency(1.f).matrix, true},
      {"symmetric pattern, asymmetric values",
       CsrMatrix::FromCoo(
           3, 3, {{0, 1, 1.f}, {1, 0, 2.f}, {1, 2, 3.f}, {2, 1, 4.f}}),
       false},
      // Equal under ==, different bits: the transpose holds -0.f where the
      // matrix holds +0.f, which an accumulation into -0.f can tell apart.
      {"+0/-0 transpose pair",
       CsrMatrix::FromCoo(2, 2, {{0, 0, 1.5f}, {0, 1, 0.f}, {1, 0, -0.f}}),
       false},
      {"rectangular",
       CsrMatrix::FromCoo(5, 4,
                          {{0, 1, 2.f}, {1, 0, -1.f}, {1, 3, 0.5f},
                           {2, 2, 1.5f}, {3, 1, 4.f}, {4, 0, -2.5f},
                           {4, 3, 3.f}}),
       false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.m.symmetric(), c.symmetric) << c.name;
    Matrix x(c.m.rows(), 3);
    for (int64_t i = 0; i < x.size(); ++i) {
      x[i] = 0.25f * static_cast<float>(i + 1);
    }
    for (const float init_value : {0.f, -0.f}) {
      const Matrix init(c.m.cols(), x.cols(), init_value);
      const Matrix ref = SerialScatterT(c.m, x, init);
      for (const bool scalar : {false, true}) {
        ForceScalarKernels(scalar);
        Matrix out = init;
        c.m.SpmmT(x, &out, /*accumulate=*/true);
        EXPECT_TRUE(SameBits(ref, out))
            << c.name << " init=" << init_value << " scalar=" << scalar;
        if (c.symmetric) {
          Matrix fwd = init;
          c.m.Spmm(x, &fwd, /*accumulate=*/true);
          EXPECT_TRUE(SameBits(fwd, out)) << c.name;
        }
      }
    }
  }
  ForceScalarKernels(false);
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
  // Both directions of an edge carry the same float, so the symmetry is
  // exact and SpmmT can run Spmm over the matrix itself.
  EXPECT_TRUE(adj.matrix.symmetric());
  EXPECT_TRUE(g.BuildNormalizedAdjacency(0.f).matrix.symmetric());
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
