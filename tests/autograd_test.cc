// Gradient-correctness tests for every autograd op: each analytic
// gradient is verified against central finite differences via
// CheckGradient. A parameterized suite sweeps the unary ops; structured
// ops (matmul, spmm, gather, reductions, composite losses) get dedicated
// cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/optim.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "data/synthetic.h"
#include "tensor/init.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

class OpFixture : public ::testing::Test {
 protected:
  OpFixture() : rng_(7) {}

  Parameter* MakeParam(int64_t rows, int64_t cols, float stddev = 0.5f) {
    return store_.CreateNormal("p" + std::to_string(counter_++), rows, cols,
                               &rng_, stddev);
  }

  ParamStore store_;
  Rng rng_;
  int counter_ = 0;
};

// ---------------------------------------------------------------- unary ops

struct UnaryCase {
  const char* name;
  std::function<Var(Var)> apply;
  float init_stddev = 0.5f;
};

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifferences) {
  const UnaryCase& uc = GetParam();
  Rng rng(13);
  ParamStore store;
  Parameter* p = store.CreateNormal("x", 4, 5, &rng, uc.init_stddev);
  GradCheckResult res = CheckGradient(p, [&](Tape* t) {
    return ag::MeanAll(uc.apply(ag::Leaf(t, p)));
  });
  EXPECT_TRUE(res.ok) << uc.name << " max_abs=" << res.max_abs_error
                      << " max_rel=" << res.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"sigmoid", [](Var x) { return ag::Sigmoid(x); }},
        UnaryCase{"tanh", [](Var x) { return ag::Tanh(x); }},
        UnaryCase{"relu", [](Var x) { return ag::Relu(x); }, 1.0f},
        UnaryCase{"leaky_relu",
                  [](Var x) { return ag::LeakyRelu(x, 0.5f); }, 1.0f},
        UnaryCase{"exp", [](Var x) { return ag::Exp(x); }},
        UnaryCase{"softplus", [](Var x) { return ag::Softplus(x); }},
        UnaryCase{"square", [](Var x) { return ag::Square(x); }},
        UnaryCase{"scale", [](Var x) { return ag::Scale(x, -2.5f); }},
        UnaryCase{"add_scalar", [](Var x) { return ag::AddScalar(x, 3.f); }},
        UnaryCase{"neg", [](Var x) { return ag::Neg(x); }},
        UnaryCase{"row_l2_normalize",
                  [](Var x) { return ag::RowL2Normalize(x); }},
        UnaryCase{"log_sum_exp",
                  [](Var x) { return ag::LogSumExpRows(x); }},
        UnaryCase{"row_sum", [](Var x) { return ag::RowSum(x); }},
        UnaryCase{"slice_cols",
                  [](Var x) { return ag::SliceCols(x, 1, 3); }}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(OpFixture, LogGradient) {
  // Log requires positive inputs.
  Parameter* p = MakeParam(3, 4);
  for (int64_t i = 0; i < p->value.size(); ++i) {
    p->value[i] = 0.5f + std::fabs(p->value[i]);
  }
  GradCheckResult res = CheckGradient(p, [&](Tape* t) {
    return ag::MeanAll(ag::Log(ag::Leaf(t, p)));
  });
  EXPECT_TRUE(res.ok) << res.max_abs_error;
}

// --------------------------------------------------------------- binary ops

TEST_F(OpFixture, AddSubMulGradients) {
  Parameter* a = MakeParam(3, 4);
  Parameter* b = MakeParam(3, 4);
  for (auto* target : {a, b}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      Var va = ag::Leaf(t, a);
      Var vb = ag::Leaf(t, b);
      return ag::MeanAll(ag::Mul(ag::Add(va, vb), ag::Sub(va, vb)));
    });
    EXPECT_TRUE(res.ok) << res.max_abs_error;
  }
}

TEST_F(OpFixture, MatMulAllTransposeCombos) {
  Parameter* a = MakeParam(3, 4);
  Parameter* b = MakeParam(4, 5);
  Parameter* at = MakeParam(4, 3);
  Parameter* bt = MakeParam(5, 4);
  struct Case {
    Parameter *pa, *pb;
    bool ta, tb;
  };
  for (const Case& c : {Case{a, b, false, false}, Case{at, b, true, false},
                        Case{a, bt, false, true}, Case{at, bt, true, true}}) {
    for (Parameter* target : {c.pa, c.pb}) {
      GradCheckResult res = CheckGradient(target, [&](Tape* t) {
        return ag::MeanAll(
            ag::MatMul(ag::Leaf(t, c.pa), ag::Leaf(t, c.pb), c.ta, c.tb));
      });
      EXPECT_TRUE(res.ok) << "ta=" << c.ta << " tb=" << c.tb
                          << " err=" << res.max_abs_error;
    }
  }
}

TEST_F(OpFixture, ConcatColsGradient) {
  Parameter* a = MakeParam(3, 2);
  Parameter* b = MakeParam(3, 3);
  for (Parameter* target : {a, b}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::MeanAll(
          ag::Square(ag::ConcatCols(ag::Leaf(t, a), ag::Leaf(t, b))));
    });
    EXPECT_TRUE(res.ok);
  }
}

TEST_F(OpFixture, GatherRowsGradientWithDuplicates) {
  Parameter* a = MakeParam(5, 3);
  std::vector<int32_t> idx = {0, 2, 2, 4, 0};
  GradCheckResult res = CheckGradient(a, [&](Tape* t) {
    return ag::MeanAll(ag::Square(ag::GatherRows(ag::Leaf(t, a), idx)));
  });
  EXPECT_TRUE(res.ok);
}

TEST_F(OpFixture, BroadcastGradients) {
  Parameter* a = MakeParam(4, 3);
  Parameter* row = MakeParam(1, 3);
  Parameter* col = MakeParam(4, 1);
  for (Parameter* target : {a, row}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::MeanAll(ag::Square(
          ag::AddRowBroadcast(ag::Leaf(t, a), ag::Leaf(t, row))));
    });
    EXPECT_TRUE(res.ok) << "AddRowBroadcast";
    res = CheckGradient(target, [&](Tape* t) {
      return ag::MeanAll(ag::Square(
          ag::MulRowBroadcast(ag::Leaf(t, a), ag::Leaf(t, row))));
    });
    EXPECT_TRUE(res.ok) << "MulRowBroadcast";
  }
  for (Parameter* target : {a, col}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::MeanAll(ag::Square(
          ag::MulColBroadcast(ag::Leaf(t, a), ag::Leaf(t, col))));
    });
    EXPECT_TRUE(res.ok) << "MulColBroadcast";
  }
}

// ------------------------------------------------- fused masked-noise mix

bool SameBits(const Matrix& a, const Matrix& b) {
  // Empty matrices (frozen inputs' gradients) have no data pointer.
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct MixResult {
  Matrix y, dh, dlogits;
};

/// One disturb step, h ⊙ σ(logits) + ε ⊙ (1 − σ(logits)), either through
/// MaskedNoiseMix or through the composed graph it replaces, with the
/// output's gradient seeded to w.
MixResult RunMix(Parameter* h, Parameter* logits, const Matrix& eps,
                 const Matrix& w, bool fused) {
  h->ZeroGrad();
  logits->ZeroGrad();
  Tape tape;
  Var hv = ag::Leaf(&tape, h);
  Var m = ag::Sigmoid(ag::Leaf(&tape, logits));
  Var y;
  if (fused) {
    y = ag::MaskedNoiseMix(hv, m, eps);
  } else {
    Var hm = ag::MulRowBroadcast(hv, m);
    Var one_minus_m = ag::AddScalar(ag::Neg(m), 1.f);
    y = ag::Add(hm, ag::MulRowBroadcast(ag::Constant(&tape, eps),
                                        one_minus_m));
  }
  MixResult r{y.value(), Matrix(), Matrix()};
  tape.Backward(ag::SumAll(ag::Mul(y, ag::Constant(&tape, w))));
  r.dh = h->grad;
  r.dlogits = logits->grad;
  return r;
}

TEST_F(OpFixture, MaskedNoiseMixMatchesComposedGraphBitwise) {
  // Odd shape: no SIMD width or chunk size divides it.
  const int64_t n = 37, d = 33;
  Parameter* h = MakeParam(n, d);
  Parameter* logits = MakeParam(1, d, 2.f);
  Matrix eps(n, d);
  FillNormal(&eps, 0x5eedULL, 0.f, 0.1f);
  Matrix w(n, d);
  FillNormal(&w, 0xfeedULL, 0.f, 1.f);
  // Both inputs trainable, then each one frozen: every backward branch.
  for (int frozen = 0; frozen < 3; ++frozen) {
    h->trainable = frozen != 1;
    logits->trainable = frozen != 2;
    const MixResult fused = RunMix(h, logits, eps, w, true);
    const MixResult composed = RunMix(h, logits, eps, w, false);
    EXPECT_TRUE(SameBits(fused.y, composed.y)) << frozen;
    EXPECT_TRUE(SameBits(fused.dh, composed.dh)) << frozen;
    EXPECT_TRUE(SameBits(fused.dlogits, composed.dlogits)) << frozen;
    if (frozen != 1) {
      EXPECT_GT(MaxAbs(fused.dh), 0.f);
    }
    if (frozen != 2) {
      EXPECT_GT(MaxAbs(fused.dlogits), 0.f);
    }
  }
  h->trainable = logits->trainable = true;
}

TEST_F(OpFixture, MaskedNoiseMixGradient) {
  Parameter* h = MakeParam(5, 4);
  Parameter* logits = MakeParam(1, 4);
  Matrix eps(5, 4);
  FillNormal(&eps, 42, 0.f, 0.5f);
  for (Parameter* target : {h, logits}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      Var m = ag::Sigmoid(ag::Leaf(t, logits));
      return ag::MeanAll(
          ag::Square(ag::MaskedNoiseMix(ag::Leaf(t, h), m, eps)));
    });
    EXPECT_TRUE(res.ok) << res.max_abs_error;
  }
}

// ------------------------------------------------------- fused pair MLP

/// The six PairMlp inputs in argument order: xu, xv, w1, b1, w2, b2.
struct PairMlpParams {
  Parameter* p[6];
};

PairMlpParams MakePairMlp(ParamStore* store, Rng* rng, int64_t e, int64_t d) {
  const int64_t shapes[6][2] = {{e, d}, {e, d}, {2 * d, d},
                                {1, d}, {d, 1}, {1, 1}};
  PairMlpParams m;
  for (int i = 0; i < 6; ++i) {
    m.p[i] = store->CreateNormal("pair" + std::to_string(i), shapes[i][0],
                                 shapes[i][1], rng, 0.7f);
  }
  // Signed-zero traps: a -0 second-layer weight (its K = 1 backward GEMM
  // starts from +0) and an all-zero input row.
  m.p[4]->value[0] = -0.f;
  for (int64_t c = 0; c < d; ++c) m.p[0]->value.at(0, c) = 0.f;
  return m;
}

/// Logits and the six input gradients (empty for frozen inputs).
struct PairMlpResult {
  Matrix logits;
  Matrix grads[6];
};

/// The scorer MLP either as one PairMlp node or as the composed graph it
/// replaces, with the logits' gradient seeded to w.
PairMlpResult RunPairMlp(const PairMlpParams& m, const Matrix& w,
                         bool fused) {
  Tape tape;
  Var v[6];
  for (int i = 0; i < 6; ++i) {
    m.p[i]->ZeroGrad();
    v[i] = ag::Leaf(&tape, m.p[i]);
  }
  Var logits;
  if (fused) {
    logits = ag::PairMlp(v[0], v[1], v[2], v[3], v[4], v[5], 0.5f);
  } else {
    Var h = ag::LeakyRelu(
        ag::AddRowBroadcast(ag::MatMul(ag::ConcatCols(v[0], v[1]), v[2]),
                            v[3]),
        0.5f);
    logits = ag::AddRowBroadcast(ag::MatMul(h, v[4]), v[5]);
  }
  PairMlpResult r;
  r.logits = logits.value();
  tape.Backward(ag::SumAll(ag::Mul(logits, ag::Constant(&tape, w))));
  for (int i = 0; i < 6; ++i) {
    if (m.p[i]->trainable) r.grads[i] = m.p[i]->grad;
  }
  return r;
}

TEST_F(OpFixture, PairMlpMatchesComposedGraphBitwise) {
  const int64_t shapes[][2] = {{1, 1}, {5, 1}, {41, 13}, {1001, 13},
                               {4099, 32}};
  for (const auto& shape : shapes) {
    const int64_t e = shape[0], d = shape[1];
    const PairMlpParams m = MakePairMlp(&store_, &rng_, e, d);
    Matrix w(e, 1);
    FillNormal(&w, 0xab5eedULL + e, 0.f, 1.f);
    for (const bool scalar : {false, true}) {
      ForceScalarKernels(scalar);
      SetNumThreads(1);
      const PairMlpResult composed = RunPairMlp(m, w, false);
      for (int threads : {1, 2, 7}) {
        SetNumThreads(threads);
        const PairMlpResult fused = RunPairMlp(m, w, true);
        const std::string where = "E=" + std::to_string(e) +
                                  " d=" + std::to_string(d) +
                                  " threads=" + std::to_string(threads) +
                                  " scalar=" + std::to_string(scalar);
        EXPECT_TRUE(SameBits(fused.logits, composed.logits)) << where;
        for (int i = 0; i < 6; ++i) {
          EXPECT_TRUE(SameBits(fused.grads[i], composed.grads[i]))
              << "input " << i << " " << where;
        }
      }
    }
  }
  ForceScalarKernels(false);
  SetNumThreads(1);
}

TEST_F(OpFixture, PairMlpFrozenInputsMatchComposedGraphBitwise) {
  const PairMlpParams m = MakePairMlp(&store_, &rng_, 41, 13);
  Matrix w(41, 1);
  FillNormal(&w, 0xf00dULL, 0.f, 1.f);
  // Each input frozen in turn: every backward branch on its own.
  for (int frozen = 0; frozen < 6; ++frozen) {
    for (int i = 0; i < 6; ++i) m.p[i]->trainable = i != frozen;
    const PairMlpResult fused = RunPairMlp(m, w, true);
    const PairMlpResult composed = RunPairMlp(m, w, false);
    EXPECT_TRUE(SameBits(fused.logits, composed.logits)) << frozen;
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(SameBits(fused.grads[i], composed.grads[i]))
          << "input " << i << " frozen " << frozen;
      if (i != frozen) {
        EXPECT_GT(MaxAbs(fused.grads[i]), 0.f) << i;
      }
    }
  }
  for (Parameter* p : m.p) p->trainable = true;
}

TEST_F(OpFixture, PairMlpGradient) {
  const PairMlpParams m = MakePairMlp(&store_, &rng_, 5, 3);
  for (Parameter* target : m.p) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      Var v[6];
      for (int i = 0; i < 6; ++i) v[i] = ag::Leaf(t, m.p[i]);
      return ag::MeanAll(ag::Square(
          ag::PairMlp(v[0], v[1], v[2], v[3], v[4], v[5], 0.5f)));
    });
    EXPECT_TRUE(res.ok) << target->name << " " << res.max_abs_error;
  }
}

TEST_F(OpFixture, RowDotGradient) {
  Parameter* a = MakeParam(4, 3);
  Parameter* b = MakeParam(4, 3);
  for (Parameter* target : {a, b}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::MeanAll(ag::RowDot(ag::Leaf(t, a), ag::Leaf(t, b)));
    });
    EXPECT_TRUE(res.ok);
  }
}

// ------------------------------------------------------------- sparse ops

TEST_F(OpFixture, SpmmGradient) {
  CsrMatrix csr = CsrMatrix::FromCoo(
      3, 4, {{0, 1, 2.f}, {1, 0, -1.f}, {1, 3, 0.5f}, {2, 2, 1.5f}});
  Parameter* h = MakeParam(4, 3);
  GradCheckResult res = CheckGradient(h, [&](Tape* t) {
    return ag::MeanAll(ag::Square(ag::Spmm(&csr, ag::Leaf(t, h))));
  });
  EXPECT_TRUE(res.ok);
}

TEST_F(OpFixture, SpmmMatchesDense) {
  CsrMatrix csr = CsrMatrix::FromCoo(
      3, 4, {{0, 1, 2.f}, {1, 0, -1.f}, {1, 3, 0.5f}, {2, 2, 1.5f}});
  Matrix dense(4, 2);
  Rng rng(3);
  InitNormal(&dense, &rng);
  Matrix expected = MatMul(csr.ToDense(), dense);
  Matrix got;
  csr.Spmm(dense, &got);
  EXPECT_TRUE(AllClose(got, expected));
}

TEST_F(OpFixture, EdgeWeightedSpmmGradientBothInputs) {
  // Small bipartite graph: 3 users, 2 items.
  BipartiteGraph g(3, 2, {{0, 0}, {0, 1}, {1, 0}, {2, 1}});
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Parameter* w = MakeParam(static_cast<int64_t>(g.num_edges()), 1, 0.3f);
  for (int64_t i = 0; i < w->value.size(); ++i) {
    w->value[i] = 0.5f + std::fabs(w->value[i]);
  }
  Parameter* h = MakeParam(g.num_nodes(), 3);
  for (Parameter* target : {w, h}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::MeanAll(ag::Square(
          ag::EdgeWeightedSpmm(&adj, ag::Leaf(t, w), ag::Leaf(t, h))));
    });
    EXPECT_TRUE(res.ok) << res.max_abs_error;
  }
}

TEST_F(OpFixture, EdgeWeightedSpmmWithUnitWeightsMatchesSpmm) {
  BipartiteGraph g(4, 3, {{0, 0}, {1, 1}, {2, 2}, {3, 0}, {0, 2}});
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(1.f);
  Matrix h(g.num_nodes(), 4);
  Rng rng(11);
  InitNormal(&h, &rng);
  Tape tape;
  Var hv = ag::Constant(&tape, h);
  Var w = ag::Constant(&tape,
                       Matrix(static_cast<int64_t>(g.num_edges()), 1, 1.f));
  Var weighted = ag::EdgeWeightedSpmm(&adj, w, hv);
  Var plain = ag::Spmm(&adj.matrix, hv);
  EXPECT_TRUE(AllClose(weighted.value(), plain.value()));
}

/// Bipartite graph whose item degrees are skewed toward low ids.
BipartiteGraph SkewedGraph(int32_t users, int32_t items, int edges,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> es;
  for (int i = 0; i < edges; ++i) {
    const uint64_t a = rng.UniformInt(static_cast<uint64_t>(items));
    const uint64_t b = rng.UniformInt(static_cast<uint64_t>(items));
    es.push_back({static_cast<int32_t>(rng.UniformInt(
                      static_cast<uint64_t>(users))),
                  static_cast<int32_t>(std::min(a, b))});
  }
  return BipartiteGraph(users, items, std::move(es));
}

/// MHCN-style user hypergraph: co-interaction counts, row-normalized,
/// so the matrix is not its own transpose.
CsrMatrix CoInteractionHypergraph(const BipartiteGraph& g) {
  std::vector<CooEntry> entries;
  std::vector<int> counts(static_cast<size_t>(g.num_users()));
  for (int32_t u = 0; u < g.num_users(); ++u) {
    std::fill(counts.begin(), counts.end(), 0);
    int total = 0;
    for (int32_t v : g.ItemsOf(u)) {
      for (int32_t u2 : g.UsersOf(v)) {
        if (u2 != u) {
          ++counts[static_cast<size_t>(u2)];
          ++total;
        }
      }
    }
    for (int32_t u2 = 0; u2 < g.num_users(); ++u2) {
      const int c = counts[static_cast<size_t>(u2)];
      if (c > 0) {
        entries.push_back({u, u2, static_cast<float>(c) / total});
      }
    }
  }
  return CsrMatrix::FromCoo(g.num_users(), g.num_users(), std::move(entries));
}

/// Serial scatter reference for Aᵀ·up: each output row takes its terms
/// in ascending row of `a`.
Matrix ScatterT(const CsrMatrix& a, const std::vector<float>& values,
                const Matrix& up) {
  Matrix ref(a.cols(), up.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      for (int64_t c = 0; c < up.cols(); ++c) {
        ref.at(a.col_idx()[k], c) +=
            values[static_cast<size_t>(k)] * up.at(r, c);
      }
    }
  }
  return ref;
}

TEST_F(OpFixture, SparseGradientsMatchSerialReferencesBitwise) {
  const BipartiteGraph g = SkewedGraph(300, 200, 4000, 31);
  const CsrMatrix hyper = CoInteractionHypergraph(g);
  ASSERT_FALSE(hyper.symmetric());
  for (const float self_loop : {0.f, 1.f}) {
    const NormalizedAdjacency adj = g.BuildNormalizedAdjacency(self_loop);
    for (const int64_t d : {13, 32}) {
      Parameter* w = MakeParam(g.num_edges(), 1, 0.3f);
      Parameter* h = MakeParam(g.num_nodes(), d);
      Parameter* x = MakeParam(g.num_users(), d);
      Matrix up(g.num_nodes(), d), up_users(g.num_users(), d);
      FillNormal(&up, 0x5eedULL + d, 0.f, 1.f);
      FillNormal(&up_users, 0x5eedULL + 2 * d, 0.f, 1.f);
      const std::vector<float> w_vec(w->value.data(),
                                     w->value.data() + w->value.size());
      const std::vector<float> values = adj.WeightedValues(w_vec);
      const Matrix ref_dh = ScatterT(adj.matrix, values, up);
      const Matrix ref_dx = ScatterT(hyper, hyper.values(), up_users);
      for (const bool scalar : {false, true}) {
        ForceScalarKernels(scalar);
        // dw[edge(k)] += base[k] * <up[row(k)], h[col(k)]> in ascending k,
        // with the active table's dot.
        const simd::KernelTable& kt = simd::ActiveKernels();
        Matrix ref_dw(g.num_edges(), 1);
        for (int64_t r = 0; r < adj.matrix.rows(); ++r) {
          for (int64_t k = adj.matrix.row_ptr()[r];
               k < adj.matrix.row_ptr()[r + 1]; ++k) {
            const int64_t e = adj.nnz_to_edge[static_cast<size_t>(k)];
            if (e < 0) continue;
            ref_dw[e] += adj.base_values[static_cast<size_t>(k)] *
                         static_cast<float>(kt.dot(
                             up.row(r),
                             h->value.row(adj.matrix.col_idx()[k]), d));
          }
        }
        for (const int threads : {1, 2, 7}) {
          SetNumThreads(threads);
          const std::string where = "self_loop=" + std::to_string(self_loop) +
                                    " d=" + std::to_string(d) +
                                    " threads=" + std::to_string(threads) +
                                    " scalar=" + std::to_string(scalar);
          w->ZeroGrad();
          h->ZeroGrad();
          x->ZeroGrad();
          Tape tape;
          Var y = ag::EdgeWeightedSpmm(&adj, ag::Leaf(&tape, w),
                                       ag::Leaf(&tape, h));
          Var yu = ag::Spmm(&hyper, ag::Leaf(&tape, x));
          tape.Backward(ag::Add(
              ag::SumAll(ag::Mul(y, ag::Constant(&tape, up))),
              ag::SumAll(ag::Mul(yu, ag::Constant(&tape, up_users)))));
          EXPECT_TRUE(SameBits(h->grad, ref_dh)) << "dH " << where;
          EXPECT_TRUE(SameBits(w->grad, ref_dw)) << "dw " << where;
          EXPECT_TRUE(SameBits(x->grad, ref_dx)) << "Spmm dx " << where;
        }
      }
    }
  }
  ForceScalarKernels(false);
  SetNumThreads(1);
}

// ----------------------------------------------------------- composite ops

TEST_F(OpFixture, BprLossGradient) {
  Parameter* pos = MakeParam(6, 1);
  Parameter* neg = MakeParam(6, 1);
  for (Parameter* target : {pos, neg}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::BprLoss(ag::Leaf(t, pos), ag::Leaf(t, neg));
    });
    EXPECT_TRUE(res.ok);
  }
}

TEST_F(OpFixture, InfoNceGradientAndValue) {
  Parameter* a = MakeParam(5, 4);
  Parameter* b = MakeParam(5, 4);
  for (Parameter* target : {a, b}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::InfoNceLoss(ag::Leaf(t, a), ag::Leaf(t, b), 0.5f);
    });
    EXPECT_TRUE(res.ok) << res.max_abs_error;
  }
  // Identical, well-separated views should give lower loss than random
  // pairings: check InfoNCE decreases when b == a.
  Tape t1;
  Var la = ag::Leaf(&t1, a);
  double same = ag::InfoNceLoss(la, ag::Leaf(&t1, a), 0.5f).value().scalar();
  double diff = ag::InfoNceLoss(la, ag::Leaf(&t1, b), 0.5f).value().scalar();
  EXPECT_LT(same, diff);
}

TEST_F(OpFixture, GaussianKlGradientAndZeroAtStandardNormal) {
  Parameter* mu = MakeParam(4, 3);
  Parameter* raw = MakeParam(4, 3);
  for (Parameter* target : {mu, raw}) {
    GradCheckResult res = CheckGradient(target, [&](Tape* t) {
      return ag::GaussianKl(ag::Leaf(t, mu), ag::Leaf(t, raw));
    });
    EXPECT_TRUE(res.ok);
  }
  // KL is minimized (≈0) at mu=0, sigma=1 (softplus(raw)=1 => raw≈0.5413).
  mu->value.Zero();
  raw->value.Fill(0.54132485f);
  Tape t;
  double kl = ag::GaussianKl(ag::Leaf(&t, mu), ag::Leaf(&t, raw))
                  .value()
                  .scalar();
  EXPECT_NEAR(kl, 0.0, 1e-4);
}

TEST_F(OpFixture, DropoutScalesAndMasks) {
  Parameter* a = MakeParam(50, 40, 1.f);
  a->value.Fill(1.f);
  Tape tape;
  Rng rng(5);
  Var d = ag::Dropout(ag::Leaf(&tape, a), 0.5f, &rng);
  int zeros = 0;
  for (int64_t i = 0; i < d.value().size(); ++i) {
    const float v = d.value()[i];
    EXPECT_TRUE(v == 0.f || std::fabs(v - 2.f) < 1e-6);
    zeros += v == 0.f;
  }
  const double frac = static_cast<double>(zeros) / d.value().size();
  EXPECT_NEAR(frac, 0.5, 0.05);
  // Mean is preserved in expectation (inverted dropout).
  EXPECT_NEAR(MeanAll(d.value()), 1.0, 0.1);
}

// ------------------------------------------------------------- optimizers

TEST_F(OpFixture, SgdStepReducesQuadratic) {
  // loss = mean(p^2) => gradient p * 2/16; decay per step is
  // (1 - lr/8), so lr=1 over 50 steps shrinks the norm by ~1e-3.
  Parameter* p = MakeParam(4, 4, 1.f);
  Sgd sgd(1.0f);
  double prev = SquaredNorm(p->value);
  for (int i = 0; i < 50; ++i) {
    Tape tape;
    Var loss = ag::MeanAll(ag::Square(ag::Leaf(&tape, p)));
    tape.Backward(loss);
    sgd.Step(&store_);
  }
  EXPECT_LT(SquaredNorm(p->value), prev * 0.2);
}

TEST_F(OpFixture, AdamConvergesToTarget) {
  Parameter* p = MakeParam(3, 3, 1.f);
  Matrix target(3, 3);
  Rng rng(21);
  InitNormal(&target, &rng, 0.f, 1.f);
  Adam adam(0.05f);
  for (int i = 0; i < 300; ++i) {
    Tape tape;
    Var diff = ag::Sub(ag::Leaf(&tape, p), ag::Constant(&tape, target));
    Var loss = ag::MeanAll(ag::Square(diff));
    tape.Backward(loss);
    adam.Step(&store_);
  }
  EXPECT_TRUE(AllClose(p->value, target, 1e-2f, 1e-2f));
}

TEST_F(OpFixture, BackwardAccumulatesIntoSharedLeaf) {
  // One parameter feeding two branches: gradient must be the sum.
  Parameter* p = MakeParam(2, 2, 1.f);
  GradCheckResult res = CheckGradient(p, [&](Tape* t) {
    Var x = ag::Leaf(t, p);
    return ag::Add(ag::MeanAll(ag::Square(x)),
                   ag::MeanAll(ag::Sigmoid(x)));
  });
  EXPECT_TRUE(res.ok);
}

TEST_F(OpFixture, BackwardRequiresScalarRoot) {
  Parameter* p = MakeParam(2, 3);
  Tape tape;
  Var x = ag::Leaf(&tape, p);
  EXPECT_DEATH(tape.Backward(x), "scalar");
}

}  // namespace
}  // namespace graphaug
