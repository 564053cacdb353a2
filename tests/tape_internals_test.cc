// White-box tests of the autograd tape machinery: gradient-need
// propagation and pruning, constant handling, leaf accumulation across
// multiple uses, tape reuse, shape policing, and gradient-buffer
// ownership (closures that consume their upstream gradient).

#include <gtest/gtest.h>

#include <cstring>

#include "autograd/ops.h"
#include "data/dataset.h"
#include "eval/evaluator.h"
#include "graph/csr.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

TEST(TapeInternalsTest, ConstantsDoNotNeedGrad) {
  Tape tape;
  Var c = tape.Constant(Matrix(2, 2, 1.f));
  EXPECT_FALSE(tape.NeedsGrad(c.id()));
  // An op over constants only also needs no gradient.
  Var d = ag::Add(c, c);
  EXPECT_FALSE(tape.NeedsGrad(d.id()));
}

TEST(TapeInternalsTest, NeedsGradPropagatesThroughOps) {
  Rng rng(1);
  ParamStore store;
  Parameter* p = store.CreateNormal("p", 2, 3, &rng);
  Tape tape;
  Var leaf = tape.Leaf(p);
  Var c = tape.Constant(Matrix(2, 3, 1.f));
  EXPECT_TRUE(tape.NeedsGrad(leaf.id()));
  Var mixed = ag::Mul(leaf, c);
  EXPECT_TRUE(tape.NeedsGrad(mixed.id()));
  // Frozen parameter: no gradient tracking.
  p->trainable = false;
  Tape tape2;
  Var frozen = tape2.Leaf(p);
  EXPECT_FALSE(tape2.NeedsGrad(frozen.id()));
  p->trainable = true;
}

TEST(TapeInternalsTest, FrozenParameterReceivesNoGradient) {
  Rng rng(2);
  ParamStore store;
  Parameter* a = store.CreateNormal("a", 2, 2, &rng);
  Parameter* b = store.CreateNormal("b", 2, 2, &rng);
  b->trainable = false;
  store.ZeroGrad();
  Tape tape;
  Var loss = ag::MeanAll(ag::Mul(tape.Leaf(a), tape.Leaf(b)));
  tape.Backward(loss);
  EXPECT_GT(MaxAbs(a->grad), 0.f);
  EXPECT_FLOAT_EQ(MaxAbs(b->grad), 0.f);
}

TEST(TapeInternalsTest, SameParameterUsedTwiceAccumulates) {
  // loss = mean(p) + mean(p) => dL/dp = 2/n everywhere.
  ParamStore store;
  Parameter* p = store.Create("p", 2, 2);
  p->value.Fill(3.f);
  store.ZeroGrad();
  Tape tape;
  Var l1 = ag::MeanAll(tape.Leaf(p));
  Var l2 = ag::MeanAll(tape.Leaf(p));
  tape.Backward(ag::Add(l1, l2));
  for (int64_t i = 0; i < p->grad.size(); ++i) {
    EXPECT_NEAR(p->grad[i], 2.f / 4.f, 1e-6);
  }
}

TEST(TapeInternalsTest, GradAccumulatesAcrossBackwardCalls) {
  // Two independent tapes, no ZeroGrad in between: gradients add.
  ParamStore store;
  Parameter* p = store.Create("p", 1, 2);
  p->value.Fill(1.f);
  store.ZeroGrad();
  for (int i = 0; i < 3; ++i) {
    Tape tape;
    Var loss = ag::SumAll(tape.Leaf(p));
    tape.Backward(loss);
  }
  EXPECT_FLOAT_EQ(p->grad[0], 3.f);
}

TEST(TapeInternalsTest, ResetClearsNodes) {
  Tape tape;
  tape.Constant(Matrix(1, 1, 1.f));
  tape.Constant(Matrix(1, 1, 2.f));
  EXPECT_EQ(tape.size(), 2);
  tape.Reset();
  EXPECT_EQ(tape.size(), 0);
}

TEST(TapeInternalsTest, ValuesVisibleImmediately) {
  Tape tape;
  Var a = tape.Constant(Matrix(1, 2, std::vector<float>{3.f, 4.f}));
  Var s = ag::Scale(a, 2.f);
  EXPECT_FLOAT_EQ(s.value()[0], 6.f);
  EXPECT_FLOAT_EQ(s.value()[1], 8.f);
  EXPECT_EQ(s.rows(), 1);
  EXPECT_EQ(s.cols(), 2);
}

TEST(TapeInternalsTest, ShapeMismatchInAccumulateAborts) {
  ParamStore store;
  Parameter* p = store.Create("p", 2, 2);
  Tape tape;
  Var leaf = tape.Leaf(p);
  EXPECT_DEATH(tape.AccumulateGrad(leaf.id(), Matrix(3, 3)), "shape");
}

/// (rows x cols) matrix of distinct, non-trivial values.
Matrix Ramp(int64_t rows, int64_t cols, float scale) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m[i] = scale * static_cast<float>(i % 7 - 3) + 0.125f * i;
  }
  return m;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// sum(y ⊙ w): seeds node y's gradient with exactly w.
Var WeightedSum(Tape* tape, Var y, const Matrix& w) {
  return ag::SumAll(ag::Mul(y, tape->Constant(w)));
}

TEST(TapeInternalsTest, BothAccumulateOverloadsReportShapeMismatch) {
  ParamStore store;
  Parameter* p = store.Create("p", 2, 2);
  Tape tape;
  Var leaf = tape.Leaf(p);
  Matrix g(3, 3);
  EXPECT_DEATH(tape.AccumulateGrad(leaf.id(), std::move(g)),
               "gradient shape \\[3x3\\] vs value \\[2x2\\]");
  const Matrix& lvalue = g;
  EXPECT_DEATH(tape.AccumulateGrad(leaf.id(), lvalue),
               "gradient shape \\[3x3\\] vs value \\[2x2\\]");
}

TEST(TapeInternalsTest, AddOfSameNodeSumsBothSides) {
  // Add(x, x) copies `up` into x, then adds the moved buffer.
  const Matrix w = Ramp(3, 5, 0.5f);
  ParamStore store;
  Parameter* p = store.Create("p", 3, 5);
  store.ZeroGrad();
  {
    Tape tape;
    Var x = ag::Scale(tape.Leaf(p), 3.f);  // an interior node
    tape.Backward(WeightedSum(&tape, ag::Add(x, x), w));
  }
  Matrix expected(3, 5);
  for (int64_t i = 0; i < w.size(); ++i) expected[i] = (w[i] + w[i]) * 3.f;
  EXPECT_TRUE(SameBits(p->grad, expected));

  // The same with the leaf itself on both sides.
  store.ZeroGrad();
  Tape tape;
  Var leaf = tape.Leaf(p);
  tape.Backward(WeightedSum(&tape, ag::Add(leaf, leaf), w));
  for (int64_t i = 0; i < w.size(); ++i) expected[i] = w[i] + w[i];
  EXPECT_TRUE(SameBits(p->grad, expected));
}

TEST(TapeInternalsTest, PassThroughChainHandsGradientToLeaf) {
  // Every op below forwards `up` unchanged to its first input, so the one
  // buffer travels the whole chain and the leaf sees exactly w.
  const Matrix w = Ramp(4, 3, -0.75f);
  ParamStore store;
  Parameter* p = store.Create("p", 4, 3);
  Parameter* bias = store.Create("bias", 1, 3);
  bias->trainable = false;
  store.ZeroGrad();
  Tape tape;
  Var c = tape.Constant(Ramp(4, 3, 0.25f));
  Var x = ag::AddScalar(tape.Leaf(p), 2.f);
  x = ag::Add(x, c);
  x = ag::Sub(x, c);
  x = ag::AddRowBroadcast(x, tape.Leaf(bias));
  x = ag::Add(c, x);
  tape.Backward(WeightedSum(&tape, x, w));
  EXPECT_TRUE(SameBits(p->grad, w));
}

TEST(TapeInternalsTest, NoGradTargetDoesNotConsumeBuffer) {
  Tape tape;
  Var c = tape.Constant(Matrix(2, 2, 1.f));
  Matrix g(2, 2, 1.5f);
  tape.AccumulateGrad(c.id(), std::move(g));
  ASSERT_EQ(g.size(), 4);  // not moved from: the node needs no gradient
  for (int64_t i = 0; i < g.size(); ++i) EXPECT_EQ(g[i], 1.5f);

  // Through the ops: the no-grad side of each binary op must leave the
  // gradient for the side that needs it.
  const Matrix w = Ramp(2, 2, 1.f);
  ParamStore store;
  Parameter* p = store.Create("p", 2, 2);
  for (int which = 0; which < 3; ++which) {
    store.ZeroGrad();
    Tape t2;
    Var k = t2.Constant(Matrix(2, 2, 1.f));
    Var x = t2.Leaf(p);
    Var y = which == 0 ? ag::Add(k, x) : which == 1 ? ag::Add(x, k)
                                                    : ag::Sub(k, x);
    t2.Backward(WeightedSum(&t2, y, w));
    for (int64_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(p->grad[i], which == 2 ? -w[i] : w[i]) << which;
    }
  }
}

TEST(TapeInternalsTest, ThreeConsumersAccumulateInReverseOrder) {
  // x feeds three ops; backward visits them newest first, so x's
  // gradient is ((d3 + d2) + d1) with d1..d3 the per-consumer terms.
  const Matrix w = Ramp(3, 4, 0.5f);
  const Matrix k = Ramp(3, 4, -0.25f);
  ParamStore store;
  Parameter* p = store.Create("p", 3, 4);
  p->value = Ramp(3, 4, 0.3f);
  store.ZeroGrad();
  Tape tape;
  Var x = ag::Scale(tape.Leaf(p), 1.5f);
  Var a = ag::Mul(x, tape.Constant(k));  // d1 = w * k
  Var b = ag::Square(x);                 // d2 = w * 2x
  Var c = ag::AddScalar(x, 1.f);         // d3 = w
  Var y = ag::Add(ag::Add(a, b), c);
  tape.Backward(WeightedSum(&tape, y, w));
  const Matrix& xv = x.value();
  Matrix expected(3, 4);
  for (int64_t i = 0; i < w.size(); ++i) {
    const float d1 = w[i] * k[i], d2 = w[i] * (2.f * xv[i]), d3 = w[i];
    expected[i] = ((d3 + d2) + d1) * 1.5f;
  }
  EXPECT_TRUE(SameBits(p->grad, expected));
}

TEST(TapeInternalsTest, DeepChainGradientIsExact) {
  // f(p) = mean(((p * 2 + 1)^2)) — closed-form gradient check through a
  // 4-op chain: d/dp = 2 * (2p + 1) * 2 / n.
  ParamStore store;
  Parameter* p = store.Create("p", 1, 4);
  for (int64_t i = 0; i < 4; ++i) p->value[i] = static_cast<float>(i);
  store.ZeroGrad();
  Tape tape;
  Var x = ag::AddScalar(ag::Scale(tape.Leaf(p), 2.f), 1.f);
  tape.Backward(ag::MeanAll(ag::Square(x)));
  for (int64_t i = 0; i < 4; ++i) {
    const float expected = 2.f * (2.f * p->value[i] + 1.f) * 2.f / 4.f;
    EXPECT_NEAR(p->grad[i], expected, 1e-5);
  }
}

TEST(CsrEdgeCaseTest, EmptyRowsAndMatrix) {
  // Matrix with empty rows must propagate zeros, not garbage.
  CsrMatrix m = CsrMatrix::FromCoo(4, 3, {{1, 0, 2.f}});
  Matrix x(3, 2, 1.f);
  Matrix out;
  m.Spmm(x, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.f);
  EXPECT_FLOAT_EQ(out.at(3, 1), 0.f);
  // Fully empty matrix.
  CsrMatrix empty = CsrMatrix::FromCoo(2, 2, {});
  EXPECT_EQ(empty.nnz(), 0);
  Matrix out2;
  empty.Spmm(Matrix(2, 2, 1.f), &out2);
  EXPECT_FLOAT_EQ(MaxAbs(out2), 0.f);
}

TEST(CsrEdgeCaseTest, RowDegreesMatchPattern) {
  CsrMatrix m = CsrMatrix::FromCoo(3, 3,
                                   {{0, 0, 1.f}, {0, 2, 1.f}, {2, 1, 1.f}});
  auto deg = m.RowDegrees();
  EXPECT_EQ(deg[0], 2);
  EXPECT_EQ(deg[1], 0);
  EXPECT_EQ(deg[2], 1);
}

TEST(EvaluatorDeterminismTest, TiedScoresBreakByItemId) {
  // All-equal scores: the ranking must be deterministic (ascending id),
  // so repeated evaluations agree bit-for-bit.
  Dataset d;
  d.num_users = 1;
  d.num_items = 6;
  d.train_edges = {{0, 0}};
  d.test_edges = {{0, 1}};
  Evaluator eval(&d, {1});
  auto flat = [&](const std::vector<int32_t>& users) {
    return Matrix(static_cast<int64_t>(users.size()), d.num_items, 5.f);
  };
  TopKMetrics m1 = eval.Evaluate(flat);
  TopKMetrics m2 = eval.Evaluate(flat);
  // Item 0 is masked (train), so item 1 ranks first among the ties.
  EXPECT_DOUBLE_EQ(m1.RecallAt(1), 1.0);
  EXPECT_DOUBLE_EQ(m1.RecallAt(1), m2.RecallAt(1));
}

}  // namespace
}  // namespace graphaug
