#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "obs/scope.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/ops.h"

namespace graphaug::ag {
namespace {

/// Elements per chunk of MapElements, as for the tensor elementwise ops.
constexpr int64_t kMapGrain = 1 << 15;

/// Elementwise y[i] = fn(x[i]) over the parallel runtime. `fn` is a
/// template parameter so the per-element call inlines.
template <typename Fn>
Matrix MapElements(const Matrix& a, Fn fn) {
  Matrix out = Matrix::Uninit(a.rows(), a.cols());
  const float* x = a.data();
  float* y = out.data();
  ParallelFor(0, a.size(), kMapGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) y[i] = fn(x[i]);
  });
  return out;
}

/// Emits a unary elementwise op y = fwd(x) whose derivative dydx(x) is
/// expressed in terms of the *input* value. `name` must be a string
/// literal; it labels the op for the autograd profiler.
template <typename Fwd, typename Dydx>
Var UnaryOp(const char* name, Var a, Fwd fwd, Dydx dydx) {
  Tape* t = a.tape();
  const double n = static_cast<double>(a.value().size());
  GA_AG_OP(name, n, 8 * n);
  Matrix y = MapElements(a.value(), fwd);
  const int aid = a.id();
  const bool ng = t->NeedsGrad(aid);
  return t->Emit(std::move(y), ng, [aid, dydx](Tape* t, Matrix& up) {
    // dx = up * dydx(x), written over `up` and handed on.
    const float* x = t->ValueOf(aid).data();
    float* g = up.data();
    ParallelFor(0, up.size(), kMapGrain, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) g[i] = g[i] * dydx(x[i]);
    });
    t->AccumulateGrad(aid, std::move(up));
  });
}

}  // namespace

Var Leaf(Tape* tape, Parameter* param) { return tape->Leaf(param); }

Var Constant(Tape* tape, Matrix value) {
  return tape->Constant(std::move(value));
}

Var Add(Var a, Var b) {
  Tape* t = a.tape();
  const double n = static_cast<double>(a.value().size());
  GA_AG_OP("Add", n, 12 * n);
  const int aid = a.id(), bid = b.id();
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(bid);
  return t->Emit(graphaug::Add(a.value(), b.value()), ng,
                 [aid, bid](Tape* t, Matrix& up) {
                   // `up` goes to the last input that takes it; the first
                   // gets a copy only when both need gradients.
                   if (t->NeedsGrad(bid)) {
                     t->AccumulateGrad(aid, up);
                     t->AccumulateGrad(bid, std::move(up));
                   } else {
                     t->AccumulateGrad(aid, std::move(up));
                   }
                 });
}

Var Sub(Var a, Var b) {
  Tape* t = a.tape();
  const double n = static_cast<double>(a.value().size());
  GA_AG_OP("Sub", n, 12 * n);
  const int aid = a.id(), bid = b.id();
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(bid);
  return t->Emit(graphaug::Sub(a.value(), b.value()), ng,
                 [aid, bid](Tape* t, Matrix& up) {
                   Matrix neg_up;
                   if (t->NeedsGrad(bid)) neg_up = graphaug::Scale(up, -1.f);
                   t->AccumulateGrad(aid, std::move(up));
                   t->AccumulateGrad(bid, std::move(neg_up));
                 });
}

Var Mul(Var a, Var b) {
  Tape* t = a.tape();
  const double n = static_cast<double>(a.value().size());
  GA_AG_OP("Mul", n, 12 * n);
  const int aid = a.id(), bid = b.id();
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(bid);
  return t->Emit(graphaug::Mul(a.value(), b.value()), ng,
                 [aid, bid](Tape* t, Matrix& up) {
                   t->AccumulateGrad(aid, graphaug::Mul(up, t->ValueOf(bid)));
                   t->AccumulateGrad(bid, graphaug::Mul(up, t->ValueOf(aid)));
                 });
}

Var Neg(Var a) { return Scale(a, -1.f); }

Var Scale(Var a, float s) {
  Tape* t = a.tape();
  const double n = static_cast<double>(a.value().size());
  GA_AG_OP("Scale", n, 8 * n);
  const int aid = a.id();
  return t->Emit(graphaug::Scale(a.value(), s), t->NeedsGrad(aid),
                 [aid, s](Tape* t, Matrix& up) {
                   t->AccumulateGrad(aid, graphaug::Scale(up, s));
                 });
}

Var AddScalar(Var a, float s) {
  Tape* t = a.tape();
  const double n = static_cast<double>(a.value().size());
  GA_AG_OP("AddScalar", n, 8 * n);
  const int aid = a.id();
  return t->Emit(MapElements(a.value(), [s](float x) { return x + s; }),
                 t->NeedsGrad(aid), [aid](Tape* t, Matrix& up) {
                   t->AccumulateGrad(aid, std::move(up));
                 });
}

Var Sigmoid(Var a) {
  auto stable_sigmoid = [](float x) {
    return x >= 0 ? 1.f / (1.f + std::exp(-x))
                  : std::exp(x) / (1.f + std::exp(x));
  };
  return UnaryOp("Sigmoid", a, stable_sigmoid, [stable_sigmoid](float x) {
    const float s = stable_sigmoid(x);
    return s * (1.f - s);
  });
}

Var Tanh(Var a) {
  return UnaryOp("Tanh", a, [](float x) { return std::tanh(x); },
                 [](float x) {
                   const float th = std::tanh(x);
                   return 1.f - th * th;
                 });
}

Var Relu(Var a) {
  return UnaryOp("Relu", a, [](float x) { return x > 0 ? x : 0.f; },
                 [](float x) { return x > 0 ? 1.f : 0.f; });
}

Var LeakyRelu(Var a, float slope) {
  return UnaryOp("LeakyRelu", a, [slope](float x) { return x > 0 ? x : slope * x; },
                 [slope](float x) { return x > 0 ? 1.f : slope; });
}

Var Exp(Var a) {
  return UnaryOp("Exp", a, [](float x) { return std::exp(x); },
                 [](float x) { return std::exp(x); });
}

Var Log(Var a, float eps) {
  return UnaryOp("Log", a, [eps](float x) { return std::log(x + eps); },
                 [eps](float x) { return 1.f / (x + eps); });
}

Var Softplus(Var a) {
  return UnaryOp("Softplus", a,
                 [](float x) {
                   // Stable: softplus(x) = max(x,0) + log1p(exp(-|x|)).
                   return std::max(x, 0.f) + std::log1p(std::exp(-std::fabs(x)));
                 },
                 [](float x) {
                   return x >= 0 ? 1.f / (1.f + std::exp(-x))
                                 : std::exp(x) / (1.f + std::exp(x));
                 });
}

Var Square(Var a) {
  return UnaryOp("Square", a, [](float x) { return x * x; },
                 [](float x) { return 2.f * x; });
}

Var Dropout(Var a, float p, Rng* rng) {
  if (p <= 0.f) return a;
  GA_CHECK_LT(p, 1.f);
  Tape* t = a.tape();
  const double n = static_cast<double>(a.value().size());
  GA_AG_OP("Dropout", n, 8 * n);
  const int aid = a.id();
  const float scale = 1.f / (1.f - p);
  auto mask = std::make_shared<std::vector<float>>(a.value().size());
  Matrix y(a.rows(), a.cols());
  for (int64_t i = 0; i < y.size(); ++i) {
    const float m = rng->Bernoulli(p) ? 0.f : scale;
    (*mask)[static_cast<size_t>(i)] = m;
    y[i] = a.value()[i] * m;
  }
  return t->Emit(std::move(y), t->NeedsGrad(aid),
                 [aid, mask](Tape* t, Matrix& up) {
                   Matrix g(up.rows(), up.cols());
                   for (int64_t i = 0; i < up.size(); ++i) {
                     g[i] = up[i] * (*mask)[static_cast<size_t>(i)];
                   }
                   t->AccumulateGrad(aid, std::move(g));
                 });
}

Var MatMul(Var a, Var b, bool trans_a, bool trans_b) {
  Tape* t = a.tape();
  const int aid = a.id(), bid = b.id();
  // 2*m*k*n multiply-adds; bytes = the three operand matrices once each.
  const double k = static_cast<double>(trans_a ? a.rows() : a.cols());
  const double m = static_cast<double>(trans_a ? a.cols() : a.rows());
  const double nn = static_cast<double>(trans_b ? b.rows() : b.cols());
  GA_AG_OP("MatMul", 2 * m * k * nn, 4 * (m * k + k * nn + m * nn));
  Matrix y;
  Gemm(a.value(), trans_a, b.value(), trans_b, 1.f, 0.f, &y);
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(bid);
  return t->Emit(
      std::move(y), ng, [aid, bid, trans_a, trans_b](Tape* t, Matrix& up) {
        const Matrix& av = t->ValueOf(aid);
        const Matrix& bv = t->ValueOf(bid);
        if (t->NeedsGrad(aid)) {
          Matrix ga;
          if (!trans_a) {
            // dA = dY * op(B)^T
            Gemm(up, false, bv, !trans_b, 1.f, 0.f, &ga);
          } else {
            // A appears transposed: dA = op(B) * dY^T
            Gemm(bv, trans_b, up, true, 1.f, 0.f, &ga);
          }
          t->AccumulateGrad(aid, std::move(ga));
        }
        if (t->NeedsGrad(bid)) {
          Matrix gb;
          if (!trans_b) {
            // dB = op(A)^T * dY
            Gemm(av, !trans_a, up, false, 1.f, 0.f, &gb);
          } else {
            // B appears transposed: dB = dY^T * op(A)
            Gemm(up, true, av, trans_a, 1.f, 0.f, &gb);
          }
          t->AccumulateGrad(bid, std::move(gb));
        }
      });
}

Var PairMlp(Var xu, Var xv, Var w1, Var b1, Var w2, Var b2, float slope) {
  Tape* t = xu.tape();
  const double m = static_cast<double>(xu.rows());
  const double k = static_cast<double>(w1.rows());
  const double n = static_cast<double>(w1.cols());
  GA_AG_OP("PairMlp", 2 * m * n * (k + 1),
           4 * (m * k + k * n + m * n + m));
  Matrix hidden, logits;
  PairMlpForward(xu.value(), xv.value(), w1.value(), b1.value(), w2.value(),
                 b2.value(), slope, &hidden, &logits);
  const int uid = xu.id(), vid = xv.id(), w1id = w1.id(), b1id = b1.id(),
            w2id = w2.id(), b2id = b2.id();
  bool ng = false;
  for (int id : {uid, vid, w1id, b1id, w2id, b2id}) ng |= t->NeedsGrad(id);
  auto h = std::make_shared<Matrix>(std::move(hidden));
  return t->Emit(std::move(logits), ng, [=](Tape* t, Matrix& up) {
    PairMlpGrads g;
    g.need_xu = t->NeedsGrad(uid);
    g.need_xv = t->NeedsGrad(vid);
    g.need_w1 = t->NeedsGrad(w1id);
    g.need_b1 = t->NeedsGrad(b1id);
    g.need_w2 = t->NeedsGrad(w2id);
    g.need_b2 = t->NeedsGrad(b2id);
    PairMlpBackward(up, t->ValueOf(uid), t->ValueOf(vid), t->ValueOf(w1id),
                    t->ValueOf(w2id), *h, slope, &g);
    // The composed graph's arrival order, last layer first.
    t->AccumulateGrad(b2id, std::move(g.db2));
    t->AccumulateGrad(w2id, std::move(g.dw2));
    t->AccumulateGrad(b1id, std::move(g.db1));
    t->AccumulateGrad(w1id, std::move(g.dw1));
    t->AccumulateGrad(uid, std::move(g.dxu));
    t->AccumulateGrad(vid, std::move(g.dxv));
  });
}

Var Spmm(const CsrMatrix* csr, Var dense) {
  Tape* t = dense.tape();
  const int did = dense.id();
  const double d = static_cast<double>(dense.cols());
  const double nnz = static_cast<double>(csr->nnz());
  GA_AG_OP("Spmm", 2 * nnz * d,
           8 * nnz + 4 * d * (csr->rows() + csr->cols()));
  Matrix y;
  csr->Spmm(dense.value(), &y);
  return t->Emit(std::move(y), t->NeedsGrad(did),
                 [csr, did](Tape* t, Matrix& up) {
                   Matrix g;
                   csr->SpmmT(up, &g);
                   t->AccumulateGrad(did, std::move(g));
                 });
}

Var EdgeWeightedSpmm(const NormalizedAdjacency* adj, Var edge_w, Var dense) {
  Tape* t = dense.tape();
  const int wid = edge_w.id(), did = dense.id();
  const double fd = static_cast<double>(dense.cols());
  const double fnnz = static_cast<double>(adj->matrix.nnz());
  GA_AG_OP("EdgeWeightedSpmm", 2 * fnnz * fd,
           12 * fnnz + 4 * fd * (adj->matrix.rows() + adj->matrix.cols()));
  const CsrMatrix& m = adj->matrix;
  GA_CHECK_EQ(edge_w.cols(), 1);
  const Matrix& w = edge_w.value();
  const Matrix& h = dense.value();
  GA_CHECK_EQ(h.rows(), m.cols());
  GA_CHECK(m.symmetric()) << "EdgeWeightedSpmm needs a symmetric adjacency";

  // Forward: out[r] += base[k] * w[edge(k)] * h[col(k)]. Row-parallel;
  // output rows are disjoint so any thread count is bitwise identical.
  auto values = std::make_shared<std::vector<float>>(
      adj->WeightedValues(std::vector<float>(w.data(), w.data() + w.size())));
  Matrix y(m.rows(), h.cols());
  m.SpmmValues(values->data(), h, &y);

  const bool ng = t->NeedsGrad(wid) || t->NeedsGrad(did);
  return t->Emit(std::move(y), ng, [adj, wid, did, values](Tape* t,
                                                           Matrix& up) {
    const CsrMatrix& m = adj->matrix;
    const auto& row_ptr = m.row_ptr();
    const auto& col_idx = m.col_idx();
    const Matrix& h = t->ValueOf(did);
    const int64_t d = h.cols();
    if (t->NeedsGrad(did)) {
      // dH = Wᵀ·up = W·up: the weighted matrix is bitwise symmetric (see
      // WeightedValues), so row j of the product accumulates W[i][j] =
      // W[j][i] in ascending i, the serial scatter's order, and the
      // forward's value array serves the backward unchanged.
      Matrix gh(h.rows(), d);
      m.SpmmValues(values->data(), up, &gh);
      t->AccumulateGrad(did, std::move(gh));
    }
    if (t->NeedsGrad(wid)) {
      // dw[edge(k)] += base[k] * <up[row(k)], h[col(k)]>. The expensive
      // per-nonzero dot products are row-parallel (disjoint k ranges per
      // row); the cheap gather into dw runs serially in ascending k — the
      // same order as a fully serial pass — because several nonzeros (the
      // two directions of one interaction) can map to the same edge.
      std::vector<float> per_nnz(static_cast<size_t>(m.nnz()), 0.f);
      const simd::KernelTable& bwd_kt = simd::ActiveKernels();
      ParallelFor(0, m.rows(), m.RowGrain(d),
                  [&](int64_t r0, int64_t r1) {
                    for (int64_t r = r0; r < r1; ++r) {
                      const float* urow = up.row(r);
                      for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
                        if (adj->nnz_to_edge[static_cast<size_t>(k)] < 0) {
                          continue;
                        }
                        per_nnz[static_cast<size_t>(k)] =
                            adj->base_values[static_cast<size_t>(k)] *
                            static_cast<float>(
                                bwd_kt.dot(urow, h.row(col_idx[k]), d));
                      }
                    }
                  });
      Matrix gw(t->ValueOf(wid).rows(), 1);
      for (int64_t k = 0; k < m.nnz(); ++k) {
        const int64_t e = adj->nnz_to_edge[static_cast<size_t>(k)];
        if (e >= 0) gw[e] += per_nnz[static_cast<size_t>(k)];
      }
      t->AccumulateGrad(wid, std::move(gw));
    }
  });
}

Var GatherRows(Var a, std::vector<int32_t> idx) {
  Tape* t = a.tape();
  const int aid = a.id();
  GA_AG_OP("GatherRows", 0,
           8.0 * static_cast<double>(idx.size()) * a.cols());
  Matrix y = graphaug::GatherRows(a.value(), idx);
  auto idx_ptr = std::make_shared<std::vector<int32_t>>(std::move(idx));
  return t->Emit(std::move(y), t->NeedsGrad(aid),
                 [aid, idx_ptr](Tape* t, Matrix& up) {
                   const Matrix& av = t->ValueOf(aid);
                   Matrix g(av.rows(), av.cols());
                   ScatterAddRows(up, *idx_ptr, &g);
                   t->AccumulateGrad(aid, std::move(g));
                 });
}

Var ConcatCols(Var a, Var b) {
  Tape* t = a.tape();
  GA_AG_OP("ConcatCols", 0,
           8.0 * static_cast<double>(a.value().size() + b.value().size()));
  const int aid = a.id(), bid = b.id();
  const int64_t ac = a.cols();
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(bid);
  return t->Emit(graphaug::ConcatCols(a.value(), b.value()), ng,
                 [aid, bid, ac](Tape* t, Matrix& up) {
                   t->AccumulateGrad(aid, graphaug::SliceCols(up, 0, ac));
                   t->AccumulateGrad(
                       bid, graphaug::SliceCols(up, ac, up.cols() - ac));
                 });
}

Var SliceCols(Var a, int64_t start, int64_t len) {
  Tape* t = a.tape();
  GA_AG_OP("SliceCols", 0, 8.0 * static_cast<double>(a.rows() * len));
  const int aid = a.id();
  return t->Emit(graphaug::SliceCols(a.value(), start, len),
                 t->NeedsGrad(aid),
                 [aid, start, len](Tape* t, Matrix& up) {
                   const Matrix& av = t->ValueOf(aid);
                   Matrix g(av.rows(), av.cols());
                   for (int64_t r = 0; r < up.rows(); ++r) {
                     std::copy(up.row(r), up.row(r) + len, g.row(r) + start);
                   }
                   t->AccumulateGrad(aid, std::move(g));
                 });
}

Var AddRowBroadcast(Var a, Var row) {
  Tape* t = a.tape();
  GA_AG_OP("AddRowBroadcast", static_cast<double>(a.value().size()),
           8.0 * static_cast<double>(a.value().size()));
  GA_CHECK_EQ(row.rows(), 1);
  GA_CHECK_EQ(row.cols(), a.cols());
  const int aid = a.id(), rid = row.id();
  Matrix y = a.value();
  for (int64_t r = 0; r < y.rows(); ++r) {
    for (int64_t c = 0; c < y.cols(); ++c) y.at(r, c) += row.value()[c];
  }
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(rid);
  return t->Emit(std::move(y), ng, [aid, rid](Tape* t, Matrix& up) {
    // The bias reduction reads `up` before `a` takes it.
    Matrix g;
    if (t->NeedsGrad(rid)) {
      g = Matrix(1, up.cols());
      for (int64_t r = 0; r < up.rows(); ++r) {
        for (int64_t c = 0; c < up.cols(); ++c) g[c] += up.at(r, c);
      }
    }
    t->AccumulateGrad(aid, std::move(up));
    t->AccumulateGrad(rid, std::move(g));
  });
}

Var MulRowBroadcast(Var a, Var row) {
  Tape* t = a.tape();
  GA_AG_OP("MulRowBroadcast", static_cast<double>(a.value().size()),
           8.0 * static_cast<double>(a.value().size()));
  GA_CHECK_EQ(row.rows(), 1);
  GA_CHECK_EQ(row.cols(), a.cols());
  const int aid = a.id(), rid = row.id();
  const Matrix& av = a.value();
  const float* rv = row.value().data();
  Matrix y = Matrix::Uninit(av.rows(), av.cols());
  for (int64_t r = 0; r < y.rows(); ++r) {
    const float* ar = av.row(r);
    float* yr = y.row(r);
    for (int64_t c = 0; c < y.cols(); ++c) yr[c] = ar[c] * rv[c];
  }
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(rid);
  return t->Emit(std::move(y), ng, [aid, rid](Tape* t, Matrix& up) {
    const Matrix& av = t->ValueOf(aid);
    const Matrix& rv = t->ValueOf(rid);
    // The row reduction reads `up` first; then da is written over `up`.
    // Accumulation order (a, then row) is unchanged.
    Matrix gr;
    if (t->NeedsGrad(rid)) {
      gr = Matrix(1, up.cols());
      for (int64_t r = 0; r < up.rows(); ++r) {
        for (int64_t c = 0; c < up.cols(); ++c) {
          gr[c] += up.at(r, c) * av.at(r, c);
        }
      }
    }
    if (t->NeedsGrad(aid)) {
      for (int64_t r = 0; r < up.rows(); ++r) {
        for (int64_t c = 0; c < up.cols(); ++c) up.at(r, c) *= rv[c];
      }
      t->AccumulateGrad(aid, std::move(up));
    }
    t->AccumulateGrad(rid, std::move(gr));
  });
}

Var MaskedNoiseMix(Var h, Var mask, Matrix eps) {
  Tape* t = h.tape();
  const double n = static_cast<double>(h.value().size());
  GA_AG_OP("MaskedNoiseMix", 3 * n, 12 * n);
  GA_CHECK_EQ(mask.rows(), 1);
  GA_CHECK_EQ(mask.cols(), h.cols());
  GA_CHECK(eps.SameShape(h.value()))
      << eps.ShapeString() << " vs " << h.value().ShapeString();
  const int hid = h.id(), mid = mask.id();
  const Matrix& hv = h.value();
  const float* m = mask.value().data();
  const int64_t d = hv.cols();
  // 1 - m exactly as the composed graph rounds it: Neg, then AddScalar.
  Matrix keep = Matrix::Uninit(1, d);
  for (int64_t c = 0; c < d; ++c) keep[c] = (m[c] * -1.f) + 1.f;
  Matrix y = Matrix::Uninit(hv.rows(), d);
  const int64_t row_grain =
      std::max<int64_t>(1, kMapGrain / std::max<int64_t>(1, d));
  ParallelFor(0, hv.rows(), row_grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* hr = hv.row(r);
      const float* er = eps.row(r);
      float* yr = y.row(r);
      for (int64_t c = 0; c < d; ++c) yr[c] = hr[c] * m[c] + er[c] * keep[c];
    }
  });
  auto eps_ptr = std::make_shared<Matrix>(std::move(eps));
  const bool ng = t->NeedsGrad(hid) || t->NeedsGrad(mid);
  return t->Emit(std::move(y), ng, [hid, mid, eps_ptr](Tape* t, Matrix& up) {
    const Matrix& hv = t->ValueOf(hid);
    const Matrix& e = *eps_ptr;
    const float* m = t->ValueOf(mid).data();
    const bool need_h = t->NeedsGrad(hid), need_m = t->NeedsGrad(mid);
    const int64_t d = up.cols();
    // One pass over `up`: both column sums in row order, as the two
    // MulRowBroadcast backwards form them, then dh = up ⊙ m over `up`.
    Matrix gm, ge;
    if (need_m) gm = ge = Matrix(1, d);
    for (int64_t r = 0; r < up.rows(); ++r) {
      float* ur = up.row(r);
      if (need_m) {
        const float* hr = hv.row(r);
        const float* er = e.row(r);
        for (int64_t c = 0; c < d; ++c) {
          gm[c] += ur[c] * hr[c];
          ge[c] += ur[c] * er[c];
        }
      }
      if (need_h) {
        for (int64_t c = 0; c < d; ++c) ur[c] = ur[c] * m[c];
      }
    }
    // The composed graph reaches m through Neg first, then through h ⊙ m:
    // (-Σ up·ε) + Σ up·h.
    for (int64_t c = 0; c < gm.size(); ++c) gm[c] = (ge[c] * -1.f) + gm[c];
    t->AccumulateGrad(hid, std::move(up));
    t->AccumulateGrad(mid, std::move(gm));
  });
}

Var MulColBroadcast(Var a, Var col) {
  Tape* t = a.tape();
  GA_AG_OP("MulColBroadcast", static_cast<double>(a.value().size()),
           8.0 * static_cast<double>(a.value().size()));
  GA_CHECK_EQ(col.cols(), 1);
  GA_CHECK_EQ(col.rows(), a.rows());
  const int aid = a.id(), cid = col.id();
  Matrix y = a.value();
  for (int64_t r = 0; r < y.rows(); ++r) {
    const float s = col.value()[r];
    for (int64_t c = 0; c < y.cols(); ++c) y.at(r, c) *= s;
  }
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(cid);
  return t->Emit(std::move(y), ng, [aid, cid](Tape* t, Matrix& up) {
    const Matrix& av = t->ValueOf(aid);
    const Matrix& cv = t->ValueOf(cid);
    if (t->NeedsGrad(aid)) {
      Matrix g(up.rows(), up.cols());
      for (int64_t r = 0; r < up.rows(); ++r) {
        const float s = cv[r];
        for (int64_t c = 0; c < up.cols(); ++c) g.at(r, c) = up.at(r, c) * s;
      }
      t->AccumulateGrad(aid, std::move(g));
    }
    if (t->NeedsGrad(cid)) {
      Matrix g(up.rows(), 1);
      for (int64_t r = 0; r < up.rows(); ++r) {
        double s = 0;
        for (int64_t c = 0; c < up.cols(); ++c) {
          s += static_cast<double>(up.at(r, c)) * av.at(r, c);
        }
        g[r] = static_cast<float>(s);
      }
      t->AccumulateGrad(cid, std::move(g));
    }
  });
}

Var MeanAll(Var a) {
  Tape* t = a.tape();
  GA_AG_OP("MeanAll", static_cast<double>(a.value().size()),
           4.0 * static_cast<double>(a.value().size()));
  const int aid = a.id();
  const float inv = a.value().size() > 0
                        ? 1.f / static_cast<float>(a.value().size())
                        : 0.f;
  Matrix y(1, 1, static_cast<float>(graphaug::MeanAll(a.value())));
  return t->Emit(std::move(y), t->NeedsGrad(aid),
                 [aid, inv](Tape* t, Matrix& up) {
                   const Matrix& av = t->ValueOf(aid);
                   Matrix g(av.rows(), av.cols(), up[0] * inv);
                   t->AccumulateGrad(aid, std::move(g));
                 });
}

Var SumAll(Var a) {
  Tape* t = a.tape();
  GA_AG_OP("SumAll", static_cast<double>(a.value().size()),
           4.0 * static_cast<double>(a.value().size()));
  const int aid = a.id();
  Matrix y(1, 1, static_cast<float>(graphaug::SumAll(a.value())));
  return t->Emit(std::move(y), t->NeedsGrad(aid),
                 [aid](Tape* t, Matrix& up) {
                   const Matrix& av = t->ValueOf(aid);
                   Matrix g(av.rows(), av.cols(), up[0]);
                   t->AccumulateGrad(aid, std::move(g));
                 });
}

Var RowSum(Var a) {
  Tape* t = a.tape();
  GA_AG_OP("RowSum", static_cast<double>(a.value().size()),
           4.0 * static_cast<double>(a.value().size()));
  const int aid = a.id();
  return t->Emit(graphaug::RowSum(a.value()), t->NeedsGrad(aid),
                 [aid](Tape* t, Matrix& up) {
                   const Matrix& av = t->ValueOf(aid);
                   Matrix g(av.rows(), av.cols());
                   for (int64_t r = 0; r < g.rows(); ++r) {
                     const float s = up[r];
                     for (int64_t c = 0; c < g.cols(); ++c) g.at(r, c) = s;
                   }
                   t->AccumulateGrad(aid, std::move(g));
                 });
}

Var RowDot(Var a, Var b) {
  Tape* t = a.tape();
  GA_AG_OP("RowDot", 2.0 * static_cast<double>(a.value().size()),
           8.0 * static_cast<double>(a.value().size()));
  const int aid = a.id(), bid = b.id();
  const bool ng = t->NeedsGrad(aid) || t->NeedsGrad(bid);
  return t->Emit(graphaug::RowDot(a.value(), b.value()), ng,
                 [aid, bid](Tape* t, Matrix& up) {
                   const Matrix& av = t->ValueOf(aid);
                   const Matrix& bv = t->ValueOf(bid);
                   auto scatter = [&](int target, const Matrix& other) {
                     Matrix g = Matrix::Uninit(other.rows(), other.cols());
                     for (int64_t r = 0; r < g.rows(); ++r) {
                       const float s = up[r];
                       const float* orow = other.row(r);
                       float* grow = g.row(r);
                       for (int64_t c = 0; c < g.cols(); ++c) {
                         grow[c] = s * orow[c];
                       }
                     }
                     t->AccumulateGrad(target, std::move(g));
                   };
                   if (t->NeedsGrad(aid)) scatter(aid, bv);
                   if (t->NeedsGrad(bid)) scatter(bid, av);
                 });
}

Var LogSumExpRows(Var a) {
  Tape* t = a.tape();
  GA_AG_OP("LogSumExpRows", 3.0 * static_cast<double>(a.value().size()),
           4.0 * static_cast<double>(a.value().size()));
  const int aid = a.id();
  const Matrix& x = a.value();
  GA_CHECK_GE(x.cols(), 1) << "LogSumExpRows needs at least one column";
  Matrix y(x.rows(), 1);
  {
    const simd::KernelTable& kt = simd::ActiveKernels();
    for (int64_t r = 0; r < x.rows(); ++r) {
      const float* row = x.row(r);
      const float mx = kt.rowmax(row, x.cols());
      y[r] = mx + static_cast<float>(std::log(kt.exp_sum(row, x.cols(), mx)));
    }
  }
  auto lse = std::make_shared<Matrix>(y);
  return t->Emit(std::move(y), t->NeedsGrad(aid),
                 [aid, lse](Tape* t, Matrix& up) {
                   const Matrix& x = t->ValueOf(aid);
                   Matrix g = Matrix::Uninit(x.rows(), x.cols());
                   const simd::KernelTable& kt = simd::ActiveKernels();
                   for (int64_t r = 0; r < x.rows(); ++r) {
                     kt.exp_scale(x.row(r), (*lse)[r], up[r], g.row(r),
                                  x.cols());
                   }
                   t->AccumulateGrad(aid, std::move(g));
                 });
}

Var RowL2Normalize(Var a, float eps) {
  Tape* t = a.tape();
  GA_AG_OP("RowL2Normalize", 3.0 * static_cast<double>(a.value().size()),
           8.0 * static_cast<double>(a.value().size()));
  const int aid = a.id();
  const Matrix& x = a.value();
  Matrix norms = RowNorm(x, eps);
  Matrix y(x.rows(), x.cols());
  for (int64_t r = 0; r < x.rows(); ++r) {
    const float inv = 1.f / norms[r];
    const float* xr = x.row(r);
    float* yr = y.row(r);
    for (int64_t c = 0; c < x.cols(); ++c) yr[c] = xr[c] * inv;
  }
  auto norm_ptr = std::make_shared<Matrix>(std::move(norms));
  auto y_ptr = std::make_shared<Matrix>(y);
  return t->Emit(std::move(y), t->NeedsGrad(aid),
                 [aid, norm_ptr, y_ptr](Tape* t, Matrix& up) {
                   // dx = (du - y * (y . du)) / ||x||
                   const Matrix& y = *y_ptr;
                   Matrix g(y.rows(), y.cols());
                   for (int64_t r = 0; r < y.rows(); ++r) {
                     const float* yr = y.row(r);
                     const float* ur = up.row(r);
                     float* gr = g.row(r);
                     double dot = 0;
                     for (int64_t c = 0; c < y.cols(); ++c) {
                       dot += static_cast<double>(yr[c]) * ur[c];
                     }
                     const float inv = 1.f / (*norm_ptr)[r];
                     for (int64_t c = 0; c < y.cols(); ++c) {
                       gr[c] = (ur[c] - yr[c] * static_cast<float>(dot)) * inv;
                     }
                   }
                   t->AccumulateGrad(aid, std::move(g));
                 });
}

Var BprLoss(Var pos_scores, Var neg_scores) {
  return MeanAll(Softplus(Sub(neg_scores, pos_scores)));
}

Var InfoNceLoss(Var view_a, Var view_b, float temperature) {
  GA_CHECK_GT(temperature, 0.f);
  Var za = RowL2Normalize(view_a);
  Var zb = RowL2Normalize(view_b);
  // Similarity matrix (n x n): za * zb^T / temperature.
  Var sims = Scale(MatMul(za, zb, false, true), 1.f / temperature);
  // Positive logits are the diagonal == row dots.
  Var pos = Scale(RowDot(za, zb), 1.f / temperature);
  Var lse = LogSumExpRows(sims);
  return MeanAll(Sub(lse, pos));
}

Var GaussianKl(Var mu, Var raw_sigma) {
  // sigma = softplus(raw) + 1e-6; KL = 0.5 * mean(mu^2 + sigma^2 - 2 log sigma - 1).
  Var sigma = AddScalar(Softplus(raw_sigma), 1e-6f);
  Var term = Sub(Add(Square(mu), Square(sigma)),
                 AddScalar(Scale(Log(sigma, 0.f), 2.f), 1.f));
  return Scale(MeanAll(term), 0.5f);
}

}  // namespace graphaug::ag
