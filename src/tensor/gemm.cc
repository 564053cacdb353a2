// Packed-panel GEMM and the fused pair-MLP kernels built on the same
// packing and microkernel (DESIGN.md §9, §11). Compiled with
// -ffp-contract=off (src/tensor/CMakeLists.txt): the pair-MLP epilogues
// must round every multiply and add separately, exactly as the GEMM
// microkernel does, to stay bitwise equal to the composed graph.

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "obs/scope.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

// Packed-panel GEMM blocking (DESIGN.md §9). KC limits the packed-panel
// depth so one B block (KC x NC floats = 1MB) stays L2-resident across
// the whole row sweep, with the A panel (MR x KC = 6KB) in L1. All four
// transpose variants are folded into packing, so one microkernel pair
// (scalar / AVX2, simd::KernelTable) serves every case. Accumulation
// order per output element is p ascending across KC blocks with separate
// mul/add rounding — the property that keeps every (variant, thread
// count) combination bitwise identical.
constexpr int64_t kGemmKC = 256;
constexpr int64_t kGemmNC = 1024;

using simd::kGemmMR;
using simd::kGemmNR;

/// MR-row blocks per parallel chunk, sized so each chunk carries ~64K
/// inner multiply-adds for `work_per_row` of them per output row.
int64_t RowBlockGrain(int64_t work_per_row) {
  const int64_t rows =
      std::max<int64_t>(1, (int64_t{64} << 10) /
                               std::max<int64_t>(1, work_per_row));
  return std::max<int64_t>(1, rows / kGemmMR);
}

/// Row-major operand view: element (r, c) is p[r * ld + c].
struct ConstView {
  const float* p;
  int64_t ld;
  const float* row(int64_t r) const { return p + r * ld; }
};

// Packs alpha * op(a)[i0 : i0+mr, pc : pc+kc] into a column-major panel:
// ap[p*mr + ii]. Folding alpha here reproduces the historic kernels'
// "av = alpha * a" single rounding before the multiply-add stream.
void PackA(ConstView a, bool trans_a, float alpha, int64_t i0, int mr,
           int64_t pc, int64_t kc, float* ap) {
  if (!trans_a) {
    for (int ii = 0; ii < mr; ++ii) {
      const float* arow = a.row(i0 + ii) + pc;
      for (int64_t p = 0; p < kc; ++p) ap[p * mr + ii] = alpha * arow[p];
    }
  } else {
    for (int64_t p = 0; p < kc; ++p) {
      const float* arow = a.row(pc + p) + i0;
      for (int ii = 0; ii < mr; ++ii) ap[p * mr + ii] = alpha * arow[ii];
    }
  }
}

// Packs op(b)[pc : pc+kc, jc : jc+nc] into kGemmNR-wide row panels laid
// out back to back (each panel kc * kGemmNR floats), zero-padding the
// ragged last panel so the microkernel can always run full-width B loads.
void PackB(ConstView b, bool trans_b, int64_t pc, int64_t kc, int64_t jc,
           int64_t nc, float* bp) {
  for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
    float* dst = bp + (jr / kGemmNR) * kc * kGemmNR;
    const int nr = static_cast<int>(std::min<int64_t>(kGemmNR, nc - jr));
    if (!trans_b) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* brow = b.row(pc + p) + jc + jr;
        float* drow = dst + p * kGemmNR;
        for (int jj = 0; jj < nr; ++jj) drow[jj] = brow[jj];
        for (int jj = nr; jj < kGemmNR; ++jj) drow[jj] = 0.f;
      }
    } else {
      // op(b)(p, j) = b(j, p): walk rows of b for stride-1 reads.
      for (int jj = 0; jj < nr; ++jj) {
        const float* brow = b.row(jc + jr + jj) + pc;
        for (int64_t p = 0; p < kc; ++p) dst[p * kGemmNR + jj] = brow[p];
      }
      for (int64_t p = 0; p < kc; ++p) {
        float* drow = dst + p * kGemmNR;
        for (int jj = nr; jj < kGemmNR; ++jj) drow[jj] = 0.f;
      }
    }
  }
}

/// Floats of one packed (pc, jc) block: kc rows of nc columns rounded up
/// to whole kGemmNR panels.
int64_t PackedBlockSize(int64_t kc, int64_t nc) {
  return (nc + kGemmNR - 1) / kGemmNR * kGemmNR * kc;
}

/// C (m x n, row stride ldc) += alpha * op(a) * op(b), op(a) m x k. The
/// accumulation into C is the microkernel's load-C, ascending-p
/// multiply-then-add, so a product split along k into two calls on the
/// same C performs the unsplit product's operations in the same order.
void GemmAccumulate(int64_t m, int64_t n, int64_t k, ConstView a,
                    bool trans_a, ConstView b, bool trans_b, float alpha,
                    float* c, int64_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  // One table per op: the dispatch decision is taken here, never inside
  // chunks, so a single product can't mix microkernel variants.
  const simd::KernelTable& kt = simd::ActiveKernels();
  std::vector<float> bpack(static_cast<size_t>(
      PackedBlockSize(std::min(kGemmKC, k), std::min(kGemmNC, n))));
  const int64_t row_blocks = (m + kGemmMR - 1) / kGemmMR;
  for (int64_t jc = 0; jc < n; jc += kGemmNC) {
    const int64_t nc = std::min(kGemmNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kGemmKC) {
      const int64_t kc = std::min(kGemmKC, k - pc);
      PackB(b, trans_b, pc, kc, jc, nc, bpack.data());
      // Chunks are MR-aligned row blocks; each output row belongs to
      // exactly one chunk, so any thread count writes the same bits.
      ParallelFor(0, row_blocks, RowBlockGrain(kc * nc),
                  [&](int64_t b0, int64_t b1) {
        thread_local std::vector<float> apack;
        apack.resize(static_cast<size_t>(kGemmMR * kc));
        for (int64_t ib = b0; ib < b1; ++ib) {
          const int64_t i0 = ib * kGemmMR;
          const int mr = static_cast<int>(std::min<int64_t>(kGemmMR, m - i0));
          PackA(a, trans_a, alpha, i0, mr, pc, kc, apack.data());
          float* crow = c + i0 * ldc + jc;
          for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
            const int nr =
                static_cast<int>(std::min<int64_t>(kGemmNR, nc - jr));
            kt.gemm_micro(kc, apack.data(),
                          bpack.data() + (jr / kGemmNR) * kc * kGemmNR,
                          crow + jr, ldc, mr, nr);
          }
        }
      });
    }
  }
}

/// One input half of the pair MLP's first layer: x (m x k) against the
/// weight rows w (k x n), packed whole — every (jc, pc) block back to back
/// in jc-major order — so all row blocks share one read-only copy.
struct PackedHalf {
  ConstView x;
  int64_t k;
  std::vector<float> bp;

  PackedHalf(const Matrix& xm, const float* w, int64_t n)
      : x{xm.data(), xm.cols()}, k(xm.cols()) {
    bp.resize(static_cast<size_t>(k * ((n + kGemmNR - 1) / kGemmNR) *
                                  kGemmNR));
    for (int64_t jc = 0; jc < n; jc += kGemmNC) {
      const int64_t nc = std::min(kGemmNC, n - jc);
      for (int64_t pc = 0; pc < k; pc += kGemmKC) {
        PackB({w, n}, false, pc, std::min(kGemmKC, k - pc), jc, nc,
              bp.data() + offset(jc, pc, nc));
      }
    }
  }

  // Earlier jc blocks are whole kGemmNC = 64 panels wide, so the block
  // of (jc, pc) starts jc * k floats in, plus pc rows of its own panels.
  int64_t offset(int64_t jc, int64_t pc, int64_t nc) const {
    return jc * k + PackedBlockSize(pc, nc);
  }
};

}  // namespace

void Gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
          float alpha, float beta, Matrix* out) {
  GA_TRACE_SPAN("gemm");
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t ka = trans_a ? a.rows() : a.cols();
  const int64_t kb = trans_b ? b.cols() : b.rows();
  const int64_t n = trans_b ? b.rows() : b.cols();
  GA_CHECK_EQ(ka, kb) << "gemm inner dims";
  if (out->rows() != m || out->cols() != n) {
    GA_CHECK(beta == 0.f) << "beta != 0 requires preallocated out";
    *out = Matrix(m, n);
  } else if (beta == 0.f) {
    out->Zero();
  } else if (beta != 1.f) {
    ParallelFor(0, out->size(), int64_t{1} << 15,
                [beta, out](int64_t i0, int64_t i1) {
                  for (int64_t i = i0; i < i1; ++i) (*out)[i] *= beta;
                });
  }
  GemmAccumulate(m, n, ka, {a.data(), a.cols()}, trans_a,
                 {b.data(), b.cols()}, trans_b, alpha, out->data(),
                 out->cols());
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  Gemm(a, false, b, false, 1.f, 0.f, &out);
  return out;
}

void PairMlpForward(const Matrix& xu, const Matrix& xv, const Matrix& w1,
                    const Matrix& b1, const Matrix& w2, const Matrix& b2,
                    float slope, Matrix* hidden, Matrix* logits) {
  const int64_t m = xu.rows();
  const int64_t n = w1.cols();
  GA_CHECK_EQ(xv.rows(), m);
  GA_CHECK_EQ(w1.rows(), xu.cols() + xv.cols()) << "pair mlp first layer";
  GA_CHECK(b1.rows() == 1 && b1.cols() == n) << b1.ShapeString();
  GA_CHECK(w2.rows() == n && w2.cols() == 1) << w2.ShapeString();
  GA_CHECK_EQ(b2.size(), 1);
  GA_CHECK_GE(slope, 0.f) << "the backward reads the mask from h's sign";
  *hidden = Matrix::Uninit(m, n);
  *logits = Matrix::Uninit(m, 1);
  if (m == 0) return;
  const simd::KernelTable& kt = simd::ActiveKernels();
  // W_u is w1's top xu.cols() rows, W_v the rest.
  const PackedHalf halves[2] = {PackedHalf(xu, w1.data(), n),
                                PackedHalf(xv, w1.row(xu.cols()), n)};
  const float* bias = b1.data();
  const float* w2v = w2.data();
  const float b2v = b2[0];
  const int64_t row_blocks = (m + kGemmMR - 1) / kGemmMR;
  ParallelFor(0, row_blocks, RowBlockGrain(w1.size() + n),
              [&](int64_t blk0, int64_t blk1) {
    thread_local std::vector<float> apack;
    apack.resize(static_cast<size_t>(kGemmMR * kGemmKC));
    for (int64_t ib = blk0; ib < blk1; ++ib) {
      const int64_t i0 = ib * kGemmMR;
      const int mr = static_cast<int>(std::min<int64_t>(kGemmMR, m - i0));
      float* c = hidden->row(i0);
      // A beta = 0 GEMM over [xu | xv] starts from a zeroed C; the v half
      // then accumulates onto the u half's result (beta = 1).
      std::fill(c, c + mr * n, 0.f);
      for (const PackedHalf& half : halves) {
        for (int64_t jc = 0; jc < n; jc += kGemmNC) {
          const int64_t nc = std::min(kGemmNC, n - jc);
          for (int64_t pc = 0; pc < half.k; pc += kGemmKC) {
            const int64_t kc = std::min(kGemmKC, half.k - pc);
            PackA(half.x, false, 1.f, i0, mr, pc, kc, apack.data());
            const float* bblk = half.bp.data() + half.offset(jc, pc, nc);
            for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
              const int nr =
                  static_cast<int>(std::min<int64_t>(kGemmNR, nc - jr));
              kt.gemm_micro(kc, apack.data(),
                            bblk + (jr / kGemmNR) * kc * kGemmNR, c + jc + jr,
                            n, mr, nr);
            }
          }
        }
      }
      // Epilogue while the tile is hot: + b1, LeakyReLU, then the d -> 1
      // layer as the GEMM forms it — 0 + h·w2 in ascending column order,
      // one rounding per multiply and per add — and + b2.
      float acc[kGemmMR];
      for (int ii = 0; ii < mr; ++ii) {
        float* hr = c + ii * n;
        for (int64_t j = 0; j < n; ++j) {
          const float z = hr[j] + bias[j];
          hr[j] = z > 0 ? z : slope * z;
        }
        acc[ii] = 0.f;
      }
      for (int64_t j = 0; j < n; ++j) {
        for (int ii = 0; ii < mr; ++ii) {
          acc[ii] = acc[ii] + c[ii * n + j] * w2v[j];
        }
      }
      for (int ii = 0; ii < mr; ++ii) (*logits)[i0 + ii] = acc[ii] + b2v;
    }
  });
}

void PairMlpBackward(const Matrix& dlogits, const Matrix& xu,
                     const Matrix& xv, const Matrix& w1, const Matrix& w2,
                     const Matrix& hidden, float slope, PairMlpGrads* g) {
  const int64_t m = hidden.rows();
  const int64_t n = hidden.cols();
  const int64_t ku = xu.cols();
  const int64_t kv = xv.cols();
  GA_CHECK(dlogits.rows() == m && dlogits.cols() == 1)
      << dlogits.ShapeString();
  // One serial pass over the rows forms every column sum in ascending row
  // order from zero, as the composed backwards do:
  //  - db2 = Σ up (+ b2's bias reduction);
  //  - dw2 = Σ h·up, the K = E GEMM hᵀ·up element by element;
  //  - dz = dh ⊙ LeakyReLU'(z), with dh = 0 + up·w2ᵀ as the K = 1 GEMM
  //    forms it (the zeroed C turns a -0 product into +0). h > 0 exactly
  //    when z > 0 for slope >= 0, so the stored output carries the mask;
  //  - db1 = Σ dz (+ b1's bias reduction).
  const bool need_dz = g->need_xu || g->need_xv || g->need_w1 || g->need_b1;
  if (g->need_b2) g->db2 = Matrix(1, 1);
  if (g->need_w2) g->dw2 = Matrix(n, 1);
  if (g->need_b1) g->db1 = Matrix(1, n);
  Matrix dz;
  if (need_dz) dz = Matrix::Uninit(m, n);
  const float* up = dlogits.data();
  const float* w2v = w2.data();
  for (int64_t r = 0; r < m; ++r) {
    const float u = up[r];
    const float* hr = hidden.row(r);
    if (g->need_b2) g->db2[0] += u;
    if (g->need_w2) {
      float* dw2 = g->dw2.data();
      for (int64_t j = 0; j < n; ++j) dw2[j] = dw2[j] + hr[j] * u;
    }
    if (!need_dz) continue;
    float* dr = dz.row(r);
    for (int64_t j = 0; j < n; ++j) {
      dr[j] = (0.f + u * w2v[j]) * (hr[j] > 0 ? 1.f : slope);
    }
    if (g->need_b1) {
      float* db1 = g->db1.data();
      for (int64_t j = 0; j < n; ++j) db1[j] += dr[j];
    }
  }
  if (!need_dz) return;
  // The first layer's backward as two K-split halves: dx_u = dz·W_uᵀ,
  // dx_v = dz·W_vᵀ, and dW_u = x_uᵀ·dz, dW_v = x_vᵀ·dz into the top and
  // bottom rows of one zeroed dW1. Each element is the unsplit product's
  // element, so no E x 2d gradient is formed or sliced.
  const ConstView dzv{dz.data(), n};
  if (g->need_xu) {
    g->dxu = Matrix(m, ku);
    GemmAccumulate(m, ku, n, dzv, false, {w1.data(), n}, true, 1.f,
                   g->dxu.data(), ku);
  }
  if (g->need_xv) {
    g->dxv = Matrix(m, kv);
    GemmAccumulate(m, kv, n, dzv, false, {w1.row(ku), n}, true, 1.f,
                   g->dxv.data(), kv);
  }
  if (g->need_w1) {
    g->dw1 = Matrix(ku + kv, n);
    GemmAccumulate(ku, n, m, {xu.data(), ku}, true, dzv, false, 1.f,
                   g->dw1.data(), n);
    GemmAccumulate(kv, n, m, {xv.data(), kv}, true, dzv, false, 1.f,
                   g->dw1.row(ku), n);
  }
}

}  // namespace graphaug
