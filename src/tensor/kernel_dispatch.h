#ifndef GRAPHAUG_TENSOR_KERNEL_DISPATCH_H_
#define GRAPHAUG_TENSOR_KERNEL_DISPATCH_H_

#include <cstdint>

#include "common/cpu_features.h"

namespace graphaug::simd {

/// Runtime-dispatched SIMD microkernel layer (DESIGN.md §9).
///
/// Every hot inner loop — the packed-panel GEMM microkernel, the SpMM
/// gather segment, elementwise maps, pinned-order reductions, and
/// the fused exp primitives behind LogSumExpRows / InfoNCE — is reached
/// through a KernelTable of function pointers. Two tables exist: the
/// portable scalar table (baseline ISA, always available) and the AVX2
/// table (compiled in its own translation unit with -mavx2 so no vector
/// instruction leaks into portable code; selected only when the cpuid
/// probe confirms support).
///
/// Determinism contract, per entry:
///  * gemm_micro and spmm_segment are BITWISE IDENTICAL across tables:
///    both accumulate each output element over the shared dimension in
///    ascending order with separate multiply-then-add rounding (the AVX2
///    kernels deliberately avoid FMA contraction), so forced-scalar and
///    auto-dispatch runs produce the same bits.
///  * add/sub/mul/scale/axpy and normal_fill are elementwise and
///    bitwise identical.
///  * sum/sqnorm/dot/rowmax/maxabs/exp_sum/exp_scale pin a reduction (or
///    polynomial) order *per table*: each table is bitwise deterministic
///    at any thread count, but the AVX2 lane-split order and vector exp
///    differ from the scalar serial order by normal rounding.
/// Callers must read the table once per operation (not per chunk) so one
/// op never mixes tables mid-flight.

/// GEMM microkernel tile: MR rows of packed A against NR columns of
/// packed B. 6x16 fills 12 of the 16 ymm registers with accumulators.
inline constexpr int kGemmMR = 6;
inline constexpr int kGemmNR = 16;

struct KernelTable {
  const char* name;  ///< matches SimdLevelName of the owning level

  /// C tile (mr x nr, row stride ldc) += Ap * Bp over kc rank-1 updates.
  /// Ap is a column-major (kc x mr) panel with alpha pre-folded:
  /// ap[p*mr + ii]. Bp is a (kc x kGemmNR) row panel zero-padded past nr:
  /// bp[p*kGemmNR + jj]. 1 <= mr <= kGemmMR, 1 <= nr <= kGemmNR.
  void (*gemm_micro)(int64_t kc, const float* ap, const float* bp, float* c,
                     int64_t ldc, int mr, int nr);

  /// out_row[c] += sum over e in [0, count) of vals[e] * dense[idx[e]*d + c]
  /// for c in [0, d). The row kernel of CsrMatrix::SpmmValues, behind
  /// every sparse product (Spmm, SpmmT, the edge-weighted SpMM).
  void (*spmm_segment)(const float* vals, const int32_t* idx, int64_t count,
                       const float* dense, int64_t d, float* out_row);

  // ------------------------------------------------------- elementwise
  void (*add)(const float* a, const float* b, float* out, int64_t n);
  void (*sub)(const float* a, const float* b, float* out, int64_t n);
  void (*mul)(const float* a, const float* b, float* out, int64_t n);
  void (*scale)(const float* a, float s, float* out, int64_t n);
  void (*axpy)(float s, const float* b, float* a, int64_t n);  ///< a += s*b

  // ------------------------------- reductions (order pinned per table)
  double (*sum)(const float* a, int64_t n);
  double (*sqnorm)(const float* a, int64_t n);               ///< sum a[i]^2
  double (*dot)(const float* a, const float* b, int64_t n);  ///< in double
  float (*maxabs)(const float* a, int64_t n);  ///< max |a[i]|, 0 if n == 0
  float (*rowmax)(const float* a, int64_t n);  ///< max a[i], requires n >= 1

  // ------------------- fused contrastive-loss (log-sum-exp) primitives
  /// sum over i of exp(a[i] - mx), accumulated in double.
  double (*exp_sum)(const float* a, int64_t n, float mx);
  /// out[i] = u * exp(a[i] - l) — the LogSumExpRows backward row.
  void (*exp_scale)(const float* a, float l, float u, float* out, int64_t n);

  // ------------------------------------- retrieval panel scan (§10)
  /// Scores n consecutive lane-major panels (each 8 items x d dims,
  /// panel[j*8 + t] = item_t[j], panels contiguous at stride 8*d) against
  /// one query: out[p*8 + t] = sum over ascending j of q[j]*panel_p[j*8+t].
  /// BITWISE IDENTICAL across tables: each lane is its own ascending-j
  /// multiply-then-add chain (no FMA, no cross-lane reduction), which is
  /// exactly the scalar one-item loop and the GEMM's per-element order.
  void (*score_panels)(const float* q, const float* panels, int64_t d,
                       int64_t n, float* out);

  // ------------------------------ counter-based Gaussian noise (§8, §9)
  /// out[i - begin] = mean + stddev * z_i for i in [begin, end), where
  /// z_i ~ N(0, 1) is a pure function of (key, i): Philox-4x32-10 over the
  /// element's counter feeds a float Box–Muller (Cephes log, quadrant-
  /// reduced sin/cos polynomials). Any sub-range therefore reproduces the
  /// matching slice of a full fill. Requires 0 <= begin <= end.
  /// BITWISE IDENTICAL across tables (exact integer steps, separately
  /// rounded float ops in one shared order, no FMA).
  void (*normal_fill)(uint64_t key, int64_t begin, int64_t end, float mean,
                      float stddev, float* out);
};

/// Portable baseline table; always valid.
const KernelTable& ScalarKernels();

/// AVX2 table, or nullptr when this build has no AVX2 translation unit
/// (non-x86 targets). Never call its entries without a runtime probe.
const KernelTable* Avx2KernelsOrNull();

/// Table for ActiveSimdLevel(): the probe-selected table, downgraded to
/// scalar under GRAPHAUG_FORCE_SCALAR / ForceScalarKernels(true) or when
/// the build lacks the probed level.
const KernelTable& ActiveKernels();

}  // namespace graphaug::simd

#endif  // GRAPHAUG_TENSOR_KERNEL_DISPATCH_H_
