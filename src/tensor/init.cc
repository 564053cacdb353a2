#include "tensor/init.h"

#include <cmath>

#include "common/parallel.h"
#include "tensor/kernel_dispatch.h"

namespace graphaug {

void InitNormal(Matrix* m, Rng* rng, float mean, float stddev) {
  for (int64_t i = 0; i < m->size(); ++i) {
    (*m)[i] = static_cast<float>(rng->Gaussian(mean, stddev));
  }
}

void FillNormal(Matrix* m, uint64_t key, float mean, float stddev) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  float* out = m->data();
  // 8K elements (~20 us of AVX2 work) per chunk. Chunk starts stay
  // multiples of the kernel's 32-element groups, so no group is computed
  // twice.
  ParallelFor(0, m->size(), int64_t{1} << 13, [&](int64_t i0, int64_t i1) {
    kt.normal_fill(key, i0, i1, mean, stddev, out + i0);
  });
}

void InitUniform(Matrix* m, Rng* rng, float lo, float hi) {
  for (int64_t i = 0; i < m->size(); ++i) {
    (*m)[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
}

void InitXavier(Matrix* m, Rng* rng) {
  const double a = std::sqrt(6.0 / static_cast<double>(m->rows() + m->cols()));
  InitUniform(m, rng, static_cast<float>(-a), static_cast<float>(a));
}

void InitHe(Matrix* m, Rng* rng) {
  const double s = std::sqrt(2.0 / static_cast<double>(m->rows()));
  InitNormal(m, rng, 0.f, static_cast<float>(s));
}

}  // namespace graphaug
