#ifndef GRAPHAUG_TENSOR_INIT_H_
#define GRAPHAUG_TENSOR_INIT_H_

#include "common/rng.h"
#include "tensor/matrix.h"

namespace graphaug {

/// Fills `m` with N(mean, stddev) samples.
void InitNormal(Matrix* m, Rng* rng, float mean = 0.f, float stddev = 0.1f);

/// Fills `m` with N(mean, stddev) samples from the counter-based stream
/// of `key`: element i is a pure function of (key, i), so the result is
/// bitwise identical at any thread count and on either kernel table, and
/// no Rng state is consumed. Used for per-step noise; parameter
/// initialisation stays on InitNormal.
void FillNormal(Matrix* m, uint64_t key, float mean = 0.f,
                float stddev = 1.f);

/// Fills `m` with U(lo, hi) samples.
void InitUniform(Matrix* m, Rng* rng, float lo = -0.1f, float hi = 0.1f);

/// Xavier/Glorot uniform initialization: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
void InitXavier(Matrix* m, Rng* rng);

/// He/Kaiming normal initialization: N(0, sqrt(2/fan_in)).
void InitHe(Matrix* m, Rng* rng);

}  // namespace graphaug

#endif  // GRAPHAUG_TENSOR_INIT_H_
