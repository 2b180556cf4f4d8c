// Baseline-ISA TU: scalar references (byte-for-byte the seed's fused loops
// from basis/rbf.cpp and basis/fourier.cpp) and tier dispatch.
#include "ops/basis.hpp"

#include <cmath>

#include "core/parallel_for.hpp"

namespace fastchg::ops::basis {

namespace scalar {

void srbf(index_t e, index_t nb, float rc, float c, int p, EnvFn env,
          const float* r, const float* freq, float* o) {
  for (index_t i = 0; i < e; ++i) {
    const float rv = r[i];
    const float x = rv / rc;
    const float u = static_cast<float>(env(x, p));
    const float pre = c * u / rv;
    float* row = o + i * nb;
    for (index_t n = 0; n < nb; ++n) {
      row[n] = pre * std::sin(freq[n] * x);
    }
  }
}

void fourier(index_t g, index_t order, float c0, float cinv, const float* t,
             float* o) {
  const index_t nb = 2 * order + 1;
  for (index_t i = 0; i < g; ++i) {
    float* row = o + i * nb;
    row[0] = c0;
    const float tv = t[i];
    for (index_t n = 1; n <= order; ++n) {
      const float nt = static_cast<float>(n) * tv;
      row[n] = std::cos(nt) * cinv;
      row[order + n] = std::sin(nt) * cinv;
    }
  }
}

}  // namespace scalar

// Each edge/angle row is computed on its own, so rows split across the
// pool bit-identically; a sin/cos weighs about 8 floats of arithmetic.

void srbf(index_t e, index_t nb, float rc, float c, int p, EnvFn env,
          const float* r, const float* freq, float* o) {
  const auto k = active_tier() == Tier::kAvx2 ? avx2::srbf : scalar::srbf;
  parallel_rows(e, 8 * nb, [=](index_t lo, index_t hi) {
    k(hi - lo, nb, rc, c, p, env, r + lo, freq, o + lo * nb);
  });
}

void fourier(index_t g, index_t order, float c0, float cinv, const float* t,
             float* o) {
  const auto k = active_tier() == Tier::kAvx2 ? avx2::fourier : scalar::fourier;
  const index_t nb = 2 * order + 1;
  parallel_rows(g, 8 * nb, [=](index_t lo, index_t hi) {
    k(hi - lo, order, c0, cinv, t + lo, o + lo * nb);
  });
}

}  // namespace fastchg::ops::basis
