// Tier-dispatching GEMM.  The scalar reference and the threading driver
// both live in this baseline-ISA TU; the AVX2 TU (gemm_avx2.cpp) exports
// only the non-inline row-range kernel, so no weak symbol compiled with
// AVX2 codegen can leak into the scalar path on a host without AVX2.
#include "ops/gemm.hpp"

#include <cstring>

#include "core/parallel_for.hpp"

namespace fastchg::ops::gemm {

namespace scalar {

void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o) {
  std::memset(o, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  parallel_rows(m, k * n, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      float* orow = o + i * n;
      const float* arow = a + i * k;
      for (index_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* brow = b + kk * n;
        for (index_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
}

void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* b, float* o) {
  std::memset(o, 0, static_cast<std::size_t>(k * n) * sizeof(float));
  parallel_rows(k, m * n, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      float* orow = o + i * n;
      for (index_t kk = 0; kk < m; ++kk) {
        const float av = a[kk * k + i];
        const float* brow = b + kk * n;
        for (index_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
}

}  // namespace scalar

namespace avx2 {

namespace {
/// row_grain rounded up to whole 2-row micro-kernel pairs.
index_t pair_grain(index_t row_cost) { return (row_grain(row_cost) + 1) / 2 * 2; }
}  // namespace

void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o) {
  parallel_for(0, m, pair_grain(k * n), [&](index_t lo, index_t hi) {
    matmul_rows(lo, hi, k, n, a, b, o);
  });
}

void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* b, float* o) {
  parallel_for(0, k, pair_grain(m * n), [&](index_t lo, index_t hi) {
    matmul_tn_rows(lo, hi, m, k, n, a, b, o);
  });
}

}  // namespace avx2

void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o) {
  if (active_tier() == Tier::kAvx2) {
    avx2::matmul(m, k, n, a, b, o);
    return;
  }
  scalar::matmul(m, k, n, a, b, o);
}

void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* b, float* o) {
  if (active_tier() == Tier::kAvx2) {
    avx2::matmul_tn(m, k, n, a, b, o);
    return;
  }
  scalar::matmul_tn(m, k, n, a, b, o);
}

}  // namespace fastchg::ops::gemm
