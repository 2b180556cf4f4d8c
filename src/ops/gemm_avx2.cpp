// AVX2+FMA row-range GEMM kernel.  Keeps the reference k-association --
// for each output row the kk loop is outermost, so every orow[j] sees the
// same sequence of (a[i,kk] * b[kk,j]) contributions in the same order --
// but evaluates them with vfmadd, so the product is not rounded before the
// add.  That makes this family tolerance-gated, not bit-exact.
//
// matmul_tn (C = A^T B) runs the same kernel with A read column-wise in
// place: every output element sees exactly the FMA sequence that
// matmul(transpose(A), B) would give it, so the two are bit-identical.
//
// Register tiling: the hot micro-kernel is 2 rows x 32 columns -- eight
// __m256 accumulators held across the whole k loop (enough independent FMA
// chains to cover the FMA latency) with each b-row load feeding both rows.
// Leftover columns fall to 16-wide, 8-wide, then scalar tiles; a leftover
// row runs the single-row path.  Accumulators start at zero so no memset
// of o is needed.
#include "ops/gemm.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace fastchg::ops::gemm::avx2 {

namespace {

// Both layouts share one kernel.  Element (i, kk) of the logical left
// operand is row(a, i)[kk * step()]: row-major A starts row i at a + i * lda
// with step 1; A read transposed in place starts it at a + i with step lda.
// kTrans makes the plain layout's unit step a compile-time constant.
template <bool kTrans>
struct AStride {
  index_t lda;
  const float* row(const float* a, index_t i) const {
    return kTrans ? a + i : a + i * lda;
  }
  index_t step() const { return kTrans ? lda : 1; }
};

/// Single-row tail: columns [j0, n) of logical row `arow` -> `orow`.
template <bool kT>
void row_tail(index_t j0, index_t k, index_t n, const float* arow,
              AStride<kT> sa, const float* b, float* orow) {
  const index_t st = sa.step();
  index_t j = j0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (index_t kk = 0; kk < k; ++kk) {
      const __m256 av = _mm256_set1_ps(arow[kk * st]);
      const float* brow = b + kk * n + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
    }
    _mm256_storeu_ps(orow + j, acc0);
    _mm256_storeu_ps(orow + j + 8, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (index_t kk = 0; kk < k; ++kk) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk * st]),
                            _mm256_loadu_ps(b + kk * n + j), acc);
    }
    _mm256_storeu_ps(orow + j, acc);
  }
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (index_t kk = 0; kk < k; ++kk) acc += arow[kk * st] * b[kk * n + j];
    orow[j] = acc;
  }
}

template <bool kT>
void rows_impl(index_t r0, index_t r1, index_t k, index_t n, const float* a,
               AStride<kT> sa, const float* b, float* o) {
  const index_t st = sa.step();
  index_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    const float* a0 = sa.row(a, i);
    const float* a1 = sa.row(a, i + 1);
    float* o0 = o + i * n;
    float* o1 = o0 + n;
    index_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c02 = _mm256_setzero_ps(), c03 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c12 = _mm256_setzero_ps(), c13 = _mm256_setzero_ps();
      for (index_t kk = 0; kk < k; ++kk) {
        const __m256 av0 = _mm256_set1_ps(a0[kk * st]);
        const __m256 av1 = _mm256_set1_ps(a1[kk * st]);
        const float* brow = b + kk * n + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 b2 = _mm256_loadu_ps(brow + 16);
        const __m256 b3 = _mm256_loadu_ps(brow + 24);
        c00 = _mm256_fmadd_ps(av0, b0, c00);
        c01 = _mm256_fmadd_ps(av0, b1, c01);
        c02 = _mm256_fmadd_ps(av0, b2, c02);
        c03 = _mm256_fmadd_ps(av0, b3, c03);
        c10 = _mm256_fmadd_ps(av1, b0, c10);
        c11 = _mm256_fmadd_ps(av1, b1, c11);
        c12 = _mm256_fmadd_ps(av1, b2, c12);
        c13 = _mm256_fmadd_ps(av1, b3, c13);
      }
      _mm256_storeu_ps(o0 + j, c00);
      _mm256_storeu_ps(o0 + j + 8, c01);
      _mm256_storeu_ps(o0 + j + 16, c02);
      _mm256_storeu_ps(o0 + j + 24, c03);
      _mm256_storeu_ps(o1 + j, c10);
      _mm256_storeu_ps(o1 + j + 8, c11);
      _mm256_storeu_ps(o1 + j + 16, c12);
      _mm256_storeu_ps(o1 + j + 24, c13);
    }
    if (j < n) {
      row_tail(j, k, n, a0, sa, b, o0);
      row_tail(j, k, n, a1, sa, b, o1);
    }
  }
  for (; i < r1; ++i) {
    row_tail(0, k, n, sa.row(a, i), sa, b, o + i * n);
  }
}

}  // namespace

void matmul_rows(index_t r0, index_t r1, index_t k, index_t n, const float* a,
                 const float* b, float* o) {
  rows_impl(r0, r1, k, n, a, AStride<false>{k}, b, o);
}

void matmul_tn_rows(index_t r0, index_t r1, index_t m, index_t k, index_t n,
                    const float* a, const float* b, float* o) {
  rows_impl(r0, r1, m, n, a, AStride<true>{k}, b, o);
}

}  // namespace fastchg::ops::gemm::avx2

#else  // toolchain cannot build AVX2: forward to the scalar reference

namespace fastchg::ops::gemm::avx2 {

void matmul_rows(index_t r0, index_t r1, index_t k, index_t n, const float* a,
                 const float* b, float* o) {
  for (index_t i = r0; i < r1; ++i) {
    float* orow = o + i * n;
    const float* arow = a + i * k;
    for (index_t j = 0; j < n; ++j) orow[j] = 0.0f;
    for (index_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + kk * n;
      for (index_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void matmul_tn_rows(index_t r0, index_t r1, index_t m, index_t k, index_t n,
                    const float* a, const float* b, float* o) {
  for (index_t i = r0; i < r1; ++i) {
    float* orow = o + i * n;
    for (index_t j = 0; j < n; ++j) orow[j] = 0.0f;
    for (index_t kk = 0; kk < m; ++kk) {
      const float av = a[kk * k + i];
      const float* brow = b + kk * n;
      for (index_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

}  // namespace fastchg::ops::gemm::avx2

#endif
