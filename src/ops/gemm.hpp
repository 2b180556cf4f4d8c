// GEMM op family: C[m,n] = A[m,k] * B[k,n], row-major, beta = 0
// (docs/ops.md).  This family is *tolerance-gated*: the AVX2 tier keeps the
// scalar kernel's k-association (accumulate over kk in order) but uses FMA,
// so products are not rounded before the add and results differ from the
// scalar tier by O(1 ulp) per accumulation step.  Each tier on its own is
// deterministic: rows are partitioned by parallel_for, every output element
// is owned by exactly one task, so results are invariant to thread count.
// A row of C costs k*n multiply-adds; the grain follows row_grain(k * n).
//
// The scalar reference is byte-for-byte the seed's matmul_loop
// (autograd/ops.cpp): memset, then parallel rows in an i-k-j loop.
#pragma once

#include <cstdint>

#include "ops/dispatch.hpp"

namespace fastchg::ops::gemm {

using index_t = std::int64_t;

/// Dispatching entry point (tier read per call).
void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o);

/// C[k, n] = A[m, k]^T * B[m, n] (the weight gradient of a matmul), reading
/// A in place.  Each output element accumulates over m in the same order,
/// with the same operations, as matmul(transpose(A), B): bit-identical to
/// it at each tier, without materializing the transpose.
void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* b, float* o);

namespace scalar {
/// Reference kernel: memset + parallel_for over rows, i-k-j.
void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o);
void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* b, float* o);
}  // namespace scalar

namespace avx2 {
/// Full AVX2 matmul (threads like the scalar kernel).  Forwards to scalar
/// when the toolchain cannot build AVX2.
void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o);
/// Row-range kernel [r0, r1): the non-inline symbol the threaded driver
/// calls, exposed for single-threaded differential tests.
void matmul_rows(index_t r0, index_t r1, index_t k, index_t n, const float* a,
                 const float* b, float* o);
void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* b, float* o);
/// Output rows [r0, r1) of A[m, k]^T * B[m, n].
void matmul_tn_rows(index_t r0, index_t r1, index_t m, index_t k, index_t n,
                    const float* a, const float* b, float* o);
}  // namespace avx2

}  // namespace fastchg::ops::gemm
