// Tier-dispatching entry points for the eltwise family.  This TU is
// compiled with the baseline ISA (no -mavx2), so the scalar:: fallbacks
// here can never be auto-vectorized into something the reference loop is
// not; the AVX2 bodies live in eltwise_avx2.cpp.
#include "ops/eltwise.hpp"

#include "core/parallel_for.hpp"

namespace fastchg::ops::eltwise {

namespace {

/// Split [0, n) elementwise across the pool; k(lo, len) runs one chunk.
template <class K>
void split(index_t n, K k) {
  parallel_rows(n, 1, [&](index_t lo, index_t hi) { k(lo, hi - lo); });
}

bool vec() { return active_tier() == Tier::kAvx2; }

}  // namespace

#define FASTCHG_EW_BIN(name)                                          \
  void name(index_t n, const float* a, const float* b, float* o) {    \
    const auto k = vec() ? avx2::name : scalar::name;                 \
    split(n, [=](index_t lo, index_t len) {                           \
      k(len, a + lo, b + lo, o + lo);                                 \
    });                                                               \
  }
#define FASTCHG_EW_SCALAR(name)                                       \
  void name(index_t n, const float* a, float s, float* o) {           \
    const auto k = vec() ? avx2::name : scalar::name;                 \
    split(n, [=](index_t lo, index_t len) {                           \
      k(len, a + lo, s, o + lo);                                      \
    });                                                               \
  }
#define FASTCHG_EW_UNARY(name)                                        \
  void name(index_t n, const float* a, float* o) {                    \
    const auto k = vec() ? avx2::name : scalar::name;                 \
    split(n, [=](index_t lo, index_t len) { k(len, a + lo, o + lo); }); \
  }
#define FASTCHG_EW_RANGE(name)                                        \
  void name(index_t n, const float* a, float lo_, float hi_, float* o) { \
    const auto k = vec() ? avx2::name : scalar::name;                 \
    split(n, [=](index_t lo, index_t len) {                           \
      k(len, a + lo, lo_, hi_, o + lo);                               \
    });                                                               \
  }

FASTCHG_EW_BIN(add)
FASTCHG_EW_BIN(sub)
FASTCHG_EW_BIN(mul)
FASTCHG_EW_BIN(div)
FASTCHG_EW_SCALAR(add_s)
FASTCHG_EW_SCALAR(sub_s)
FASTCHG_EW_SCALAR(rsub_s)
FASTCHG_EW_SCALAR(mul_s)
FASTCHG_EW_SCALAR(div_s)
FASTCHG_EW_SCALAR(rdiv_s)
FASTCHG_EW_UNARY(neg)
FASTCHG_EW_UNARY(abs)
FASTCHG_EW_UNARY(square)
FASTCHG_EW_UNARY(recip)
FASTCHG_EW_UNARY(sqrt)
FASTCHG_EW_UNARY(sign)
FASTCHG_EW_RANGE(clamp)
FASTCHG_EW_RANGE(clamp_mask)

#undef FASTCHG_EW_BIN
#undef FASTCHG_EW_SCALAR
#undef FASTCHG_EW_UNARY
#undef FASTCHG_EW_RANGE

void axpy(index_t n, float s, const float* a, float* o) {
  const auto k = vec() ? avx2::axpy : scalar::axpy;
  split(n, [=](index_t lo, index_t len) { k(len, s, a + lo, o + lo); });
}

void scale(index_t n, float s, float* o) {
  const auto k = vec() ? avx2::scale : scalar::scale;
  split(n, [=](index_t lo, index_t len) { k(len, s, o + lo); });
}

namespace scalar {

void bcast(BinOp op, Bcast pat, index_t rows, index_t cols, const float* a,
           const float* b, float* o) {
  using Vec = void (*)(index_t, const float*, const float*, float*);
  using Sca = void (*)(index_t, const float*, float, float*);
  static constexpr Vec kVec[] = {add, sub, mul, div};
  // A scalar on the left of sub/div flips to rsub_s/rdiv_s.
  static constexpr Sca kLeft[] = {add_s, rsub_s, mul_s, rdiv_s};
  static constexpr Sca kRight[] = {add_s, sub_s, mul_s, div_s};
  const int i = static_cast<int>(op);
  for (index_t r = 0; r < rows; ++r) {
    float* d = o + r * cols;
    switch (pat) {
      case Bcast::kARow: kVec[i](cols, a, b + r * cols, d); break;
      case Bcast::kBRow: kVec[i](cols, a + r * cols, b, d); break;
      case Bcast::kACol: kLeft[i](cols, b + r * cols, a[r], d); break;
      case Bcast::kBCol: kRight[i](cols, a + r * cols, b[r], d); break;
    }
  }
}

}  // namespace scalar

void bcast(BinOp op, Bcast pat, index_t rows, index_t cols, const float* a,
           const float* b, float* o) {
  const auto k = vec() ? avx2::bcast : scalar::bcast;
  parallel_rows(rows, cols, [=](index_t lo, index_t hi) {
    const index_t full = lo * cols;
    const bool a_row = pat == Bcast::kARow, b_row = pat == Bcast::kBRow;
    const float* pa = a_row ? a : a + (pat == Bcast::kACol ? lo : full);
    const float* pb = b_row ? b : b + (pat == Bcast::kBCol ? lo : full);
    k(op, pat, hi - lo, cols, pa, pb, o + full);
  });
}

}  // namespace fastchg::ops::eltwise
