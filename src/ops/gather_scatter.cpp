// Baseline-ISA TU: scalar references and tier dispatch for gather/scatter.
#include "ops/gather_scatter.hpp"

#include <cstring>

#include "core/parallel_for.hpp"

namespace fastchg::ops::gather_scatter {

namespace scalar {

void gather_rows(index_t k, index_t w, const index_t* idx, const float* x,
                 float* o) {
  for (index_t r = 0; r < k; ++r) {
    std::memcpy(o + r * w, x + idx[r] * w,
                static_cast<std::size_t>(w) * sizeof(float));
  }
}

void scatter_add_rows(index_t k, index_t rows, index_t w, const index_t* idx,
                      const float* s, float* o) {
  std::memset(o, 0, static_cast<std::size_t>(rows * w) * sizeof(float));
  for (index_t r = 0; r < k; ++r) {
    float* orow = o + idx[r] * w;
    const float* srow = s + r * w;
    for (index_t c = 0; c < w; ++c) orow[c] += srow[c];
  }
}

}  // namespace scalar

void gather_rows(index_t k, index_t w, const index_t* idx, const float* x,
                 float* o) {
  // Output rows are disjoint copies: split them across the pool.
  const auto kern =
      active_tier() == Tier::kAvx2 ? avx2::gather_rows : scalar::gather_rows;
  parallel_rows(k, w, [=](index_t lo, index_t hi) {
    kern(hi - lo, w, idx + lo, x, o + lo * w);
  });
}

void scatter_add_rows(index_t k, index_t rows, index_t w, const index_t* idx,
                      const float* s, float* o) {
  if (active_tier() == Tier::kAvx2) {
    avx2::scatter_add_rows(k, rows, w, idx, s, o);
    return;
  }
  scalar::scatter_add_rows(k, rows, w, idx, s, o);
}

}  // namespace fastchg::ops::gather_scatter
