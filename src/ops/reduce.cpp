// Baseline-ISA TU: scalar references and dispatch for the reduce family.
// sum_all / sum_dim1 deliberately ignore the tier (see reduce.hpp).
#include "ops/reduce.hpp"

#include <cstring>

#include "core/parallel_for.hpp"

namespace fastchg::ops::reduce {

namespace scalar {

double sum_all(index_t n, const float* x) {
  double acc = 0.0;
  for (index_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

void sum_dim0(index_t rows, index_t cols, const float* x, float* o) {
  std::memset(o, 0, static_cast<std::size_t>(cols) * sizeof(float));
  for (index_t r = 0; r < rows; ++r)
    for (index_t c = 0; c < cols; ++c) o[c] += x[r * cols + c];
}

void sum_dim1(index_t rows, index_t cols, const float* x, float* o) {
  for (index_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (index_t c = 0; c < cols; ++c) acc += x[r * cols + c];
    o[r] = static_cast<float>(acc);
  }
}

}  // namespace scalar

double sum_all(index_t n, const float* x) {
  // Pinned: serial double accumulation at every tier (see reduce.hpp).
  return scalar::sum_all(n, x);
}

void sum_dim0(index_t rows, index_t cols, const float* x, float* o) {
  if (active_tier() == Tier::kAvx2) {
    avx2::sum_dim0(rows, cols, x, o);
    return;
  }
  scalar::sum_dim0(rows, cols, x, o);
}

void sum_dim1(index_t rows, index_t cols, const float* x, float* o) {
  // Pinned for the same reason as sum_all.  Each row is its own serial
  // chain, so splitting rows across the pool keeps every sum bitwise.
  parallel_rows(rows, cols, [=](index_t lo, index_t hi) {
    scalar::sum_dim1(hi - lo, cols, x + lo * cols, o + lo);
  });
}

}  // namespace fastchg::ops::reduce
