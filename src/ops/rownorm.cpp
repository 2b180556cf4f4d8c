// Baseline-ISA TU: scalar references (byte-for-byte the seed's fused loops
// from nn/layernorm.cpp and nn/gated_mlp.cpp) and tier dispatch.
#include "ops/rownorm.hpp"

#include <cmath>

#include "core/parallel_for.hpp"

namespace fastchg::ops::rownorm {

namespace scalar {

void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o) {
  for (index_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    double mean = 0.0;
    for (index_t c = 0; c < cols; ++c) mean += row[c];
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (index_t c = 0; c < cols; ++c) {
      const double d = row[c] - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float rstd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    float* orow = o + r * cols;
    for (index_t c = 0; c < cols; ++c) {
      orow[c] = (row[c] - static_cast<float>(mean)) * rstd * g[c] + b[c];
    }
  }
}

void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o) {
  auto ln_row = [eps](const float* row, index_t n, float& mean, float& rstd) {
    double m = 0.0;
    for (index_t i = 0; i < n; ++i) m += row[i];
    m /= static_cast<double>(n);
    double v = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double d = row[i] - m;
      v += d * d;
    }
    v /= static_cast<double>(n);
    mean = static_cast<float>(m);
    rstd = 1.0f / std::sqrt(static_cast<float>(v) + eps);
  };
  for (index_t r = 0; r < rows; ++r) {
    const float* core = x + r * 2 * c;
    const float* gate = core + c;
    float mc, rc, mg, rg;
    ln_row(core, c, mc, rc);
    ln_row(gate, c, mg, rg);
    float* orow = o + r * c;
    for (index_t i = 0; i < c; ++i) {
      const float cn = (core[i] - mc) * rc * gc[i] + bc[i];
      const float gn = (gate[i] - mg) * rg * gg[i] + bg[i];
      const float sc = 1.0f / (1.0f + std::exp(-cn));  // shared sigmoid
      const float sg = 1.0f / (1.0f + std::exp(-gn));
      orow[i] = sg * (cn * sc);  // sigmoid(gate) * silu(core)
    }
  }
}

}  // namespace scalar

// Rows are independent (statistics never cross a row), so both kernels
// split rows across the pool with bit-identical results.

void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o) {
  const auto k =
      active_tier() == Tier::kAvx2 ? avx2::layernorm : scalar::layernorm;
  parallel_rows(rows, cols, [=](index_t lo, index_t hi) {
    k(hi - lo, cols, eps, x + lo * cols, g, b, o + lo * cols);
  });
}

void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o) {
  const auto k =
      active_tier() == Tier::kAvx2 ? avx2::gated_act : scalar::gated_act;
  // Two row statistics plus two exp per output element.
  parallel_rows(rows, 16 * c, [=](index_t lo, index_t hi) {
    k(hi - lo, c, eps, x + lo * 2 * c, gc, bc, gg, bg, o + lo * c);
  });
}

}  // namespace fastchg::ops::rownorm
