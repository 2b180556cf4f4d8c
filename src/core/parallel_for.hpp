// Kernel-level threading: a small persistent thread pool with an
// OpenMP-style parallel_for (docs/ops.md, "Threading").  Every row-
// independent kernel of the op library -- GEMM, same-shape and broadcast
// eltwise, the scalar-pinned transcendentals, rownorm, sum_dim1 and the
// basis expansions -- splits its rows across the pool once a chunk carries
// at least kMinChunkElems floats of work.  Chunks are disjoint row ranges
// and no reduction crosses a chunk, so results are bit-identical for every
// thread count; with one worker (FASTCHG_NUM_THREADS=1, or a one-core
// host) everything runs inline.
#pragma once

#include <algorithm>
#include <type_traits>
#include <utility>

#include "core/tensor.hpp"

namespace fastchg {

/// Current worker count (>= 1).  Initialized from FASTCHG_NUM_THREADS, else
/// std::thread::hardware_concurrency().
int num_threads();

/// Override the worker count (rebuilds the pool; not thread-safe with
/// concurrent parallel_for calls).
void set_num_threads(int n);

/// True while the calling thread is executing inside a parallel_for chunk
/// scheduled on the pool (nested parallel_for calls run inline then).
bool in_parallel_region();

/// The grain rule: a chunk handed to another worker carries at least this
/// many floats of work, so waking a helper never costs more than the work
/// it takes over.
inline constexpr index_t kMinChunkElems = 8192;

/// Rows per chunk for a kernel touching `row_elems` floats per row.
inline index_t row_grain(index_t row_elems) {
  return std::max<index_t>(1, kMinChunkElems / std::max<index_t>(1, row_elems));
}

namespace detail {
using ChunkFn = void (*)(const void* ctx, index_t lo, index_t hi);
void parallel_for_impl(index_t begin, index_t end, index_t grain, ChunkFn fn,
                       const void* ctx);
}  // namespace detail

/// Invoke fn(begin_i, end_i) over a partition of [begin, end).  Ranges are
/// contiguous, disjoint, cover the interval exactly, and (except the last)
/// are a whole multiple of `grain` long, so a kernel whose per-row path
/// depends on alignment can pass a grain that keeps chunk boundaries
/// aligned.  Runs inline when the range is shorter than two grains or only
/// one worker exists.
///
/// Nesting is safe: a parallel_for issued from inside a worker chunk (e.g. a
/// tensor kernel launched by a serve micro-batch running on the pool) runs
/// its whole range inline on that worker instead of re-entering the shared
/// pool.  So does a parallel_for from a second outside thread while the pool
/// is serving another caller.  Outer callers therefore own the parallelism;
/// inner kernels degrade to serial, keeping results bit-identical.
template <class F>
void parallel_for(index_t begin, index_t end, index_t grain, F&& fn) {
  using Fn = std::remove_reference_t<F>;
  detail::parallel_for_impl(
      begin, end, grain,
      [](const void* ctx, index_t lo, index_t hi) {
        (*static_cast<Fn*>(const_cast<void*>(ctx)))(lo, hi);
      },
      static_cast<const void*>(&fn));
}

/// parallel_for over `rows` rows of `row_elems` floats each, with the grain
/// from row_grain().
template <class F>
void parallel_rows(index_t rows, index_t row_elems, F&& fn) {
  parallel_for(0, rows, row_grain(row_elems), std::forward<F>(fn));
}

}  // namespace fastchg
