#include "core/parallel_for.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "core/error.hpp"

namespace fastchg {

namespace {

int initial_thread_count() {
  if (const char* env = std::getenv("FASTCHG_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// How long an idle helper spins on the job generation before it parks on
/// the condition variable.  A parked thread on an idle vCPU takes tens of
/// microseconds to come back from notify_all -- longer than a typical
/// kernel -- so without the spin the caller runs every chunk itself before
/// a helper arrives.  Kept short so idle helpers do not oversubscribe a
/// host shared with other processes.
constexpr std::chrono::microseconds kSpin{50};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Depth of pool-scheduled chunks on this thread.  A nested parallel_for
/// (a tensor kernel inside a micro-batch that is itself a pool chunk) must
/// not re-enter the pool -- its job state is per-run -- so nested calls run
/// inline instead.
thread_local int t_pool_depth = 0;

/// Fork-join pool.  The calling thread becomes worker 0; helpers claim
/// chunks of the current job from an atomic counter.
///
/// Job protocol.  `gen_` is odd while a job is open and even between jobs.
/// The owner writes the job fields, opens the job (gen_ = odd), works, then
/// closes it (gen_ = even) and waits until `active_` drops to 0.  A helper
/// that sees an open generation registers in `active_` and re-reads gen_;
/// only if the job is still open does it read the fields and claim chunks.
/// Both sides use sequentially consistent operations, so either the owner's
/// wait sees the helper's registration or the helper sees the close -- a
/// late helper can never read the fields of the next job.
class Pool {
 public:
  explicit Pool(int workers) : workers_(workers) { spawn(); }

  ~Pool() { shutdown(); }

  int workers() const { return workers_; }

  void resize(int workers) {
    FASTCHG_CHECK(workers >= 1, "set_num_threads: " << workers);
    shutdown();
    workers_ = workers;
    spawn();
  }

  /// Run [begin, end) in chunks of `chunk` on the pool.  Returns false, and
  /// runs nothing, when another outside thread owns the pool right now.
  bool try_run(index_t begin, index_t end, index_t chunk,
               detail::ChunkFn fn, const void* ctx) {
    if (owned_.exchange(true, std::memory_order_acquire)) return false;
    end_ = end;
    chunk_ = chunk;
    fn_ = fn;
    ctx_ = ctx;
    next_.store(begin, std::memory_order_relaxed);
    const std::uint64_t open = gen_.load(std::memory_order_relaxed) + 1;
    gen_.store(open);
    if (parked_.load() > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
    // Closes the job even if a chunk throws on this thread.
    struct Close {
      Pool* p;
      std::uint64_t open;
      ~Close() { p->close(open); }
    } close{this, open};
    work();
    return true;
  }

 private:
  void close(std::uint64_t open) {
    gen_.store(open + 1);
    for (int spins = 0; active_.load() != 0; ++spins) {
      if (spins < 4096) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    owned_.store(false, std::memory_order_release);
  }

  void spawn() {
    stop_.store(false);
    for (int i = 1; i < workers_; ++i) {
      threads_.emplace_back([this] { helper_loop(); });
    }
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true);
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  bool job_ready(std::uint64_t seen, std::uint64_t& g) const {
    g = gen_.load();
    return (g & 1u) != 0 && g != seen;
  }

  /// Spin for kSpin, then park.  Returns false on shutdown.
  bool wait_for_job(std::uint64_t seen, std::uint64_t& g) {
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    for (int i = 0;; ++i) {
      if (stop_.load(std::memory_order_relaxed)) return false;
      if (job_ready(seen, g)) return true;
      cpu_relax();
      if ((i & 63) == 63) {
        if (std::chrono::steady_clock::now() > deadline) break;
        // Give the core away if another thread is waiting for it (several
        // processes sharing the host); returns at once on an idle core.
        std::this_thread::yield();
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    parked_.fetch_add(1);
    cv_.wait(lock, [&] { return stop_.load() || job_ready(seen, g); });
    parked_.fetch_sub(1);
    return !stop_.load();
  }

  void helper_loop() {
    std::uint64_t seen = 0;
    std::uint64_t g = 0;
    while (wait_for_job(seen, g)) {
      active_.fetch_add(1);
      if (gen_.load() == g) work();
      active_.fetch_sub(1, std::memory_order_release);
      seen = g;
    }
  }

  void work() {
    const index_t end = end_, chunk = chunk_;
    const detail::ChunkFn fn = fn_;
    const void* ctx = ctx_;
    ++t_pool_depth;
    for (;;) {
      const index_t lo = next_.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      fn(ctx, lo, std::min(lo + chunk, end));
    }
    --t_pool_depth;
  }

  int workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> owned_{false};
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<int> active_{0};
  std::atomic<int> parked_{0};
  std::atomic<index_t> next_{0};
  // Job fields: written by the owner before gen_ opens, read by helpers
  // that pass the open-generation check.
  index_t end_ = 0, chunk_ = 1;
  detail::ChunkFn fn_ = nullptr;
  const void* ctx_ = nullptr;
};

Pool& pool() {
  static Pool p(initial_thread_count());
  return p;
}

}  // namespace

int num_threads() { return pool().workers(); }

void set_num_threads(int n) { pool().resize(n); }

bool in_parallel_region() { return t_pool_depth > 0; }

namespace detail {

void parallel_for_impl(index_t begin, index_t end, index_t grain, ChunkFn fn,
                       const void* ctx) {
  if (end <= begin) return;
  const index_t n = end - begin;
  grain = std::max<index_t>(grain, 1);
  Pool& p = pool();
  const int workers = p.workers();
  if (t_pool_depth > 0 || workers == 1 || n < 2 * grain) {
    fn(ctx, begin, end);
    return;
  }
  // ~4 chunks per worker for dynamic balance, each a whole number of
  // grains (so chunk boundaries stay grain-aligned).
  const index_t per = 4 * static_cast<index_t>(workers);
  index_t chunk = std::max<index_t>(grain, (n + per - 1) / per);
  chunk = (chunk + grain - 1) / grain * grain;
  if (chunk >= n || !p.try_run(begin, end, chunk, fn, ctx)) {
    fn(ctx, begin, end);
  }
}

}  // namespace detail

}  // namespace fastchg
