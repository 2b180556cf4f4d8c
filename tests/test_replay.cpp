// Recorded-step replay (core/replay.hpp + core/memplan.hpp) coverage:
//
//   * memory planner: hand-built nested/disjoint lifetime patterns hit the
//     max-live lower bound exactly, and seeded random lifetime sets
//     (overlapping, nested, zero-length) always pass the brute-force
//     plan_valid() checker with 64 B-aligned offsets;
//   * capture: two recordings of the same step produce identical
//     fingerprints, and a captured program's plan is valid and tracked in
//     the replay_plan_bytes gauge, which does not drift across
//     invalidate -> recapture cycles;
//   * replay: bit-exact (max |diff| == 0.0) against eager for a raw op
//     sequence, seeded random op chains (gathers, scatters, reductions,
//     broadcasts, matmuls, unary ops) with a tapped intermediate, every
//     elementwise op's forward + backward at every broadcast pattern
//     (replay also reports exactly the eager kernel count), the
//     single-device trainer (weights + Adam state via
//     checkpoint byte identity), every data-parallel replica, and the fused
//     serve forward -- each over >= 10 consecutive steps;
//   * cache protocol: eager -> capture -> replay warm-up, LRU eviction,
//     invalidate-and-recapture, bind rejection on shape mismatch or a
//     replaced stable pointer, and full inertness when replay is disabled;
//   * golden tapes: exact counted kernels of the trainer, DP-device and
//     serve programs at a fixed topology;
//   * fuzz: seeded shape churn and poisoned batches through the serving
//     engine with replay on -- no crash, no silent NaN, typed errors only,
//     and replay lookups reconcile with micro-batches + bisections;
//   * counters: replay counter updates racing Counters::reset() stay
//     consistent (no tearing, gauge never wraps).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.hpp"
#include "core/memplan.hpp"
#include "core/replay.hpp"
#include "data/batch.hpp"
#include "data/dataset.hpp"
#include "parallel/data_parallel.hpp"
#include "perf/counters.hpp"
#include "serve/engine.hpp"
#include "train/trainer.hpp"

namespace fastchg {
namespace {

using replay::BufferLife;
using replay::MemPlan;
using replay::Program;
using replay::ProgramCache;
using replay::Recorder;
using replay::RecorderScope;

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = replay::replay_enabled(); }
  void TearDown() override { replay::set_replay_enabled(prev_); }

 private:
  bool prev_ = true;
};

model::ModelConfig tiny_config() {
  model::ModelConfig cfg;
  cfg.feat_dim = 12;
  cfg.num_radial = 7;
  cfg.num_angular = 7;
  cfg.num_layers = 2;
  return cfg;
}

/// `n` copies of one generated crystal: every batch of equal size collates
/// identically, so a single replay key covers the whole run and the cache
/// walks its full eager -> capture -> replay protocol.
data::Dataset identical_rows(index_t n, std::uint64_t seed) {
  data::GeneratorConfig g;
  g.min_atoms = 4;
  g.max_atoms = 6;
  data::Dataset one = data::Dataset::generate(1, seed, g);
  std::vector<data::Crystal> crystals(static_cast<std::size_t>(n),
                                      one[0].crystal);
  return data::Dataset::from_crystals(std::move(crystals));
}

std::vector<index_t> all_rows(const data::Dataset& ds) {
  std::vector<index_t> idx(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    idx[static_cast<std::size_t>(i)] = i;
  }
  return idx;
}

std::vector<float> flatten_parameters(const model::CHGNet& net) {
  std::vector<float> flat;
  for (const ag::Var& p : net.parameters()) {
    const std::vector<float> v = p.value().to_vector();
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Memory planner
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, PlanDisjointLifetimesShareBytes) {
  // Three buffers alive one after another: all share offset 0 and the slab
  // is just the largest aligned size -- which is also the max-live bound.
  std::vector<BufferLife> lives = {
      {256, 0, 1, 0}, {512, 2, 3, 0}, {128, 4, 5, 0}};
  const MemPlan plan = replay::plan_memory(lives);
  EXPECT_TRUE(replay::plan_valid(plan));
  EXPECT_EQ(plan.slab_bytes, replay::aligned_bytes(512));
  EXPECT_EQ(plan.slab_bytes, plan.lower_bound_bytes);
  for (const BufferLife& b : plan.buffers) EXPECT_EQ(b.offset, 0u);
}

TEST_F(ReplayTest, PlanNestedLifetimesHitLowerBound) {
  // Nested pattern an autograd step produces: a long-lived activation, a
  // shorter-lived one inside it, and transient scratch inside that.
  std::vector<BufferLife> lives = {
      {1024, 0, 9, 0},  // outer
      {256, 1, 6, 0},   // middle
      {64, 2, 3, 0},    // inner scratch
      {64, 4, 5, 0},    // second scratch, reuses the first's bytes
  };
  const MemPlan plan = replay::plan_memory(lives);
  EXPECT_TRUE(replay::plan_valid(plan));
  EXPECT_EQ(plan.slab_bytes, plan.lower_bound_bytes);
  EXPECT_EQ(plan.buffers[2].offset, plan.buffers[3].offset)
      << "disjoint scratch buffers should share bytes";
}

TEST_F(ReplayTest, PlanRandomLifetimesAlwaysValid) {
  // Every plan: no overlap (brute force), 64 B-aligned offsets, and a slab
  // no smaller than the max-live lower bound.
  const auto check = [](const std::vector<BufferLife>& lives) {
    const MemPlan plan = replay::plan_memory(lives);
    ASSERT_TRUE(replay::plan_valid(plan));
    for (const BufferLife& b : plan.buffers) {
      ASSERT_EQ(b.offset % MemPlan::kAlign, 0u);
    }
    ASSERT_GE(plan.slab_bytes, plan.lower_bound_bytes);
  };

  // Arbitrary overlapping intervals.
  std::mt19937_64 rng(20250808u);
  for (int iter = 0; iter < 50; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    const int n = 1 + static_cast<int>(rng() % 40);
    std::vector<BufferLife> lives;
    lives.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      BufferLife b;
      b.bytes = 4 * (1 + rng() % 300);
      b.def = static_cast<int>(rng() % 100);
      b.last = b.def + static_cast<int>(rng() % 30);
      lives.push_back(b);
    }
    check(lives);
  }

  // Mixed patterns, one seed per set (logged on failure): zero-length
  // lifetimes, intervals nested inside an earlier one, and overlaps; the
  // empty set is included.
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint64_t seed = 0xbeef0000u + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 prng(seed);
    const int n = static_cast<int>(prng() % 60);
    std::vector<BufferLife> lives;
    lives.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      BufferLife b;
      b.bytes = 4 * (1 + prng() % 400);
      switch (prng() % 4) {
        case 0:  // zero-length lifetime: def == last
          b.def = static_cast<int>(prng() % 50);
          b.last = b.def;
          break;
        case 1:  // nested inside a previous interval when one exists
          if (!lives.empty()) {
            const BufferLife& outer =
                lives[static_cast<std::size_t>(prng() % lives.size())];
            b.def = outer.def + static_cast<int>(prng() % 3);
            b.last =
                std::max(b.def, outer.last - static_cast<int>(prng() % 3));
            break;
          }
          [[fallthrough]];
        default:  // arbitrary overlap
          b.def = static_cast<int>(prng() % 50);
          b.last = b.def + static_cast<int>(prng() % 25);
          break;
      }
      lives.push_back(b);
    }
    check(lives);
  }
}

// ---------------------------------------------------------------------------
// Recorder / Program on a raw op sequence
// ---------------------------------------------------------------------------

/// A small step over two bound inputs: matmul, residual add, elementwise
/// mul.  Returns the output value tensor.
Tensor tiny_step(const Tensor& x, const Tensor& y) {
  ag::Var vx = ag::ops::constant(x);
  ag::Var vy = ag::ops::constant(y);
  ag::Var z = ag::ops::add(ag::ops::matmul(vx, vy), vx);
  return ag::ops::mul(z, vy).value();
}

Tensor random_square(std::mt19937_64& rng, index_t n) {
  std::vector<float> v(static_cast<std::size_t>(n * n));
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& f : v) f = dist(rng);
  return Tensor::from_vector(std::move(v), {n, n});
}

std::shared_ptr<Program> capture_tiny(const Tensor& x, const Tensor& y) {
  Recorder rec;
  rec.bind_input(x);
  rec.bind_input(y);
  Tensor out;
  {
    RecorderScope scope(rec);
    out = tiny_step(x, y);
  }
  rec.tap(out);
  return rec.finish();
}

TEST_F(ReplayTest, CaptureFingerprintIsDeterministic) {
  std::mt19937_64 rng(7u);
  const Tensor x = random_square(rng, 4), y = random_square(rng, 4);
  const auto p1 = capture_tiny(x, y);
  const auto p2 = capture_tiny(x, y);
  EXPECT_EQ(p1->fingerprint(), p2->fingerprint());
  EXPECT_EQ(p1->num_steps(), p2->num_steps());
  EXPECT_GT(p1->num_steps(), 0u);
}

TEST_F(ReplayTest, ReplayMatchesEagerBitExactOnFreshInputs) {
  std::mt19937_64 rng(11u);
  const auto program = capture_tiny(random_square(rng, 4),
                                    random_square(rng, 4));
  for (int step = 0; step < 10; ++step) {
    const Tensor x = random_square(rng, 4), y = random_square(rng, 4);
    ASSERT_TRUE(program->bind({x, y}, {}));
    program->run();
    const Tensor got = program->tap_value(0);
    const Tensor want = tiny_step(x, y);
    ASSERT_EQ(got.numel(), want.numel());
    for (index_t i = 0; i < want.numel(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i]) << "step " << step;
    }
  }
}

TEST_F(ReplayTest, CapturedPlanIsValidAndGaugeTracksSlab) {
  std::mt19937_64 rng(13u);
  const std::uint64_t before =
      perf::counters().snapshot().replay_plan_bytes;
  {
    const auto program = capture_tiny(random_square(rng, 4),
                                      random_square(rng, 4));
    EXPECT_TRUE(replay::plan_valid(program->plan()));
    EXPECT_GT(program->plan_bytes(), 0u);
    EXPECT_GE(perf::counters().snapshot().replay_plan_bytes,
              before + program->plan_bytes());
  }
  // Program destroyed: its slab leaves the gauge again.
  EXPECT_EQ(perf::counters().snapshot().replay_plan_bytes, before);
}

TEST_F(ReplayTest, PlanBytesGaugeDoesNotDriftAcrossInvalidateRecapture) {
  replay::set_replay_enabled(true);
  const std::uint64_t base =
      perf::counters().snapshot().replay_plan_bytes;
  std::mt19937_64 rng(0x9a6eu);
  const std::uint64_t key = 0x60'1de'11u;
  {
    ProgramCache cache(4);
    (void)cache.acquire(key);
    ASSERT_EQ(cache.acquire(key).action, ProgramCache::Action::kCapture);
    cache.store(key, capture_tiny(random_square(rng, 4),
                                  random_square(rng, 4)));
    std::uint64_t with_program = 0;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      std::uint64_t pb = 0;
      {
        // Scope the snapshot: a lingering shared_ptr would keep the slab
        // alive through the invalidate below.
        const auto programs = cache.programs();
        ASSERT_EQ(programs.size(), 1u);
        pb = programs[0]->plan_bytes();
      }
      const std::uint64_t now =
          perf::counters().snapshot().replay_plan_bytes;
      ASSERT_EQ(now, base + pb);
      if (round == 0) {
        with_program = now;
      } else {
        ASSERT_EQ(now, with_program) << "gauge drifted across recapture";
      }
      // Invalidate: the program (and its slab) must leave the gauge.
      cache.invalidate(key);
      ASSERT_EQ(perf::counters().snapshot().replay_plan_bytes, base);
      // Self-heal: the invalidated sighting counted as the eager pass, so
      // the very next sighting re-captures.
      ASSERT_EQ(cache.acquire(key).action, ProgramCache::Action::kCapture);
      cache.store(key, capture_tiny(random_square(rng, 4),
                                    random_square(rng, 4)));
    }
  }
  // Cache destroyed: everything returns to baseline.
  EXPECT_EQ(perf::counters().snapshot().replay_plan_bytes, base);
}

TEST_F(ReplayTest, BindRejectsShapeMismatchAndArity) {
  std::mt19937_64 rng(17u);
  const auto program = capture_tiny(random_square(rng, 4),
                                    random_square(rng, 4));
  EXPECT_FALSE(program->bind({random_square(rng, 4)}, {}));  // arity
  EXPECT_FALSE(
      program->bind({random_square(rng, 4), random_square(rng, 5)}, {}));
  EXPECT_TRUE(
      program->bind({random_square(rng, 4), random_square(rng, 4)}, {}));
}

TEST_F(ReplayTest, BindRejectsReplacedStablePointer) {
  std::mt19937_64 rng(19u);
  const Tensor x = random_square(rng, 3), y = random_square(rng, 3);
  Recorder rec;
  rec.bind_input(x);
  rec.expect_stable(y);  // y is a baked operand that must not move
  Tensor out;
  {
    RecorderScope scope(rec);
    out = tiny_step(x, y);
  }
  rec.tap(out);
  const auto program = rec.finish();
  EXPECT_TRUE(program->bind({random_square(rng, 3)}, {y}));
  EXPECT_FALSE(program->bind({random_square(rng, 3)}, {y.clone()}))
      << "a replaced stable storage must fail bind";
  EXPECT_FALSE(program->bind({random_square(rng, 3)}, {}))
      << "stable arity mismatch must fail bind";
}

// ---------------------------------------------------------------------------
// ProgramCache protocol
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, CacheWalksEagerCaptureReplay) {
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(23u);
  ProgramCache cache(4);
  const std::uint64_t key = 0x1234;

  auto l1 = cache.acquire(key);
  EXPECT_EQ(l1.action, ProgramCache::Action::kEager);
  auto l2 = cache.acquire(key);
  EXPECT_EQ(l2.action, ProgramCache::Action::kCapture);
  // A concurrent sighting while the capture is in flight stays eager.
  auto l3 = cache.acquire(key);
  EXPECT_EQ(l3.action, ProgramCache::Action::kEager);
  cache.store(key, capture_tiny(random_square(rng, 3),
                                random_square(rng, 3)));
  auto l4 = cache.acquire(key);
  EXPECT_EQ(l4.action, ProgramCache::Action::kReplay);
  ASSERT_TRUE(l4.program != nullptr);
  EXPECT_TRUE(l4.lock.owns_lock());
  // The lease serializes the slab: a second replay of the same program
  // while the lease is held falls back to eager.
  auto l5 = cache.acquire(key);
  EXPECT_EQ(l5.action, ProgramCache::Action::kEager);

  const ProgramCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, 5u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.captures, 1u);
  EXPECT_GE(s.fallbacks, 1u);  // the contended lease
}

TEST_F(ReplayTest, CacheEvictsLeastRecentlyUsedProgram) {
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(29u);
  ProgramCache cache(2);
  for (std::uint64_t key = 1; key <= 3; ++key) {
    (void)cache.acquire(key);
    auto l = cache.acquire(key);
    ASSERT_EQ(l.action, ProgramCache::Action::kCapture) << key;
    cache.store(key, capture_tiny(random_square(rng, 3),
                                  random_square(rng, 3)));
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GE(cache.stats().evictions, 1u);
  // Key 1 was the least recently used: it must have been evicted.
  auto l = cache.acquire(1);
  EXPECT_NE(l.action, ProgramCache::Action::kReplay);
}

TEST_F(ReplayTest, CacheInvalidateForcesRecapture) {
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(31u);
  ProgramCache cache(4);
  const std::uint64_t key = 7;
  (void)cache.acquire(key);
  (void)cache.acquire(key);
  cache.store(key, capture_tiny(random_square(rng, 3),
                                random_square(rng, 3)));
  ASSERT_EQ(cache.acquire(key).action, ProgramCache::Action::kReplay);

  cache.invalidate(key);
  EXPECT_EQ(cache.size(), 0u);
  // The failed-bind sighting counts as the fresh eager pass, so the very
  // next sighting re-captures.
  EXPECT_EQ(cache.acquire(key).action, ProgramCache::Action::kCapture);
}

TEST_F(ReplayTest, DisabledReplayIsCompletelyInert) {
  replay::set_replay_enabled(false);
  ProgramCache cache(4);
  for (int i = 0; i < 5; ++i) {
    auto l = cache.acquire(42);
    EXPECT_EQ(l.action, ProgramCache::Action::kEager);
    EXPECT_TRUE(l.program == nullptr);
  }
  const ProgramCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.captures, 0u);
}

// ---------------------------------------------------------------------------
// Op coverage: random chains and every elementwise op, replay vs eager
// ---------------------------------------------------------------------------

Tensor random_tensor(std::mt19937_64& rng, const Shape& shape, float lo,
                     float hi) {
  index_t n = 1;
  for (index_t d : shape) n *= d;
  std::vector<float> v(static_cast<std::size_t>(n));
  std::uniform_real_distribution<float> dist(lo, hi);
  for (float& f : v) f = dist(rng);
  return Tensor::from_vector(std::move(v), shape);
}

/// Bit-level equality: NaNs with identical payloads compare equal, so a
/// deterministic non-finite excursion in a random chain still matches.
void expect_bytes_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

/// Deterministic random op chain over three leaves: X [N,C] (working set),
/// T [R,C] (gather table), W [C,C] (matmul operand).  The *structure*
/// (which ops, which indices) comes from `structure_seed`; the float
/// payloads come from the leaf tensors, so one structure can be replayed
/// over many batches.  Returns the tapped tensors (reduction outputs,
/// scatter results, and the final value).
struct ChainSpec {
  std::uint64_t structure_seed = 0;
  index_t n = 6;
  index_t c = 5;
  index_t r = 4;
  int num_ops = 18;
};

std::vector<Tensor> eval_chain(const ChainSpec& cs, const Tensor& x,
                               const Tensor& t, const Tensor& w) {
  std::mt19937_64 rng(cs.structure_seed);
  ag::Var vt = ag::ops::constant(t);
  ag::Var vw = ag::ops::constant(w);
  std::vector<ag::Var> pool;  // every entry is [N,C]
  pool.push_back(ag::ops::constant(x));
  std::vector<Tensor> taps;
  auto pick = [&]() -> const ag::Var& {
    return pool[static_cast<std::size_t>(rng() % pool.size())];
  };
  for (int k = 0; k < cs.num_ops; ++k) {
    switch (rng() % 12) {
      case 0: {  // gather: fresh rows from the table
        std::vector<index_t> idx(static_cast<std::size_t>(cs.n));
        for (index_t& v : idx) v = static_cast<index_t>(rng() % cs.r);
        pool.push_back(ag::ops::index_select0(vt, std::move(idx)));
        break;
      }
      case 1: {  // scatter: accumulate the value into R rows
        std::vector<index_t> idx(static_cast<std::size_t>(cs.n));
        for (index_t& v : idx) v = static_cast<index_t>(rng() % cs.r);
        taps.push_back(
            ag::ops::index_add0(cs.r, std::move(idx), pick()).value());
        break;
      }
      case 2:  // reductions
        taps.push_back(ag::ops::sum_all(pick()).value());
        break;
      case 3:
        taps.push_back(
            ag::ops::sum_dim(pick(), static_cast<index_t>(rng() % 2),
                             /*keepdim=*/false)
                .value());
        break;
      case 4: {  // binary, same shape
        const ag::Var& a = pick();
        const ag::Var& b = pick();
        switch (rng() % 3) {
          case 0:
            pool.push_back(ag::ops::add(a, b));
            break;
          case 1:
            pool.push_back(ag::ops::sub(a, b));
            break;
          default:
            pool.push_back(ag::ops::mul(a, b));
            break;
        }
        break;
      }
      case 5: {  // broadcast binary: row / col / scalar operand from a
                 // reduction of another pool value
        const ag::Var& a = pick();
        const ag::Var& b = pick();
        switch (rng() % 3) {
          case 0:
            pool.push_back(
                ag::ops::mul(a, ag::ops::sum_dim(b, 0, /*keepdim=*/true)));
            break;
          case 1:
            pool.push_back(
                ag::ops::add(a, ag::ops::sum_dim(b, 1, /*keepdim=*/true)));
            break;
          default:
            pool.push_back(ag::ops::add(a, ag::ops::sum_all(b)));
            break;
        }
        break;
      }
      case 6:
        pool.push_back(ag::ops::matmul(pick(), vw));
        break;
      default: {  // elementwise unary (bounded ones keep values tame)
        const ag::Var& a = pick();
        switch (rng() % 8) {
          case 0:
            pool.push_back(ag::ops::tanh_op(a));
            break;
          case 1:
            pool.push_back(ag::ops::sigmoid(a));
            break;
          case 2:
            pool.push_back(ag::ops::silu(a));
            break;
          case 3:
            pool.push_back(ag::ops::neg(a));
            break;
          case 4:
            pool.push_back(ag::ops::sin_op(a));
            break;
          case 5:
            pool.push_back(ag::ops::mul_scalar(a, 0.5f));
            break;
          case 6:
            pool.push_back(ag::ops::clamp(a, -2.0f, 2.0f));
            break;
          default:
            pool.push_back(ag::ops::square(a));
            break;
        }
        break;
      }
    }
  }
  taps.push_back(pool.back().value());
  return taps;
}

TEST_F(ReplayTest, DifferentialRandomChainsReplayVsEager) {
  for (std::uint64_t structure = 0; structure < 20; ++structure) {
    ChainSpec cs;
    cs.structure_seed = 0xc0ffee00u + structure;
    SCOPED_TRACE("structure_seed=" + std::to_string(cs.structure_seed));
    std::mt19937_64 rng(cs.structure_seed * 31 + 1);
    const Tensor x0 = random_tensor(rng, {cs.n, cs.c}, -1.0f, 1.0f);
    const Tensor t0 = random_tensor(rng, {cs.r, cs.c}, -1.0f, 1.0f);
    const Tensor w0 = random_tensor(rng, {cs.c, cs.c}, -1.0f, 1.0f);

    Recorder rec;
    rec.bind_input(x0);
    rec.bind_input(t0);
    rec.bind_input(w0);
    std::vector<Tensor> taps;
    {
      RecorderScope scope(rec);
      taps = eval_chain(cs, x0, t0, w0);
    }
    for (const Tensor& tap : taps) rec.tap(tap);
    const auto program = rec.finish();
    EXPECT_TRUE(replay::plan_valid(program->plan()));

    for (int rep = 0; rep < 3; ++rep) {
      const Tensor x = random_tensor(rng, {cs.n, cs.c}, -1.0f, 1.0f);
      const Tensor t = random_tensor(rng, {cs.r, cs.c}, -1.0f, 1.0f);
      const Tensor w = random_tensor(rng, {cs.c, cs.c}, -1.0f, 1.0f);
      ASSERT_TRUE(program->bind({x, t, w}, {}));
      program->run();
      const std::vector<Tensor> eager = eval_chain(cs, x, t, w);
      ASSERT_EQ(program->tap_count(), eager.size());
      for (std::size_t i = 0; i < eager.size(); ++i) {
        expect_bytes_equal(program->tap_value(i), eager[i], "replay vs eager");
      }
    }
  }
}

TEST_F(ReplayTest, TappedIntermediateKeepsItsValue) {
  // Tap the middle of an elementwise chain whose later steps could reuse
  // its bytes: the tap pins the slot, so it still holds the mid value.
  std::mt19937_64 rng(99u);
  auto step = [](const Tensor& x, Tensor* mid) {
    ag::Var a = ag::ops::tanh_op(ag::ops::constant(x));
    *mid = a.value();
    ag::Var b = ag::ops::square(a);
    ag::Var c = ag::ops::sigmoid(b);
    return ag::ops::mul_scalar(c, 0.25f).value();
  };
  const Tensor x0 = random_tensor(rng, {8, 3}, -1.0f, 1.0f);
  Recorder rec;
  rec.bind_input(x0);
  Tensor mid, out;
  {
    RecorderScope scope(rec);
    out = step(x0, &mid);
  }
  rec.tap(mid);
  rec.tap(out);
  const auto program = rec.finish();
  for (int rep = 0; rep < 3; ++rep) {
    const Tensor x = random_tensor(rng, {8, 3}, -1.0f, 1.0f);
    ASSERT_TRUE(program->bind({x}, {}));
    program->run();
    Tensor want_mid;
    const Tensor want_out = step(x, &want_mid);
    expect_bytes_equal(program->tap_value(0), want_mid, "tapped mid");
    expect_bytes_equal(program->tap_value(1), want_out, "final");
  }
}

/// One elementwise op: `f(x, y)` builds its forward ([N,C] result) from
/// leaf x [N,C] and, for binary ops, leaf y.  Inputs are drawn from
/// (0.1, 0.9), inside the domain of every op (log, sqrt, acos, pow,
/// reciprocal, div).
struct EltwiseCase {
  const char* name;
  bool binary;
  ag::Var (*f)(const ag::Var& x, const ag::Var& y);
};

constexpr index_t kOpRows = 7;
constexpr index_t kOpCols = 13;

const EltwiseCase kEltwiseCases[] = {
    {"add", true, [](const ag::Var& x, const ag::Var& y) {
       return ag::ops::add(ag::ops::add(x, y), ag::ops::add(y, x));
     }},
    {"sub", true, [](const ag::Var& x, const ag::Var& y) {
       return ag::ops::add(ag::ops::sub(x, y), ag::ops::sub(y, x));
     }},
    {"mul", true, [](const ag::Var& x, const ag::Var& y) {
       return ag::ops::add(ag::ops::mul(x, y), ag::ops::mul(y, x));
     }},
    {"div", true, [](const ag::Var& x, const ag::Var& y) {
       return ag::ops::add(ag::ops::div(x, y), ag::ops::div(y, x));
     }},
    {"add_scalar", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::add_scalar(x, 0.75f);
     }},
    {"mul_scalar", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::mul_scalar(x, -1.25f);
     }},
    {"pow_scalar", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::pow_scalar(x, 1.5f);
     }},
    {"neg", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::neg(x);
     }},
    {"exp", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::exp_op(x);
     }},
    {"log", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::log_op(x);
     }},
    {"sqrt", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::sqrt_op(x);
     }},
    {"sin", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::sin_op(x);
     }},
    {"cos", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::cos_op(x);
     }},
    {"acos", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::acos_op(x);
     }},
    {"tanh", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::tanh_op(x);
     }},
    {"sigmoid", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::sigmoid(x);
     }},
    {"silu", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::silu(x);
     }},
    {"abs", false, [](const ag::Var& x, const ag::Var&) {
       // Shift so both signs occur and abs/sign do real work.
       return ag::ops::abs_op(ag::ops::add_scalar(x, -0.5f));
     }},
    {"reciprocal", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::reciprocal(x);
     }},
    {"square", false, [](const ag::Var& x, const ag::Var&) {
       return ag::ops::square(x);
     }},
    {"clamp", false, [](const ag::Var& x, const ag::Var&) {
       // Bounds inside the input range: both the clamped and the
       // pass-through branches of value and mask occur.
       return ag::ops::clamp(x, 0.3f, 0.7f);
     }},
};

void PrintTo(const EltwiseCase& c, std::ostream* os) { *os << c.name; }

class ReplayEltwiseOp : public ::testing::TestWithParam<EltwiseCase> {};

/// Forward value and input gradients of one op under the upstream gradient
/// `g`, all as tensors (an input the op does not read contributes none).
std::vector<Tensor> eltwise_step(const EltwiseCase& c, const Tensor& xt,
                                 const Tensor& yt, const Tensor& gt) {
  ag::Var x(xt, /*requires_grad=*/true);
  ag::Var y(yt, /*requires_grad=*/true);
  ag::Var out = c.f(x, y);
  std::vector<ag::Var> inputs = {x};
  if (c.binary) inputs.push_back(y);
  const std::vector<ag::Var> grads =
      ag::grad(out, inputs, ag::ops::constant(gt));
  std::vector<Tensor> result = {out.value()};
  for (const ag::Var& gv : grads) result.push_back(gv.value());
  return result;
}

TEST_P(ReplayEltwiseOp, ForwardAndBackwardBitExactVsEager) {
  // Each op runs the same kernel call eagerly and from its recorded
  // closure: replaying the captured forward + backward over fresh inputs
  // must reproduce eager bytes exactly, and report exactly the kernels the
  // eager step launched.  Binary ops cover every broadcast pattern (y as
  // the same shape, a row, a column or a scalar, on either side).
  const EltwiseCase& c = GetParam();
  const Shape full = {kOpRows, kOpCols};
  std::vector<Shape> y_shapes = {full};
  if (c.binary) {
    y_shapes.push_back({kOpCols});
    y_shapes.push_back({1, kOpCols});
    y_shapes.push_back({kOpRows, 1});
    y_shapes.push_back({1});
  }
  std::mt19937_64 rng(0x0e1700u);
  for (const Shape& ys : y_shapes) {
    std::string shape_name = "y shape [";
    for (index_t d : ys) {
      shape_name += ' ';
      shape_name += std::to_string(d);
    }
    SCOPED_TRACE(shape_name + " ]");
    const Tensor x0 = random_tensor(rng, full, 0.1f, 0.9f);
    const Tensor y0 = random_tensor(rng, ys, 0.1f, 0.9f);
    const Tensor g0 = random_tensor(rng, full, -1.0f, 1.0f);

    Recorder rec;
    rec.bind_input(x0);
    rec.bind_input(y0);
    rec.bind_input(g0);
    perf::reset_kernels();
    std::vector<Tensor> taps;
    {
      RecorderScope scope(rec);
      taps = eltwise_step(c, x0, y0, g0);
    }
    const std::uint64_t eager_kernels = perf::counters().kernel_launches;
    for (const Tensor& t : taps) rec.tap(t);
    const auto program = rec.finish();
    EXPECT_TRUE(replay::plan_valid(program->plan()));
    EXPECT_EQ(program->counted_kernels(), eager_kernels);

    for (int rep = 0; rep < 3; ++rep) {
      const Tensor x = random_tensor(rng, full, 0.1f, 0.9f);
      const Tensor y = random_tensor(rng, ys, 0.1f, 0.9f);
      const Tensor g = random_tensor(rng, full, -1.0f, 1.0f);
      ASSERT_TRUE(program->bind({x, y, g}, {}));
      perf::reset_kernels();
      program->run();
      EXPECT_EQ(perf::counters().kernel_launches, eager_kernels);
      const std::vector<Tensor> eager = eltwise_step(c, x, y, g);
      ASSERT_EQ(program->tap_count(), eager.size());
      for (std::size_t i = 0; i < eager.size(); ++i) {
        expect_bytes_equal(program->tap_value(i), eager[i],
                           i == 0 ? "forward" : "gradient");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryOp, ReplayEltwiseOp, ::testing::ValuesIn(kEltwiseCases),
    [](const ::testing::TestParamInfo<EltwiseCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Trainer integration: bit-exactness over >= 10 consecutive steps
// ---------------------------------------------------------------------------

struct TrainRun {
  std::vector<float> params;
  std::vector<train::EpochStats> history;
  ProgramCache::Stats replay_stats;
  std::vector<std::shared_ptr<Program>> programs;
  std::string checkpoint;
};

TrainRun train_with_replay(bool replay_on, const std::string& ckpt_path) {
  replay::set_replay_enabled(replay_on);
  data::Dataset ds = identical_rows(12, 51);
  model::CHGNet net(tiny_config(), 9);
  train::TrainConfig tc;
  tc.batch_size = 4;
  tc.epochs = 4;  // 3 steps/epoch x 4 epochs = 12 consecutive steps
  train::Trainer trainer(net, tc);
  TrainRun run;
  run.history = trainer.fit(ds, all_rows(ds));
  run.params = flatten_parameters(net);
  run.replay_stats = trainer.replay_cache().stats();
  run.programs = trainer.replay_cache().programs();
  trainer.save_checkpoint(ckpt_path);
  run.checkpoint = ckpt_path;
  return run;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

TEST_F(ReplayTest, TrainStepBitExactReplayOnVsOff) {
  const TrainRun on =
      train_with_replay(true, ::testing::TempDir() + "replay_on.ckpt");
  const TrainRun off =
      train_with_replay(false, ::testing::TempDir() + "replay_off.ckpt");

  // Replay must actually have engaged: the same topology recurs 12 times,
  // so after 1 eager + 1 capture sighting the rest replays.
  EXPECT_GE(on.replay_stats.hits, 9u);
  EXPECT_EQ(on.replay_stats.captures, 1u);
  EXPECT_EQ(off.replay_stats.lookups, 0u) << "disabled replay must be inert";

  EXPECT_EQ(max_abs_diff(on.params, off.params), 0.0f);
  ASSERT_EQ(on.history.size(), off.history.size());
  for (std::size_t e = 0; e < on.history.size(); ++e) {
    EXPECT_EQ(on.history[e].mean_loss, off.history[e].mean_loss) << e;
    EXPECT_EQ(on.history[e].energy_loss, off.history[e].energy_loss) << e;
    EXPECT_EQ(on.history[e].force_loss, off.history[e].force_loss) << e;
    EXPECT_EQ(on.history[e].stress_loss, off.history[e].stress_loss) << e;
    EXPECT_EQ(on.history[e].magmom_loss, off.history[e].magmom_loss) << e;
  }
  // Checkpoint bytes cover weights + Adam moments + RNG stream: byte
  // identity means the optimizer state matched too.
  EXPECT_EQ(read_file(on.checkpoint), read_file(off.checkpoint));
}

TEST_F(ReplayTest, TrainShapeChurnStaysBitExactWithoutFallbacks) {
  // A mix of two topologies shuffled into every batch: nearly every step
  // carries a different batch composition, so the cache sees heavy key
  // churn.  The invariant under churn is safety, not speed: a shape change
  // must land as a key miss (never a wrong-program bind/fallback) and the
  // trained weights must stay bit-identical to the replay-off run.
  const auto churn_run = [](bool replay_on) {
    replay::set_replay_enabled(replay_on);
    data::Dataset a = identical_rows(8, 61);
    data::GeneratorConfig g;
    g.min_atoms = 7;
    g.max_atoms = 9;
    data::Dataset big = data::Dataset::generate(1, 62, g);
    std::vector<data::Crystal> crystals;
    for (index_t i = 0; i < 8; ++i) crystals.push_back(a[i].crystal);
    for (int i = 0; i < 8; ++i) crystals.push_back(big[0].crystal);
    data::Dataset ds = data::Dataset::from_crystals(std::move(crystals));

    model::CHGNet net(tiny_config(), 10);
    train::TrainConfig tc;
    tc.batch_size = 4;
    tc.epochs = 3;
    tc.shuffle_seed = 5;
    train::Trainer trainer(net, tc);
    const auto history = trainer.fit(ds, all_rows(ds));
    for (const auto& st : history) {
      EXPECT_TRUE(std::isfinite(st.mean_loss));
      EXPECT_EQ(st.skipped_steps, 0);
    }
    if (replay_on) {
      const ProgramCache::Stats s = trainer.replay_cache().stats();
      EXPECT_GT(s.lookups, 0u);
      EXPECT_EQ(s.fallbacks, 0u)
          << "shape churn must miss, not fail a bind";
    }
    return flatten_parameters(net);
  };
  const std::vector<float> on = churn_run(true);
  const std::vector<float> off = churn_run(false);
  EXPECT_EQ(max_abs_diff(on, off), 0.0f);
}

// ---------------------------------------------------------------------------
// Data-parallel integration
// ---------------------------------------------------------------------------

std::vector<float> dp_train(bool replay_on, ProgramCache::Stats* stats0,
                            float* divergence) {
  replay::set_replay_enabled(replay_on);
  data::Dataset ds = identical_rows(16, 71);
  parallel::DataParallelConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 4;  // 4 iterations/epoch, 2 structures per device
  parallel::DataParallelTrainer dp(tiny_config(), cfg, 17);
  for (index_t e = 0; e < 3; ++e) dp.train_epoch(ds, all_rows(ds), e);
  if (stats0 != nullptr) *stats0 = dp.replay_cache(0).stats();
  if (divergence != nullptr) *divergence = dp.replica_divergence();
  return flatten_parameters(dp.master());
}

TEST_F(ReplayTest, DataParallelBitExactReplayOnVsOff) {
  ProgramCache::Stats on_stats{}, off_stats{};
  float on_div = -1.0f, off_div = -1.0f;
  const std::vector<float> on = dp_train(true, &on_stats, &on_div);
  const std::vector<float> off = dp_train(false, &off_stats, &off_div);

  EXPECT_GE(on_stats.hits, 8u)
      << "12 device steps: 1 cold (grads not yet warm), 1 eager sighting, "
         "1 capture, then replays on device 0";
  EXPECT_EQ(off_stats.lookups, 0u);
  EXPECT_EQ(max_abs_diff(on, off), 0.0f);
  // The DDP bit-identity invariant must survive replayed device steps.
  EXPECT_EQ(on_div, 0.0f);
  EXPECT_EQ(off_div, 0.0f);
}

// ---------------------------------------------------------------------------
// Serve integration
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, ServeFusedForwardBitExactAcrossReplaysAndVsPredict) {
  replay::set_replay_enabled(true);
  data::Dataset ds = identical_rows(4, 81);
  model::CHGNet net(tiny_config(), 12);
  serve::EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_capacity = 0;  // the result cache would short-circuit replay
  serve::InferenceEngine engine(net, cfg);

  // Reference reply from the synchronous eager path.
  const auto ref = engine.predict(ds[0].crystal);
  ASSERT_TRUE(ref.ok());

  std::vector<std::vector<serve::Result<serve::Prediction>>> ticks;
  for (int tick = 0; tick < 12; ++tick) {
    for (index_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
    }
    ticks.push_back(engine.drain());
  }
  const ProgramCache::Stats s = engine.replay_cache().stats();
  EXPECT_GE(s.hits, 10u);
  EXPECT_EQ(s.fallbacks, 0u);

  for (const auto& replies : ticks) {
    ASSERT_EQ(replies.size(), 4u);
    for (const auto& r : replies) {
      ASSERT_TRUE(r.ok());
      const serve::Prediction& p = r.value();
      const serve::Prediction& q = ref.value();
      EXPECT_EQ(p.energy, q.energy);
      ASSERT_EQ(p.forces.size(), q.forces.size());
      for (std::size_t i = 0; i < p.forces.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(p.forces[i][d], q.forces[i][d]);
        }
      }
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) EXPECT_EQ(p.stress[i][j], q.stress[i][j]);
      }
      ASSERT_EQ(p.magmom.size(), q.magmom.size());
      for (std::size_t i = 0; i < p.magmom.size(); ++i) {
        EXPECT_EQ(p.magmom[i], q.magmom[i]);
      }
    }
  }
}

TEST_F(ReplayTest, ServeReplayOffMatchesOnExactly) {
  data::Dataset ds = identical_rows(3, 83);
  model::CHGNet net(tiny_config(), 13);
  const auto run_engine = [&](bool replay_on) {
    replay::set_replay_enabled(replay_on);
    serve::EngineConfig cfg;
    cfg.max_batch = 4;
    cfg.cache_capacity = 0;
    serve::InferenceEngine engine(net, cfg);
    std::vector<double> energies;
    for (int tick = 0; tick < 6; ++tick) {
      for (index_t i = 0; i < ds.size(); ++i) {
        EXPECT_TRUE(engine.submit(ds[i].crystal).ok());
      }
      for (const auto& r : engine.drain()) {
        EXPECT_TRUE(r.ok());
        energies.push_back(r.value().energy);
      }
    }
    return energies;
  };
  const std::vector<double> on = run_engine(true);
  const std::vector<double> off = run_engine(false);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) EXPECT_EQ(on[i], off[i]) << i;
}

// ---------------------------------------------------------------------------
// Golden tapes: exact counted kernels of the trainer, DP-device and serve
// programs at the fixed topologies above (identical_rows + tiny_config).
// They change only when the model's op schedule changes -- update them
// deliberately, with the perf numbers in hand.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kGoldenTrainerKernels = 3623;
constexpr std::uint64_t kGoldenDpDeviceKernels = 2521;
constexpr std::uint64_t kGoldenServeKernels = 1233;

TEST_F(ReplayTest, GoldenTrainerTapeCounts) {
  const TrainRun run =
      train_with_replay(true, ::testing::TempDir() + "replay_golden.ckpt");
  ASSERT_EQ(run.programs.size(), 1u);
  EXPECT_EQ(run.programs[0]->counted_kernels(), kGoldenTrainerKernels);
}

TEST_F(ReplayTest, GoldenDataParallelTapeCounts) {
  replay::set_replay_enabled(true);
  data::Dataset ds = identical_rows(16, 71);
  parallel::DataParallelConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 4;
  parallel::DataParallelTrainer dp(tiny_config(), cfg, 17);
  for (index_t e = 0; e < 3; ++e) dp.train_epoch(ds, all_rows(ds), e);
  const auto programs = dp.replay_cache(0).programs();
  ASSERT_EQ(programs.size(), 1u);
  EXPECT_EQ(programs[0]->counted_kernels(), kGoldenDpDeviceKernels);
}

TEST_F(ReplayTest, GoldenServeTapeCounts) {
  replay::set_replay_enabled(true);
  data::Dataset ds = identical_rows(4, 81);
  model::CHGNet net(tiny_config(), 12);
  serve::EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_capacity = 0;
  serve::InferenceEngine engine(net, cfg);
  for (int tick = 0; tick < 4; ++tick) {
    for (index_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
    }
    (void)engine.drain();
  }
  const auto programs = engine.replay_cache().programs();
  ASSERT_EQ(programs.size(), 1u);
  EXPECT_EQ(programs[0]->counted_kernels(), kGoldenServeKernels);
}

// ---------------------------------------------------------------------------
// Fuzz: shape churn and poisoned batches through the engine with replay on
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, FuzzShapeChurnNoCrashNoSilentNaN) {
  replay::set_replay_enabled(true);
  data::GeneratorConfig g;
  g.min_atoms = 3;
  g.max_atoms = 10;
  data::Dataset pool = data::Dataset::generate(6, 91, g);
  model::CHGNet net(tiny_config(), 14);
  serve::EngineConfig cfg;
  cfg.max_batch = 3;
  cfg.cache_capacity = 0;
  serve::InferenceEngine engine(net, cfg);

  std::mt19937_64 rng(92u);
  std::uint64_t submitted = 0;
  for (int tick = 0; tick < 25; ++tick) {
    const std::size_t n = 1 + rng() % 6;
    for (std::size_t i = 0; i < n; ++i) {
      const auto pick = static_cast<index_t>(rng() % 6);
      ASSERT_TRUE(engine.submit(pool[pick].crystal).ok());
      ++submitted;
    }
    for (const auto& r : engine.drain()) {
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(std::isfinite(r.value().energy));
      for (const auto& f : r.value().forces) {
        for (int d = 0; d < 3; ++d) EXPECT_TRUE(std::isfinite(f[d]));
      }
    }
  }
  EXPECT_EQ(engine.stats().served, submitted);
  EXPECT_EQ(engine.stats().numeric_faults, 0u);
  // Every fused forward consulted the program cache exactly once (no
  // bisections on the clean path).
  EXPECT_EQ(engine.stats().bisections, 0u);
  EXPECT_EQ(engine.replay_cache().stats().lookups,
            engine.stats().micro_batches);
}

TEST_F(ReplayTest, FuzzPoisonedBatchesIsolateTypedFaults) {
  replay::set_replay_enabled(true);
  data::Dataset ds = identical_rows(4, 93);
  model::CHGNet net(tiny_config(), 15);
  serve::EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_capacity = 0;
  // Poison request slot 1 of every tick with a NaN position: the fused
  // batch trips the watchdog and bisection must isolate exactly slot 1.
  cfg.corrupt_batch = [](data::Batch& b,
                         const std::vector<std::size_t>& ids) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      if (ids[s] != 1) continue;
      const auto a0 =
          static_cast<index_t>(b.atom_first[static_cast<std::size_t>(s)]);
      b.cart.data()[a0 * 3] = std::numeric_limits<float>::quiet_NaN();
    }
  };
  serve::InferenceEngine engine(net, cfg);

  for (int tick = 0; tick < 8; ++tick) {
    for (index_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
    }
    const auto replies = engine.drain();
    ASSERT_EQ(replies.size(), 4u);
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (i == 1) {
        ASSERT_FALSE(replies[i].ok());
        EXPECT_EQ(replies[i].code(), serve::ErrorCode::kNumericFault);
      } else {
        ASSERT_TRUE(replies[i].ok()) << "tick " << tick << " slot " << i;
        EXPECT_TRUE(std::isfinite(replies[i].value().energy));
      }
    }
  }
  // Reconciliation: each micro-batch acquires once and each bisection adds
  // its two half-spans.
  EXPECT_EQ(engine.replay_cache().stats().lookups,
            engine.stats().micro_batches + 2 * engine.stats().bisections);
  EXPECT_GT(engine.stats().bisections, 0u);
  EXPECT_EQ(engine.stats().isolated_faults, 8u);
}

// ---------------------------------------------------------------------------
// Counters vs reset race
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, ReplayCountersSurviveConcurrentReset) {
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.emplace_back([] {
    for (int i = 0; i < kIters; ++i) {
      perf::track_replay_hit();
      perf::track_replay_miss();
    }
  });
  threads.emplace_back([] {
    for (int i = 0; i < kIters; ++i) {
      perf::track_replay_fallback();
      perf::track_replay_capture();
    }
  });
  threads.emplace_back([] {
    for (int i = 0; i < kIters; ++i) {
      perf::track_replay_plan_bytes(64);
      perf::track_replay_plan_bytes(-64);
    }
  });
  threads.emplace_back([] {
    for (int i = 0; i < kIters / 100; ++i) perf::counters().reset();
  });
  for (auto& t : threads) t.join();

  // The gauge clamps at zero when a reset lands between a +delta and its
  // -delta, so it can only retain balanced leftovers -- never wrap.
  const perf::Counters before = perf::counters().snapshot();
  EXPECT_LE(before.replay_plan_bytes,
            static_cast<std::uint64_t>(kIters) * 64);
  perf::counters().reset();
  const perf::Counters after = perf::counters().snapshot();
  EXPECT_EQ(after.replay_hits, 0u);
  EXPECT_EQ(after.replay_misses, 0u);
  EXPECT_EQ(after.replay_fallbacks, 0u);
  EXPECT_EQ(after.replay_captures, 0u);
}

}  // namespace
}  // namespace fastchg
