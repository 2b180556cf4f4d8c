// The four workloads.  Each one builds its inputs from the seed, sets up and
// warms up, runs a closed loop of whole rounds for the requested seconds,
// then checks the program's outputs.  Untraced runs report the end-to-end
// metrics; traced runs repeat the same loop with the program's spans on and
// report the per-layer metrics (layers a workload does not run read 0).
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>

#include "checks.hpp"
#include "core/rng.hpp"
#include "data/batch.hpp"
#include "data/generator.hpp"
#include "md/md.hpp"
#include "md/relax.hpp"
#include "parallel/data_parallel.hpp"
#include "perf/counters.hpp"
#include "serve/engine.hpp"
#include "serve/fuzz.hpp"
#include "train/trainer.hpp"

namespace perfbench {

namespace fd = fastchg::data;
namespace fm = fastchg::model;
namespace ft = fastchg::train;
namespace fs = fastchg::serve;
using fastchg::index_t;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint64_t kModelSeed = 7;  ///< weights are fixed; inputs vary

// Training workloads: a long-tail dataset (2-64 atoms per cell, 24 species).
constexpr index_t kTrainRows = 160;
constexpr index_t kHeldoutRows = 64;
constexpr index_t kTrainBatch = 16;
constexpr index_t kMaeEpochs = 8;  ///< held-out MAE after this many epochs

// Serving: waves of kMaxBatch requests, the last one the fixed bad crystal.
constexpr index_t kMaxBatch = 8;
constexpr std::size_t kCacheCapacity = 64;
constexpr std::size_t kPoolSize = 1024;   ///< distinct structures per seed
constexpr std::size_t kWorkingSet = 128;  ///< repeats come from these
constexpr std::uint64_t kRepeatEvery = 4; ///< 1 in 4 stream requests repeats
constexpr double kMinDistLimit = 0.5;     ///< engine's validation limit (A)

// MD: 32-atom LiTiPO5 under a Langevin thermostat at 300 K.
constexpr double kTargetK = 300.0;
constexpr double kTempBand = 0.2;
constexpr index_t kMdSnapshotEvery = 100;
constexpr std::uint64_t kMdVelocitySeed = 1;

fd::GeneratorConfig training_generator() {
  fd::GeneratorConfig g;  // long-tail atom counts, 2..64
  g.num_species = 24;
  return g;
}

fd::GeneratorConfig serving_generator() {
  fd::GeneratorConfig g;
  g.min_atoms = 2;
  g.max_atoms = 12;
  return g;
}

/// `n` crystals from the seeded generator whose atom counts are fixed: row
/// i holds the (i + 1/2)/n quantile of the generator's log-normal size law.
/// The seed picks geometry and species; every seed carries the same sizes in
/// the same rows, so shuffles with the trainer's fixed seed batch the same
/// sizes together whatever the input seed.
std::vector<fd::Crystal> sized_crystals(index_t n, const fd::GeneratorConfig& g,
                                        fastchg::Rng& rng) {
  auto normal_quantile = [](double q) {
    double lo = -10.0, hi = 10.0;
    for (int it = 0; it < 80; ++it) {
      const double mid = 0.5 * (lo + hi);
      (0.5 * std::erfc(-mid / std::sqrt(2.0)) < q ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  };
  std::multimap<index_t, std::size_t> open_rows;  // atom count -> row
  for (index_t i = 0; i < n; ++i) {
    const double z = normal_quantile((static_cast<double>(i) + 0.5) / static_cast<double>(n));
    const auto atoms = static_cast<index_t>(std::lround(std::exp(g.lognormal_mu + g.lognormal_sigma * z)));
    open_rows.emplace(std::clamp(atoms, g.min_atoms, g.max_atoms), static_cast<std::size_t>(i));
  }
  std::vector<fd::Crystal> out(static_cast<std::size_t>(n));
  while (!open_rows.empty()) {
    fd::Crystal c = fd::random_crystal(rng, g);
    const auto it = open_rows.find(c.natoms());
    if (it == open_rows.end()) continue;
    out[it->second] = std::move(c);
    open_rows.erase(it);
  }
  return out;
}

/// The training workloads' dataset: kTrainRows training rows then
/// kHeldoutRows held-out rows, oracle-labelled, graphs built.
fd::Dataset long_tail_dataset(std::uint64_t seed) {
  fastchg::Rng rng(seed);
  std::vector<fd::Crystal> cs = sized_crystals(kTrainRows, training_generator(), rng);
  for (fd::Crystal& c : sized_crystals(kHeldoutRows, training_generator(), rng)) {
    cs.push_back(std::move(c));
  }
  return fd::Dataset::from_crystals(std::move(cs), graph_config());
}

std::vector<index_t> iota_rows(index_t lo, index_t hi) {
  std::vector<index_t> r;
  for (index_t i = lo; i < hi; ++i) r.push_back(i);
  return r;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Everything a traced run reads from outside the program: the span tally,
/// counter deltas over the timed phase and the logical bytes each round
/// adds.  Inert when the run is untraced.
class LayerProbe {
 public:
  explicit LayerProbe(bool on) : on_(on) {}

  void begin_phase() {
    if (!on_) return;
    enable_trace();
    c0_ = fastchg::perf::counters().snapshot();
  }
  void begin_round() {
    if (!on_) return;
    live0_ = fastchg::perf::counters().snapshot().bytes_live;
    fastchg::perf::reset_peak();
  }
  void end_round() {
    if (!on_) return;
    tally_.drain_trace();
    const auto c = fastchg::perf::counters().snapshot();
    round_mb_.push_back(static_cast<double>(c.bytes_peak - std::min(c.bytes_peak, live0_)) / kMiB);
  }
  /// Fill the model-layer, ops/core and span-derived fields of `r` for a
  /// phase of `steps` steps.
  void finish(LayerReport& r, double steps) {
    if (!on_) return;
    fastchg::perf::trace_disable();
    const auto c = fastchg::perf::counters().snapshot();
    const auto fwd = tally_.get("model.forward");
    const double n = std::max<double>(1.0, static_cast<double>(fwd.count));
    r.forward_ms = fwd.total_ms / n;
    r.basis_ms = tally_.get("model.basis").excl_model_ms / n;
    r.embed_ms = tally_.get("model.embed").excl_model_ms / n;
    r.interaction_ms = tally_.get("model.interaction").excl_model_ms / n;
    r.readout_ms = (tally_.get("model.readout").excl_model_ms +
                    tally_.get("model.derivative_readout").excl_model_ms) / n;
    r.kernels_per_step =
        static_cast<double>(c.kernel_launches - c0_.kernel_launches) / steps;
    r.system_allocs_per_step =
        static_cast<double>(c.system_allocs - c0_.system_allocs) / steps;
    r.pool_high_water_mb = static_cast<double>(c.pool_high_water) / kMiB;
    r.logical_mb_per_step = mean(round_mb_);
    if (tally_.dropped() > 0) {
      std::fprintf(stderr, "perfbench: trace ring dropped %llu spans\n",
                   static_cast<unsigned long long>(tally_.dropped()));
    }
  }
  const SpanTally& tally() const { return tally_; }

 private:
  bool on_;
  SpanTally tally_;
  fastchg::perf::Counters c0_;
  std::uint64_t live0_ = 0;
  std::vector<double> round_mb_;
};

/// Per-op mean of a span over `per` occurrences of the unit it is
/// normalised to.
double span_ms(const SpanTally& t, const char* name, double per) {
  return t.get(name).total_ms / std::max(1.0, per);
}

/// Benchmark-timed data::build_graph over `crystals` (ms per structure).
double time_graph_builds(const std::vector<const fd::Crystal*>& crystals) {
  const auto t = Clock::now();
  for (const fd::Crystal* c : crystals) fd::build_graph(*c, graph_config());
  return 1e3 * seconds_since(t) / static_cast<double>(crystals.size());
}

/// Benchmark-timed data::collate_indices over one epoch's batches (ms per
/// batch).
double time_collates(const fd::Dataset& ds, const std::vector<index_t>& rows) {
  double ms = 0.0;
  double batches = 0.0;
  for (std::size_t lo = 0; lo < rows.size(); lo += kTrainBatch) {
    const std::vector<index_t> idx(
        rows.begin() + static_cast<std::ptrdiff_t>(lo),
        rows.begin() + static_cast<std::ptrdiff_t>(
                           std::min(rows.size(), lo + kTrainBatch)));
    const auto t = Clock::now();
    fd::collate_indices(ds, idx);
    ms += 1e3 * seconds_since(t);
    batches += 1.0;
  }
  return ms / batches;
}

std::vector<const fd::Crystal*> crystals_of(const fd::Dataset& ds) {
  std::vector<const fd::Crystal*> v;
  for (index_t i = 0; i < ds.size(); ++i) v.push_back(&ds[i].crystal);
  return v;
}

void add_end_to_end(Outcome& out, double setup_s, double throughput,
                    const std::vector<double>& latencies_ms) {
  out.add("setup_s", setup_s, "s");
  out.add("throughput_per_s", throughput, "1/s");
  out.add("latency_p50_ms", quantile(latencies_ms, 0.5), "ms");
  out.add("latency_p90_ms", quantile(latencies_ms, 0.9), "ms");
}

}  // namespace

// ---------------------------------------------------------------------------
// train_shuffled

Outcome run_train_shuffled(const Options& o) {
  Outcome out;
  const fd::Dataset ds = long_tail_dataset(o.seed);
  const std::vector<index_t> train = iota_rows(0, kTrainRows);
  const std::vector<index_t> heldout =
      iota_rows(kTrainRows, kTrainRows + kHeldoutRows);

  fm::CHGNet net(model_config(), kModelSeed);
  ft::TrainConfig tc;
  tc.batch_size = kTrainBatch;
  tc.epochs = 1000;  // the cosine schedule stays near base_lr for the run
  tc.base_lr = 1e-3f;
  ft::Trainer trainer(net, tc);
  const ft::EpochStats first = trainer.train_epoch(ds, train, 0);  // warm-up
  const double setup_s = seconds_since(kProcessStart);

  LayerProbe probe(o.trace);
  probe.begin_phase();
  std::vector<double> epoch_s;
  double last_loss = first.mean_loss;
  double mae = -1.0;
  index_t steps = 0, skipped = first.skipped_steps;
  for (index_t e = 1;; ++e) {
    probe.begin_round();
    const auto t = Clock::now();
    const ft::EpochStats st = trainer.train_epoch(ds, train, e);
    epoch_s.push_back(seconds_since(t));
    probe.end_round();
    steps += st.iterations;
    skipped += st.skipped_steps;
    last_loss = st.mean_loss;
    if (e + 1 == kMaeEpochs) {
      mae = checks::model_energy_mae_mev(net, ds, heldout);
    }
    if (e + 1 >= kMaeEpochs && sum(epoch_s) >= o.seconds) break;
  }
  const double timed_s = sum(epoch_s);
  const double structures =
      static_cast<double>(epoch_s.size()) * static_cast<double>(train.size());
  out.attempted = static_cast<std::uint64_t>(structures);

  if (o.trace) {
    LayerReport r;
    probe.finish(r, static_cast<double>(steps));
    const SpanTally& t = probe.tally();
    const double nsteps = static_cast<double>(steps);
    r.backward_ms = span_ms(t, "train.backward", nsteps);
    r.loss_ms = t.get("train.forward").excl_model_ms / nsteps;
    r.optimizer_ms = span_ms(t, "train.optimizer", nsteps);
    r.prefetch_wait_ms = span_ms(t, "train.data_prefetch", nsteps);
    const auto rs = trainer.replay_cache().stats();
    r.replay_lookups = static_cast<double>(rs.lookups) /
                       static_cast<double>(steps + first.iterations);
    r.replay_hit_ratio = rs.lookups ? static_cast<double>(rs.hits) /
                                          static_cast<double>(rs.lookups)
                                    : 0.0;
    r.heldout_mae_mev = mae;
    r.graph_build_ms = time_graph_builds(crystals_of(ds));
    r.collate_ms = time_collates(ds, train);
    r.traced_throughput = structures / timed_s;
    emit_layer_report(out, r);
  } else {
    std::vector<double> epoch_ms;
    for (double s : epoch_s) epoch_ms.push_back(1e3 * s);
    add_end_to_end(out, setup_s, structures / timed_s, epoch_ms);
  }

  // Checks: model beats the composition-only fit, the loss falls, backward
  // agrees with finite differences, no step was skipped.
  const double baseline =
      checks::composition_baseline_mae_mev(ds, train, heldout);
  if (auto p = checks::mae_beats_baseline(mae, baseline)) out.expect(false, *p);
  if (auto p = checks::loss_falls(first.mean_loss, last_loss)) out.expect(false, *p);
  out.expect(skipped == 0, "the non-finite guard skipped training steps");
  const fd::Batch b = fd::collate_indices(ds, iota_rows(0, 8));
  const auto grads = checks::finite_difference_gradients(net, b, {}, 0.1f, 6);
  if (auto p = checks::gradients_agree(grads)) out.expect(false, *p);
  std::fprintf(stderr,
               "train_shuffled: %zu timed epochs, held-out MAE %.1f vs "
               "composition fit %.1f meV/atom, loss %.4f -> %.4f\n",
               epoch_s.size(), mae, baseline, first.mean_loss, last_loss);
  return out;
}

// ---------------------------------------------------------------------------
// dp_epoch

Outcome run_dp_epoch(const Options& o) {
  Outcome out;
  const fd::Dataset ds = long_tail_dataset(o.seed);
  const std::vector<index_t> train = iota_rows(0, kTrainRows);
  const std::vector<index_t> heldout =
      iota_rows(kTrainRows, kTrainRows + kHeldoutRows);

  fastchg::parallel::DataParallelConfig pc;
  pc.num_devices = 4;
  pc.global_batch = kTrainBatch;  // a quarter of it per device
  pc.load_balance = true;
  pc.base_lr = 1e-3f;
  pc.scale_lr = false;
  fastchg::parallel::DataParallelTrainer dp(model_config(), pc, kModelSeed);
  const auto first = dp.train_epoch(ds, train, 0);  // warm-up
  const double setup_s = seconds_since(kProcessStart);
  if (auto p = checks::replicas_identical(dp)) out.expect(false, "epoch 0: " + *p);

  LayerProbe probe(o.trace);
  probe.begin_phase();
  std::vector<double> epoch_s;
  double last_loss = first.mean_loss, mae = -1.0;
  index_t steps = 0, skipped = first.skipped_steps;
  std::vector<double> dev_ms, imbalance, comm_ms, sim_ms;
  for (index_t e = 1;; ++e) {
    probe.begin_round();
    const auto t = Clock::now();
    const auto res = dp.train_epoch(ds, train, e);
    epoch_s.push_back(seconds_since(t));
    probe.end_round();
    // The benchmark's own DDP check: after every epoch all replicas hold
    // bit-identical parameters.
    if (auto p = checks::replicas_identical(dp)) {
      out.expect(false, "epoch " + std::to_string(e) + ": " + *p);
    }
    steps += static_cast<index_t>(res.iterations.size());
    skipped += res.skipped_steps;
    last_loss = res.mean_loss;
    for (const auto& it : res.iterations) {
      double m = 0.0;
      for (double s : it.device_compute_s) {
        dev_ms.push_back(1e3 * s);
        m += s;
      }
      m /= static_cast<double>(std::max<std::size_t>(1, it.device_compute_s.size()));
      imbalance.push_back(m > 0.0 ? it.max_compute_s / m : 1.0);
      comm_ms.push_back(1e3 * it.comm_s);
      sim_ms.push_back(1e3 * it.step_s);
    }
    if (o.trace && e + 1 == kMaeEpochs) {
      mae = checks::model_energy_mae_mev(dp.replica(0), ds, heldout);
    }
    if (e + 1 >= kMaeEpochs && sum(epoch_s) >= o.seconds) break;
  }
  const double timed_s = sum(epoch_s);
  const double structures =
      static_cast<double>(epoch_s.size()) * static_cast<double>(train.size());
  out.attempted = static_cast<std::uint64_t>(structures);

  if (o.trace) {
    LayerReport r;
    probe.finish(r, static_cast<double>(steps));
    const SpanTally& t = probe.tally();
    const double nsteps = static_cast<double>(steps);
    const double dev_steps = static_cast<double>(dev_ms.size());
    // Device compute is forward + loss + backward; without a backward span
    // inside it, backward is read as its time outside model.forward.
    r.backward_ms = t.get("dp.device_compute").excl_model_ms / dev_steps;
    r.optimizer_ms = span_ms(t, "dp.optimizer", nsteps);
    r.device_compute_ms = mean(dev_ms);
    r.imbalance = mean(imbalance);
    r.sync_ms = (t.get("dp.allreduce").total_ms + t.get("dp.optimizer").total_ms) / nsteps;
    r.modelled_comm_ms = mean(comm_ms);
    r.simulated_step_ms = mean(sim_ms);
    std::uint64_t lookups = 0, hits = 0;
    for (int d = 0; d < dp.num_devices(); ++d) {
      lookups += dp.replay_cache(d).stats().lookups;
      hits += dp.replay_cache(d).stats().hits;
    }
    r.replay_lookups = static_cast<double>(lookups) /
                       static_cast<double>(steps + static_cast<index_t>(first.iterations.size()));
    r.replay_hit_ratio = lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    r.heldout_mae_mev = mae;
    r.graph_build_ms = time_graph_builds(crystals_of(ds));
    r.collate_ms = time_collates(ds, train);
    r.traced_throughput = structures / timed_s;
    emit_layer_report(out, r);
  } else {
    std::vector<double> epoch_ms;
    for (double s : epoch_s) epoch_ms.push_back(1e3 * s);
    add_end_to_end(out, setup_s, structures / timed_s, epoch_ms);
  }

  if (auto p = checks::loss_falls(first.mean_loss, last_loss)) out.expect(false, *p);
  out.expect(skipped == 0, "the non-finite guard skipped training steps");
  std::fprintf(stderr, "dp_epoch: %zu timed epochs, loss %.4f -> %.4f\n",
               epoch_s.size(), first.mean_loss, last_loss);
  return out;
}

// ---------------------------------------------------------------------------
// serve_stream

namespace {

/// The crystal the generator fault produces for every seed: the 757th draw
/// of serve::fuzz_crystal(Rng(5), c, 0.0, gen) with 2-12 atoms has two
/// atoms 0.41 A apart (build_cell keeps its last crowded placement).
fd::Crystal generator_fault_crystal() {
  fastchg::Rng rng(5);
  fd::Crystal c;
  for (int i = 0; i <= 756; ++i) fs::fuzz_crystal(rng, c, 0.0, serving_generator());
  return c;
}

/// Deterministic request stream over a pool of distinct structures: every
/// kRepeatEvery-th request repeats one of the last kWorkingSet fresh ones.
class RequestStream {
 public:
  RequestStream(std::size_t pool, std::uint64_t seed)
      : pool_(pool), rng_(seed ^ 0x5e12e) {}
  std::size_t next() {
    if (k_++ % kRepeatEvery == kRepeatEvery - 1) {
      return recent_[static_cast<std::size_t>(
          rng_.randint(0, static_cast<index_t>(recent_.size()) - 1))];
    }
    const std::size_t idx = fresh_++ % pool_;
    recent_.push_back(idx);
    if (recent_.size() > kWorkingSet) recent_.pop_front();
    return idx;
  }

 private:
  std::size_t pool_;
  fastchg::Rng rng_;
  std::uint64_t k_ = 0;
  std::size_t fresh_ = 0;
  std::deque<std::size_t> recent_;
};

fs::EngineConfig engine_config() {
  fs::EngineConfig cfg;
  cfg.graph = graph_config();
  cfg.max_batch = kMaxBatch;
  cfg.batch_workers = 1;
  cfg.cache_capacity = kCacheCapacity;
  return cfg;
}

fs::EngineConfig reference_engine_config() {
  fs::EngineConfig cfg;
  cfg.graph = graph_config();
  cfg.max_batch = 1;
  cfg.cache_capacity = 0;
  cfg.replay = false;
  return cfg;
}

fd::Crystal rotated_translated(const fd::Crystal& c) {
  // Rotation by 0.7 rad about the (1, 2, 2)/3 axis (Rodrigues), applied to
  // the lattice rows; fractional coordinates shifted by a fixed vector.
  const double ax[3] = {1.0 / 3, 2.0 / 3, 2.0 / 3};
  const double th = 0.7, cs = std::cos(th), sn = std::sin(th);
  double rot[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      rot[i][j] = (i == j ? cs : 0.0) + (1 - cs) * ax[i] * ax[j];
    }
  }
  rot[0][1] -= sn * ax[2]; rot[0][2] += sn * ax[1];
  rot[1][0] += sn * ax[2]; rot[1][2] -= sn * ax[0];
  rot[2][0] -= sn * ax[1]; rot[2][1] += sn * ax[0];
  fd::Crystal r = c;
  for (int v = 0; v < 3; ++v) {
    for (int i = 0; i < 3; ++i) {
      r.lattice[v][i] = 0.0;
      for (int j = 0; j < 3; ++j) r.lattice[v][i] += rot[i][j] * c.lattice[v][j];
    }
  }
  for (auto& f : r.frac) {
    f = fd::wrap_frac({f[0] + 0.31, f[1] + 0.17, f[2] + 0.53});
  }
  return r;
}

}  // namespace

Outcome run_serve_stream(const Options& o) {
  Outcome out;
  // Inputs: a pool of distinct 2-12 atom crystals from the seed.  Draws
  // closer than the engine's limit depend on the seed and are left out
  // (see the FOUND note on build_cell); the one bad request every wave
  // carries is the same fixed crystal for every seed.
  std::vector<fd::Crystal> pool;
  std::vector<double> pool_dist;
  {
    fastchg::Rng rng(o.seed);
    std::size_t left_out = 0;
    while (pool.size() < kPoolSize) {
      fd::Crystal c = fd::random_crystal(rng, serving_generator());
      const double d = checks::min_image_distance(c);
      if (d < kMinDistLimit) {
        ++left_out;
        continue;
      }
      pool.push_back(std::move(c));
      pool_dist.push_back(d);
    }
    if (left_out > 0) {
      std::fprintf(stderr, "serve_stream: %zu seeded draws closer than %.1f A "
                   "left out of the pool\n", left_out, kMinDistLimit);
    }
  }
  const fd::Crystal bad = generator_fault_crystal();
  const double bad_dist = checks::min_image_distance(bad);
  if (bad_dist >= kMinDistLimit) {
    out.expect(false, "the generator-fault crystal no longer overlaps");
  }

  const fm::CHGNet net(model_config(), kModelSeed);
  fs::InferenceEngine engine(net, engine_config());
  RequestStream stream(pool.size(), o.seed);

  struct Sampled {
    std::size_t pool_idx;
    fs::Prediction reply;
  };
  std::vector<Sampled> samples;
  std::size_t cached_samples = 0;
  std::vector<checks::ReplyRecord> records;
  std::vector<double> latency_ms;
  std::vector<double> wave_s, drain_ms;
  std::uint64_t ok_replies = 0;

  // One wave: kMaxBatch - 1 stream requests then the bad crystal; submit
  // all, drain once.  Returns false if a submit was refused.
  std::vector<std::size_t> idx(static_cast<std::size_t>(kMaxBatch - 1));
  std::vector<Clock::time_point> submitted(static_cast<std::size_t>(kMaxBatch));
  auto wave = [&](bool timed) {
    for (auto& i : idx) i = stream.next();
    const auto t0 = Clock::now();
    bool admitted = true;
    for (std::size_t k = 0; k < static_cast<std::size_t>(kMaxBatch); ++k) {
      submitted[k] = Clock::now();
      const bool is_bad = k + 1 == static_cast<std::size_t>(kMaxBatch);
      admitted = engine.submit(is_bad ? bad : pool[idx[k]]).ok() && admitted;
    }
    const auto td = Clock::now();
    std::vector<fastchg::serve::Result<fs::Prediction>> replies = engine.drain();
    const auto t1 = Clock::now();
    if (!timed) return admitted;
    wave_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    drain_ms.push_back(1e3 * std::chrono::duration<double>(t1 - td).count());
    out.attempted += static_cast<std::uint64_t>(kMaxBatch);
    for (std::size_t k = 0; k < replies.size(); ++k) {
      const bool is_bad = k + 1 == static_cast<std::size_t>(kMaxBatch);
      const auto& r = replies[k];
      checks::ReplyRecord rec;
      rec.min_dist = is_bad ? bad_dist : pool_dist[idx[k]];
      rec.ok = r.ok();
      rec.invalid_input = !r.ok() && r.code() == fs::ErrorCode::kInvalidInput;
      records.push_back(rec);
      if (!r.ok()) {
        ++out.failed;
        continue;
      }
      ++ok_replies;
      latency_ms.push_back(1e3 * std::chrono::duration<double>(t1 - submitted[k]).count());
      const bool cached = r.value().cached;
      if (is_bad) continue;  // rejections_exact reports a served overlap
      if ((records.size() % 37 == 0 && samples.size() < 48) ||
          (cached && cached_samples < 8)) {
        samples.push_back({idx[k], r.value()});
        cached_samples += cached ? 1 : 0;
      }
    }
    return admitted;
  };

  for (int w = 0; w < 16; ++w) out.expect(wave(false), "warm-up submit refused");
  const double setup_s = seconds_since(kProcessStart);

  LayerProbe probe(o.trace);
  probe.begin_phase();
  const fs::EngineStats e0 = engine.stats();
  const fs::CacheStats c0 = engine.cache().stats();
  const auto r0 = engine.replay_cache().stats();
  while (sum(wave_s) < o.seconds) {
    probe.begin_round();
    out.expect(wave(true), "a submit was refused");
    probe.end_round();
  }
  const double timed_s = sum(wave_s);

  if (o.trace) {
    LayerReport r;
    const double waves = static_cast<double>(wave_s.size());
    probe.finish(r, waves);
    const SpanTally& t = probe.tally();
    const fs::EngineStats e1 = engine.stats();
    const fs::CacheStats c1 = engine.cache().stats();
    const auto r1 = engine.replay_cache().stats();
    r.validate_ms = t.get("serve.validate").total_ms /
                    std::max<double>(1.0, static_cast<double>(t.get("serve.validate").count));
    r.drain_ms = mean(drain_ms);
    const double forwarded = static_cast<double>((e1.served - e0.served) - (e1.cached - e0.cached));
    r.batch_fill = forwarded / std::max<double>(1.0, static_cast<double>(e1.micro_batches - e0.micro_batches));
    r.cache_hit_ratio = static_cast<double>(c1.hits - c0.hits) /
                        std::max<double>(1.0, static_cast<double>(c1.lookups - c0.lookups));
    r.serve_replay_hit_ratio = static_cast<double>(r1.hits - r0.hits) /
                               std::max<double>(1.0, static_cast<double>(r1.lookups - r0.lookups));
    std::vector<const fd::Crystal*> some;
    for (std::size_t i = 0; i < 256; ++i) some.push_back(&pool[i]);
    r.graph_build_ms = time_graph_builds(some);
    r.collate_ms = span_ms(t, "serve.batch.collate",
                           static_cast<double>(t.get("serve.batch.collate").count));
    r.traced_throughput = static_cast<double>(ok_replies) / timed_s;
    emit_layer_report(out, r);
  } else {
    add_end_to_end(out, setup_s, static_cast<double>(ok_replies) / timed_s,
                   latency_ms);
  }

  // Checks.  Exactly the overlapping requests are rejected; sampled replies
  // (cached ones included) match a fresh engine with the cache off; energy
  // per atom is invariant under rotation + translation and a 2x1x1
  // supercell.
  if (auto p = checks::rejections_exact(records, kMinDistLimit)) out.expect(false, *p);
  out.expect(cached_samples > 0, "no cached reply was sampled");
  fs::InferenceEngine ref(net, reference_engine_config());
  for (const Sampled& s : samples) {
    auto want = ref.predict(pool[s.pool_idx]);
    if (!want.ok()) {
      out.expect(false, "reference engine rejected a served request");
      continue;
    }
    if (auto p = checks::predictions_match(s.reply, want.value(),
                                           pool[s.pool_idx].natoms(), 1e-5, 1e-4)) {
      out.expect(false, std::string(s.reply.cached ? "cached" : "fresh") +
                            " reply: " + *p);
    }
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const fd::Crystal& c = pool[i * 7];
    const double n = static_cast<double>(c.natoms());
    auto base = ref.predict(c);
    auto moved = ref.predict(rotated_translated(c));
    auto super = ref.predict(fd::make_supercell(c, 2, 1, 1));
    if (!base.ok() || !moved.ok() || !super.ok()) {
      out.expect(false, "reference engine rejected an invariance input");
      continue;
    }
    if (auto p = checks::energies_match(moved.value().energy / n, base.value().energy / n,
                                        1e-4, "rotation + translation")) {
      out.expect(false, *p);
    }
    if (auto p = checks::energies_match(super.value().energy / (2 * n),
                                        base.value().energy / n, 1e-4, "2x1x1 supercell")) {
      out.expect(false, *p);
    }
  }
  std::fprintf(stderr, "serve_stream: %zu waves, %zu sampled replies (%zu cached)\n",
               wave_s.size(), samples.size(), cached_samples);
  return out;
}

// ---------------------------------------------------------------------------
// md_nvt

Outcome run_md_nvt(const Options& o) {
  Outcome out;
  // Forces as the energy's derivative (FastCHGNet without decoupled heads):
  // untrained direct force heads are not conservative and heat the cell.
  fm::ModelConfig cfg = model_config();
  cfg.decoupled_heads = false;
  const fm::CHGNet net(cfg, kModelSeed);
  fastchg::md::MDConfig mc;
  mc.dt_fs = 0.5;
  mc.init_temperature_k = kTargetK;
  mc.ensemble = fastchg::md::Ensemble::kNVTLangevin;
  mc.friction_fs = 0.1;
  mc.target_temperature_k = kTargetK;
  // The velocity draw is fixed, not taken from --seed: on the model's
  // untrained energy surface the per-step cost follows the trajectory
  // (steps/s spread 0.24 over seeds 21-25), so every run integrates the
  // same trajectory and only the host's noise remains.
  mc.seed = kMdVelocitySeed;
  mc.graph = graph_config();
  mc.verlet_skin = 0.5;
  // Start from a local minimum of the model so the cell vibrates about a
  // fixed structure and every seed samples the same neighbour topology.
  fd::Crystal cell = fd::make_reference_structure("LiTiPO5");
  fastchg::md::RelaxConfig rc;
  rc.graph = graph_config();
  const fastchg::md::RelaxResult relaxed = fastchg::md::relax(net, cell, rc);
  std::fprintf(stderr, "md_nvt: relaxed in %lld steps, fmax %.3g -> %.3g eV/A\n",
               static_cast<long long>(relaxed.steps), relaxed.initial_fmax,
               relaxed.final_fmax);
  auto made = fastchg::md::MDSimulator::create(net, cell, mc);
  if (!made.ok()) {
    out.expect(false, "MD input rejected: " + made.error().message);
    return out;
  }
  fastchg::md::MDSimulator sim = std::move(made).value();
  sim.step(50);  // warm-up
  const double setup_s = seconds_since(kProcessStart);

  LayerProbe probe(o.trace);
  probe.begin_phase();
  std::vector<double> step_ms, temps, neighbor_ms, collate_ms;
  std::vector<checks::MdSnapshot> snaps;
  double timed_s = 0.0;
  // At least two snapshots and a temperature history, however short the run.
  while (timed_s < o.seconds || step_ms.size() < 2 * kMdSnapshotEvery) {
    probe.begin_round();
    const auto t = Clock::now();
    sim.step(1);
    const double s = seconds_since(t);
    probe.end_round();
    timed_s += s;
    step_ms.push_back(1e3 * s);
    temps.push_back(sim.temperature());
    const index_t n = static_cast<index_t>(step_ms.size());
    if (n % kMdSnapshotEvery == 0) {
      snaps.push_back({sim.steps_taken(), sim.crystal(), sim.forces(),
                       sim.potential_energy()});
    }
    if (o.trace && n % 50 == 0) {
      const auto tg = Clock::now();
      const fd::Sample smp{sim.crystal(), fd::build_graph(sim.crystal(), graph_config())};
      neighbor_ms.push_back(1e3 * seconds_since(tg));
      const auto tc = Clock::now();
      const fd::Batch b = fd::collate({&smp}, /*with_labels=*/false);
      collate_ms.push_back(1e3 * seconds_since(tc));
      if (b.num_atoms != sim.crystal().natoms()) out.expect(false, "collate lost atoms");
    }
  }
  out.attempted = step_ms.size();

  if (o.trace) {
    LayerReport r;
    probe.finish(r, static_cast<double>(step_ms.size()));
    r.md_step_ms = mean(step_ms);
    r.neighbor_ms = mean(neighbor_ms);
    r.graph_build_ms = r.neighbor_ms;
    r.collate_ms = mean(collate_ms);
    r.verlet_fallbacks = static_cast<double>(sim.verlet_fallbacks());
    r.dt_halvings = static_cast<double>(sim.dt_halvings_total());
    r.traced_throughput = static_cast<double>(step_ms.size()) / timed_s;
    emit_layer_report(out, r);
  } else {
    add_end_to_end(out, setup_s, static_cast<double>(step_ms.size()) / timed_s,
                   step_ms);
  }

  for (const auto& s : snaps) {
    if (auto p = checks::md_snapshot_consistent(net, s, graph_config(), 1e-5, 1e-4)) {
      out.expect(false, *p);
      break;
    }
  }
  out.expect(!snaps.empty(), "no MD snapshot was taken");
  if (auto p = checks::temperature_in_band(temps, kTargetK, kTempBand)) out.expect(false, *p);
  if (auto p = checks::no_dt_halvings(sim.dt_halvings_total())) out.expect(false, *p);
  std::fprintf(stderr, "md_nvt: %zu timed steps, mean T %.1f K, %zu snapshots, "
               "%lld Verlet fallbacks\n", step_ms.size(), mean(temps), snaps.size(),
               static_cast<long long>(sim.verlet_fallbacks()));
  return out;
}

// ---------------------------------------------------------------------------

void emit_layer_report(Outcome& out, const LayerReport& r) {
  out.add("data.graph_build_ms", r.graph_build_ms, "ms");
  out.add("data.collate_ms", r.collate_ms, "ms");
  out.add("chgnet.forward_ms", r.forward_ms, "ms");
  out.add("chgnet.basis_ms", r.basis_ms, "ms");
  out.add("chgnet.embed_ms", r.embed_ms, "ms");
  out.add("chgnet.interaction_ms", r.interaction_ms, "ms");
  out.add("chgnet.readout_ms", r.readout_ms, "ms");
  out.add("autograd.backward_ms", r.backward_ms, "ms");
  out.add("train.loss_ms", r.loss_ms, "ms");
  out.add("train.optimizer_ms", r.optimizer_ms, "ms");
  out.add("train.prefetch_wait_ms", r.prefetch_wait_ms, "ms");
  out.add("train.replay_lookups", r.replay_lookups, "count/step");
  out.add("train.replay_hit_ratio", r.replay_hit_ratio, "ratio");
  out.add("train.heldout_energy_mae_mev", r.heldout_mae_mev, "meV/atom");
  out.add("ops.kernels_per_step", r.kernels_per_step, "count/step");
  out.add("ops.logical_mb_per_step", r.logical_mb_per_step, "MiB");
  out.add("core.system_allocs_per_step", r.system_allocs_per_step, "count/step");
  out.add("core.pool_high_water_mb", r.pool_high_water_mb, "MiB");
  out.add("core.peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("parallel.device_compute_ms", r.device_compute_ms, "ms");
  out.add("parallel.imbalance", r.imbalance, "ratio");
  out.add("parallel.sync_ms", r.sync_ms, "ms");
  out.add("parallel.modelled_comm_ms", r.modelled_comm_ms, "ms");
  out.add("parallel.simulated_step_ms", r.simulated_step_ms, "ms");
  out.add("serve.validate_ms", r.validate_ms, "ms");
  out.add("serve.drain_ms", r.drain_ms, "ms");
  out.add("serve.batch_fill", r.batch_fill, "count");
  out.add("serve.cache_hit_ratio", r.cache_hit_ratio, "ratio");
  out.add("serve.replay_hit_ratio", r.serve_replay_hit_ratio, "ratio");
  out.add("md.step_ms", r.md_step_ms, "ms");
  out.add("md.neighbor_ms", r.neighbor_ms, "ms");
  out.add("md.verlet_fallbacks", r.verlet_fallbacks, "count");
  out.add("md.dt_halvings", r.dt_halvings, "count");
  out.add("traced.throughput_per_s", r.traced_throughput, "1/s");
}

}  // namespace perfbench
