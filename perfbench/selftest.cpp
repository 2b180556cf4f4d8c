// Tests of the benchmark's own checks: each check passes on the program's
// real output and fails once that output is perturbed (a flipped force
// sign, skipped optimizer steps, a perturbed replica parameter, a dropped
// rejection, ...).  Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "data/generator.hpp"
#include "md/md.hpp"
#include "parallel/data_parallel.hpp"
#include "serve/engine.hpp"
#include "serve/fuzz.hpp"
#include "train/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fd = fastchg::data;
namespace fm = fastchg::model;
using checks::Problem;
using fastchg::index_t;

namespace {

int failures = 0;

/// `clean` must pass and `perturbed` must fail.
void expect_caught(const char* name, const Problem& clean,
                   const Problem& perturbed) {
  const bool ok = !clean.has_value() && perturbed.has_value();
  if (!ok) ++failures;
  std::printf("selftest %-34s %s\n", name, ok ? "ok" : "FAILED");
  if (clean) std::printf("  unperturbed value failed: %s\n", clean->c_str());
  if (!perturbed) std::printf("  perturbed value passed\n");
  if (perturbed && ok) std::printf("  caught: %s\n", perturbed->c_str());
}

std::vector<index_t> rows(index_t n) {
  std::vector<index_t> r;
  for (index_t i = 0; i < n; ++i) r.push_back(i);
  return r;
}

fd::Dataset small_dataset(index_t n, std::uint64_t seed) {
  fd::GeneratorConfig g;
  g.num_species = 24;
  g.max_atoms = 16;
  return fd::Dataset::generate(n, seed, g, graph_config());
}

void md_forces() {
  const fm::CHGNet net(model_config(), 7);
  fastchg::md::MDConfig mc;
  mc.dt_fs = 1.0;
  mc.ensemble = fastchg::md::Ensemble::kNVTLangevin;
  mc.graph = graph_config();
  mc.verlet_skin = 0.5;
  fastchg::md::MDSimulator sim(net, fd::make_reference_structure("LiMnO2"), mc);
  sim.step(5);
  checks::MdSnapshot snap{sim.steps_taken(), sim.crystal(), sim.forces(),
                          sim.potential_energy()};
  const Problem clean = checks::md_snapshot_consistent(net, snap, graph_config(), 1e-5, 1e-4);
  for (auto& f : snap.forces) f = {-f[0], -f[1], -f[2]};
  expect_caught("md: flipped force sign", clean,
                checks::md_snapshot_consistent(net, snap, graph_config(), 1e-5, 1e-4));
}

void md_temperature() {
  std::vector<double> temps(200, 300.0);
  for (std::size_t i = 0; i < temps.size(); ++i) temps[i] += 20.0 * std::sin(0.3 * i);
  std::vector<double> hot = temps;
  for (double& t : hot) t *= 1.3;
  expect_caught("md: temperature off target", checks::temperature_in_band(temps, 300.0, 0.2),
                checks::temperature_in_band(hot, 300.0, 0.2));
  expect_caught("md: one dt halving", checks::no_dt_halvings(0), checks::no_dt_halvings(1));
}

void training() {
  const fd::Dataset ds = small_dataset(48, 11);
  const std::vector<index_t> train = rows(48);
  auto run = [&](float lr) {
    fm::CHGNet net(model_config(), 7);
    fastchg::train::TrainConfig tc;
    tc.batch_size = 16;
    tc.epochs = 1000;
    tc.base_lr = lr;
    fastchg::train::Trainer tr(net, tc);
    const double first = tr.train_epoch(ds, train, 0).mean_loss;
    double last = first;
    for (index_t e = 1; e < 6; ++e) last = tr.train_epoch(ds, train, e).mean_loss;
    return checks::loss_falls(first, last);
  };
  // A learning rate of 0 is an optimizer step that changes nothing.
  expect_caught("train: skipped optimizer steps", run(1e-3f), run(0.0f));

  fm::CHGNet net(model_config(), 7);
  const fd::Batch b = fd::collate_indices(ds, rows(8));
  auto grads = checks::finite_difference_gradients(net, b, {}, 0.1f, 6);
  const Problem clean = checks::gradients_agree(grads);
  grads[grads.size() / 2].analytic = -grads[grads.size() / 2].analytic;
  expect_caught("train: flipped gradient sign", clean, checks::gradients_agree(grads));

  expect_caught("train: MAE above composition fit", checks::mae_beats_baseline(300, 500),
                checks::mae_beats_baseline(600, 500));
}

void data_parallel() {
  const fd::Dataset ds = small_dataset(32, 12);
  fastchg::parallel::DataParallelConfig pc;
  pc.num_devices = 4;
  pc.global_batch = 16;
  fastchg::parallel::DataParallelTrainer dp(model_config(), pc, 7);
  dp.train_epoch(ds, rows(32), 0);
  const Problem clean = checks::replicas_identical(dp);
  fastchg::Tensor v = dp.replica(3).parameters()[5].value();
  v.data()[0] = std::nextafter(v.data()[0], 1e30f);
  expect_caught("dp: perturbed replica parameter", clean, checks::replicas_identical(dp));
}

void serving() {
  const fm::CHGNet net(model_config(), 7);
  fastchg::serve::EngineConfig cfg;
  cfg.graph = graph_config();
  cfg.max_batch = 8;
  cfg.cache_capacity = 16;
  fastchg::serve::InferenceEngine engine(net, cfg);
  fd::GeneratorConfig g;
  g.min_atoms = 2;
  g.max_atoms = 12;
  fastchg::Rng rng(21);
  std::vector<fd::Crystal> in;
  while (in.size() < 6) {
    fd::Crystal c = fd::random_crystal(rng, g);
    if (checks::min_image_distance(c) >= 0.5) in.push_back(c);
  }
  fd::Crystal bad = in[0];
  bad.frac[1] = bad.frac[0];
  bad.frac[1][0] += 0.01;
  in.push_back(bad);
  for (const auto& c : in) (void)engine.submit(c);
  const auto replies = engine.drain();
  std::vector<checks::ReplyRecord> rec;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    rec.push_back({checks::min_image_distance(in[i]), replies[i].ok(),
                   !replies[i].ok() &&
                       replies[i].code() == fastchg::serve::ErrorCode::kInvalidInput});
  }
  const Problem clean = checks::rejections_exact(rec, 0.5);
  std::vector<checks::ReplyRecord> dropped = rec;
  dropped.back().ok = true;  // the engine "served" the overlapping request
  dropped.back().invalid_input = false;
  expect_caught("serve: dropped rejection", clean, checks::rejections_exact(dropped, 0.5));

  const fastchg::serve::Prediction got = replies[0].value();
  fastchg::serve::Prediction off = got;
  off.energy += 1e-3 * static_cast<double>(in[0].natoms());
  expect_caught("serve: perturbed cached energy",
                checks::predictions_match(got, got, in[0].natoms(), 1e-5, 1e-4),
                checks::predictions_match(off, got, in[0].natoms(), 1e-5, 1e-4));
  off = got;
  off.forces[0][1] += 1e-3;
  expect_caught("serve: perturbed force",
                checks::predictions_match(got, got, in[0].natoms(), 1e-5, 1e-4),
                checks::predictions_match(off, got, in[0].natoms(), 1e-5, 1e-4));
  expect_caught("serve: supercell energy shifted", checks::energies_match(-1.0, -1.0, 1e-4, "x"),
                checks::energies_match(-1.0 + 2e-4, -1.0, 1e-4, "x"));
}

}  // namespace

int run_selftest() {
  md_forces();
  md_temperature();
  training();
  data_parallel();
  serving();
  std::printf("selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
