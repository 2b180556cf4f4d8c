#pragma once

#include "common.hpp"

namespace perfbench {

/// Per-layer metrics of one traced run.  A layer the workload does not run
/// reads 0 (README.md lists which apply where).
struct LayerReport {
  double graph_build_ms = 0, collate_ms = 0;
  double forward_ms = 0, basis_ms = 0, embed_ms = 0, interaction_ms = 0,
         readout_ms = 0;
  double backward_ms = 0;
  double loss_ms = 0, optimizer_ms = 0, prefetch_wait_ms = 0,
         replay_lookups = 0, replay_hit_ratio = 0, heldout_mae_mev = 0;
  double kernels_per_step = 0, logical_mb_per_step = 0,
         system_allocs_per_step = 0, pool_high_water_mb = 0;
  double device_compute_ms = 0, imbalance = 0, sync_ms = 0,
         modelled_comm_ms = 0, simulated_step_ms = 0;
  double validate_ms = 0, drain_ms = 0, batch_fill = 0, cache_hit_ratio = 0,
         serve_replay_hit_ratio = 0;
  double md_step_ms = 0, neighbor_ms = 0, verlet_fallbacks = 0,
         dt_halvings = 0;
  double traced_throughput = 0;
};

void emit_layer_report(Outcome& out, const LayerReport& r);

Outcome run_train_shuffled(const Options& o);
Outcome run_dp_epoch(const Options& o);
Outcome run_serve_stream(const Options& o);
Outcome run_md_nvt(const Options& o);

/// Perturbation tests of the checks in checks.hpp; returns the number of
/// failures (0 = every check caught its perturbed value).
int run_selftest();

}  // namespace perfbench
