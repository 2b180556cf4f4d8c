// The benchmark's output checks.  Each check takes the values a workload
// produced and returns a description of what is wrong, or nothing.  The
// reference each compares against is computed here, apart from the code
// under test: the benchmark's own periodic-image distance, its own
// composition least-squares fit, finite differences from forward passes,
// and eval forwards on graphs built from scratch.  selftest.cpp feeds each
// check a perturbed value and asserts that it fails.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "chgnet/model.hpp"
#include "data/batch.hpp"
#include "parallel/data_parallel.hpp"
#include "serve/prediction.hpp"
#include "train/loss.hpp"

namespace perfbench::checks {

using fastchg::index_t;
using Problem = std::optional<std::string>;

// --- geometry --------------------------------------------------------------

/// Shortest distance between two atoms of `c` over periodic images,
/// self-images included (A).
double min_image_distance(const fastchg::data::Crystal& c);

// --- training ----------------------------------------------------------------

/// Energy-per-atom MAE (meV/atom) of `net` on `rows`, from eval forwards.
double model_energy_mae_mev(const fastchg::model::CHGNet& net,
                            const fastchg::data::Dataset& ds,
                            const std::vector<index_t>& rows);

/// Held-out energy-per-atom MAE (meV/atom) of a composition-only linear
/// model E = sum_Z n_Z e_Z, least-squares fitted on `train`.
double composition_baseline_mae_mev(const fastchg::data::Dataset& ds,
                                    const std::vector<index_t>& train,
                                    const std::vector<index_t>& heldout);

Problem mae_beats_baseline(double model_mae, double baseline_mae);

/// The last epoch's mean training loss is below `kLossFallRatio` times the
/// first epoch's.
inline constexpr double kLossFallRatio = 0.9;
Problem loss_falls(double first_epoch_loss, double last_epoch_loss);

struct GradSample {
  std::string param;
  index_t entry = 0;
  double analytic = 0.0;  ///< from ag::backward
  double numeric = 0.0;   ///< central difference of forward-only losses
};

/// For `count` parameter tensors spread over the model, take the entry with
/// the largest backward gradient of the training loss on `b` and compare it
/// with a central difference of the loss from two forward passes.  Leaves
/// the parameters as it found them.
std::vector<GradSample> finite_difference_gradients(
    fastchg::model::CHGNet& net, const fastchg::data::Batch& b,
    const fastchg::train::LossWeights& w, float huber_delta, int count);

Problem gradients_agree(const std::vector<GradSample>& samples);

/// Every parameter of every replica equals replica 0's, bit for bit.
Problem replicas_identical(const fastchg::parallel::DataParallelTrainer& dp);

// --- serving -----------------------------------------------------------------

struct ReplyRecord {
  double min_dist = 0.0;       ///< benchmark's min_image_distance
  bool ok = false;             ///< the engine replied with a prediction
  bool invalid_input = false;  ///< rejected as ErrorCode::kInvalidInput
};

/// Exactly the requests closer than `limit` are rejected as invalid input,
/// and every other request is served.
Problem rejections_exact(const std::vector<ReplyRecord>& replies,
                         double limit);

/// Energy per atom within `e_tol` eV/atom and every force component within
/// `f_tol` eV/A.
Problem predictions_match(const fastchg::serve::Prediction& got,
                          const fastchg::serve::Prediction& want,
                          index_t natoms, double e_tol, double f_tol);

Problem energies_match(double got_per_atom, double want_per_atom, double tol,
                       const std::string& what);

// --- molecular dynamics ------------------------------------------------------

struct MdSnapshot {
  index_t step = 0;
  fastchg::data::Crystal crystal;
  std::vector<fastchg::data::Vec3> forces;
  double potential = 0.0;  ///< eV
};

struct EvalResult {
  double energy_per_atom = 0.0;
  std::vector<fastchg::data::Vec3> forces;
};

/// Eval forward of `net` on `c` with a graph built from scratch.
EvalResult eval_from_scratch(const fastchg::model::CHGNet& net,
                             const fastchg::data::Crystal& c,
                             const fastchg::data::GraphConfig& gc);

Problem md_snapshot_consistent(const fastchg::model::CHGNet& net,
                               const MdSnapshot& snap,
                               const fastchg::data::GraphConfig& gc,
                               double e_tol, double f_tol);

/// The mean temperature of the second half of `temps` lies within
/// target * (1 +- band).
Problem temperature_in_band(const std::vector<double>& temps, double target,
                            double band);

Problem no_dt_halvings(index_t halvings);

}  // namespace perfbench::checks
