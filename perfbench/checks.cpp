#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

#include "autograd/variable.hpp"
#include "data/graph.hpp"

namespace perfbench::checks {

namespace fd = fastchg::data;
namespace fm = fastchg::model;

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// Solve the dense n x n system a x = b by Gaussian elimination with
/// partial pivoting (a is row-major, overwritten).
std::vector<double> solve(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[piv * n + col])) piv = r;
    }
    for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[piv * n + c]);
    std::swap(b[col], b[piv]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / a[col * n + col];
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t r = n; r-- > 0;) {
    double acc = b[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= a[r * n + c] * x[c];
    x[r] = acc / a[r * n + r];
  }
  return x;
}

double training_loss(const fm::CHGNet& net, const fd::Batch& b,
                     const fastchg::train::LossWeights& w, float delta) {
  const fm::ModelOutput out = net.forward(b, fm::ForwardMode::kTrain);
  return fastchg::train::chgnet_loss(out, b, w, delta).total.item();
}

}  // namespace

double min_image_distance(const fd::Crystal& c) {
  double best = std::numeric_limits<double>::infinity();
  const std::size_t n = c.frac.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      fd::Vec3 df{};
      for (int k = 0; k < 3; ++k) {
        const double d = c.frac[j][k] - c.frac[i][k];
        df[k] = d - std::round(d);
      }
      for (int a = -2; a <= 2; ++a) {
        for (int b = -2; b <= 2; ++b) {
          for (int g = -2; g <= 2; ++g) {
            if (i == j && a == 0 && b == 0 && g == 0) continue;
            const double f[3] = {df[0] + a, df[1] + b, df[2] + g};
            double r2 = 0.0;
            for (int k = 0; k < 3; ++k) {
              const double x = f[0] * c.lattice[0][k] + f[1] * c.lattice[1][k] +
                               f[2] * c.lattice[2][k];
              r2 += x * x;
            }
            best = std::min(best, std::sqrt(r2));
          }
        }
      }
    }
  }
  return best;
}

double model_energy_mae_mev(const fm::CHGNet& net, const fd::Dataset& ds,
                            const std::vector<index_t>& rows) {
  double sum = 0.0;
  for (std::size_t lo = 0; lo < rows.size(); lo += 16) {
    const std::vector<index_t> chunk(
        rows.begin() + static_cast<std::ptrdiff_t>(lo),
        rows.begin() + static_cast<std::ptrdiff_t>(std::min(rows.size(), lo + 16)));
    const fm::ModelOutput out =
        net.forward(fd::collate_indices(ds, chunk), fm::ForwardMode::kEval);
    const float* e = out.energy_per_atom.value().data();
    for (std::size_t s = 0; s < chunk.size(); ++s) {
      const fd::Crystal& c = ds[chunk[s]].crystal;
      sum += std::fabs(static_cast<double>(e[s]) -
                       c.energy / static_cast<double>(c.natoms()));
    }
  }
  return 1e3 * sum / static_cast<double>(rows.size());
}

double composition_baseline_mae_mev(const fd::Dataset& ds,
                                    const std::vector<index_t>& train,
                                    const std::vector<index_t>& heldout) {
  // Columns: the species seen in training.  Energy per atom is fitted as a
  // linear function of the composition fractions, with a small ridge.
  std::map<index_t, std::size_t> col;
  for (index_t r : train) {
    for (index_t z : ds[r].crystal.species) col.emplace(z, 0);
  }
  std::size_t k = 0;
  for (auto& [z, c] : col) c = k++;
  std::vector<double> ata(k * k, 0.0), aty(k, 0.0), x(k);
  auto fractions = [&](const fd::Crystal& c) {
    std::fill(x.begin(), x.end(), 0.0);
    for (index_t z : c.species) {
      const auto it = col.find(z);
      if (it != col.end()) x[it->second] += 1.0 / static_cast<double>(c.natoms());
    }
  };
  for (index_t r : train) {
    const fd::Crystal& c = ds[r].crystal;
    fractions(c);
    const double y = c.energy / static_cast<double>(c.natoms());
    for (std::size_t i = 0; i < k; ++i) {
      aty[i] += x[i] * y;
      for (std::size_t j = 0; j < k; ++j) ata[i * k + j] += x[i] * x[j];
    }
  }
  for (std::size_t i = 0; i < k; ++i) ata[i * k + i] += 1e-6;
  const std::vector<double> e = solve(ata, aty);
  double sum = 0.0;
  for (index_t r : heldout) {
    const fd::Crystal& c = ds[r].crystal;
    fractions(c);
    double pred = 0.0;
    for (std::size_t i = 0; i < k; ++i) pred += x[i] * e[i];
    sum += std::fabs(pred - c.energy / static_cast<double>(c.natoms()));
  }
  return 1e3 * sum / static_cast<double>(heldout.size());
}

Problem mae_beats_baseline(double model_mae, double baseline_mae) {
  if (std::isfinite(model_mae) && model_mae < baseline_mae) return {};
  return fmt("held-out energy MAE %.1f meV/atom is not below the "
             "composition-only fit's %.1f",
             model_mae, baseline_mae);
}

Problem loss_falls(double first_epoch_loss, double last_epoch_loss) {
  if (std::isfinite(last_epoch_loss) &&
      last_epoch_loss < kLossFallRatio * first_epoch_loss) {
    return {};
  }
  return fmt("training loss did not fall: first epoch %.5g, last epoch %.5g",
             first_epoch_loss, last_epoch_loss);
}

std::vector<GradSample> finite_difference_gradients(
    fm::CHGNet& net, const fd::Batch& b, const fastchg::train::LossWeights& w,
    float huber_delta, int count) {
  const auto named = net.named_parameters();
  for (const auto& [name, p] : named) {
    fastchg::ag::Var v = p;
    v.zero_grad();
  }
  {
    const fm::ModelOutput out = net.forward(b, fm::ForwardMode::kTrain);
    fastchg::ag::backward(
        fastchg::train::chgnet_loss(out, b, w, huber_delta).total);
  }
  std::vector<GradSample> samples;
  const std::size_t stride =
      std::max<std::size_t>(1, named.size() / static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < named.size() &&
                          samples.size() < static_cast<std::size_t>(count);
       i += stride) {
    const fastchg::ag::Var& p = named[i].second;
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    index_t best = 0;
    for (index_t e = 1; e < p.numel(); ++e) {
      if (std::fabs(g[e]) > std::fabs(g[best])) best = e;
    }
    if (std::fabs(g[best]) < 1e-4f) continue;  // too flat to difference
    GradSample s{named[i].first, best, g[best], 0.0};
    fastchg::Tensor value = p.value();
    float* x = value.data() + best;
    const float orig = *x;
    const float h = 2e-3f * std::max(1.0f, std::fabs(orig));
    *x = orig + h;
    const double up = training_loss(net, b, w, huber_delta);
    *x = orig - h;
    const double down = training_loss(net, b, w, huber_delta);
    *x = orig;
    s.numeric = (up - down) / (2.0 * static_cast<double>(h));
    samples.push_back(s);
  }
  for (const auto& [name, p] : named) {
    fastchg::ag::Var v = p;
    v.zero_grad();
  }
  return samples;
}

Problem gradients_agree(const std::vector<GradSample>& samples) {
  if (samples.size() < 3) return std::string("fewer than 3 gradient samples");
  for (const GradSample& s : samples) {
    const double scale = std::max(std::fabs(s.analytic), std::fabs(s.numeric));
    if (!(std::fabs(s.analytic - s.numeric) <= 0.05 * scale + 1e-5)) {
      return s.param + "[" + std::to_string(s.entry) + "]: " +
             fmt("backward gradient %.6g, central difference %.6g",
                 s.analytic, s.numeric);
    }
  }
  return {};
}

Problem replicas_identical(const fastchg::parallel::DataParallelTrainer& dp) {
  const auto lead = dp.replica(0).parameters();
  for (int d = 1; d < dp.num_devices(); ++d) {
    const auto other = dp.replica(d).parameters();
    if (other.size() != lead.size()) return std::string("replica shapes differ");
    for (std::size_t i = 0; i < lead.size(); ++i) {
      const float* a = lead[i].value().data();
      const float* b = other[i].value().data();
      for (index_t e = 0; e < lead[i].numel(); ++e) {
        if (std::memcmp(a + e, b + e, sizeof(float)) != 0) {
          std::ostringstream os;
          os.precision(9);
          os << "replica " << d << " parameter " << i << "[" << e
             << "] = " << b[e] << " differs from replica 0's " << a[e];
          return os.str();
        }
      }
    }
  }
  return {};
}

Problem rejections_exact(const std::vector<ReplyRecord>& replies,
                         double limit) {
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const ReplyRecord& r = replies[i];
    const bool should_reject = r.min_dist < limit;
    const bool rejected = !r.ok && r.invalid_input;
    if (should_reject != rejected || (!r.ok && !r.invalid_input)) {
      std::ostringstream os;
      os << "request " << i << " (min distance " << r.min_dist << " A) was "
         << (r.ok ? "served" : r.invalid_input ? "rejected" : "failed")
         << (should_reject ? " but is closer than " : " but is not closer than ")
         << limit << " A";
      return os.str();
    }
  }
  return {};
}

Problem predictions_match(const fastchg::serve::Prediction& got,
                          const fastchg::serve::Prediction& want,
                          index_t natoms, double e_tol, double f_tol) {
  const double n = static_cast<double>(natoms);
  if (!(std::fabs(got.energy / n - want.energy / n) <= e_tol)) {
    return fmt("energy per atom %.9g differs from the reference %.9g",
               got.energy / n, want.energy / n);
  }
  if (got.forces.size() != want.forces.size()) {
    return std::string("force arrays differ in length");
  }
  for (std::size_t i = 0; i < got.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      if (!(std::fabs(got.forces[i][k] - want.forces[i][k]) <= f_tol)) {
        return fmt("force component %.9g differs from the reference %.9g",
                   got.forces[i][k], want.forces[i][k]);
      }
    }
  }
  return {};
}

Problem energies_match(double got_per_atom, double want_per_atom, double tol,
                       const std::string& what) {
  if (std::fabs(got_per_atom - want_per_atom) <= tol) return {};
  return what + fmt(": energy per atom %.9g vs %.9g", got_per_atom,
                    want_per_atom);
}

EvalResult eval_from_scratch(const fm::CHGNet& net, const fd::Crystal& c,
                             const fd::GraphConfig& gc) {
  const fd::Sample s{c, fd::build_graph(c, gc)};
  const fm::ModelOutput out =
      net.forward(fd::collate({&s}, /*with_labels=*/false),
                  fm::ForwardMode::kEval);
  EvalResult r;
  r.energy_per_atom = out.energy_per_atom.value().data()[0];
  const float* f = out.forces.value().data();
  r.forces.resize(c.frac.size());
  for (std::size_t i = 0; i < c.frac.size(); ++i) {
    for (int k = 0; k < 3; ++k) r.forces[i][k] = f[i * 3 + static_cast<std::size_t>(k)];
  }
  return r;
}

Problem md_snapshot_consistent(const fm::CHGNet& net, const MdSnapshot& snap,
                               const fd::GraphConfig& gc, double e_tol,
                               double f_tol) {
  const EvalResult ref = eval_from_scratch(net, snap.crystal, gc);
  const double n = static_cast<double>(snap.crystal.natoms());
  const std::string at = "MD step " + std::to_string(snap.step) + ": ";
  if (!(std::fabs(snap.potential / n - ref.energy_per_atom) <= e_tol)) {
    return at + fmt("potential energy per atom %.9g, scratch forward %.9g",
                    snap.potential / n, ref.energy_per_atom);
  }
  for (std::size_t i = 0; i < ref.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      if (!(std::fabs(snap.forces[i][k] - ref.forces[i][k]) <= f_tol)) {
        return at + fmt("force %.9g, scratch forward %.9g", snap.forces[i][k],
                        ref.forces[i][k]);
      }
    }
  }
  return {};
}

Problem temperature_in_band(const std::vector<double>& temps, double target,
                            double band) {
  if (temps.size() < 2) return std::string("too few MD steps to judge");
  double sum = 0.0;
  const std::size_t half = temps.size() / 2;
  for (std::size_t i = half; i < temps.size(); ++i) sum += temps[i];
  const double m = sum / static_cast<double>(temps.size() - half);
  if (std::fabs(m - target) <= band * target) return {};
  return fmt("mean temperature of the second half %.1f K is outside "
             "the band around %.1f K",
             m, target);
}

Problem no_dt_halvings(index_t halvings) {
  if (halvings == 0) return {};
  return "the MD watchdog halved dt " + std::to_string(halvings) + " times";
}

}  // namespace perfbench::checks
