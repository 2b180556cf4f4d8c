// CHGNet / FastCHGNet model.
//
// A single class implements both: every optimization the paper describes is
// an independent switch in ModelConfig (see config.hpp), so the Fig. 8
// step-by-step ablation, the Table-I accuracy comparison and the Table-II
// MD benchmark all run through this one forward implementation.
//
// Forward pipeline:
//   1. geometry + basis      (Alg. 1 serial per-sample  OR  Alg. 2 batched)
//   2. feature embedding     (Eq. 2; packed GEMM when packed_linears)
//   3. num_layers interaction blocks (Eq. 10 or Eq. 11)
//   4. readout: energy (+magmom) always; force/stress either by autograd
//      differentiation of the energy (reference; needs double backward in
//      training) or by the decoupled Force/Stress heads (FastCHGNet).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "basis/fourier.hpp"
#include "basis/rbf.hpp"
#include "chgnet/embedding_layer.hpp"
#include "chgnet/interaction.hpp"
#include "chgnet/readout.hpp"
#include "data/batch.hpp"
#include "fastchgnet/heads.hpp"

namespace fastchg::model {

struct ModelOutput {
  Var energy_per_atom;  ///< [S,1] eV/atom
  Var forces;           ///< [A,3] eV/A
  Var stress;           ///< [S,9] eV/A^3
  Var magmom;           ///< [A,1] mu_B
};

enum class ForwardMode {
  kTrain,  ///< derivative readout uses create_graph=true (2nd order ready)
  kEval,   ///< no training graph; decoupled models run fully grad-free
};

class CHGNet : public nn::Module {
 public:
  explicit CHGNet(const ModelConfig& cfg, std::uint64_t seed = 0);

  ModelOutput forward(const data::Batch& b,
                      ForwardMode mode = ForwardMode::kTrain) const;

  const ModelConfig& config() const { return cfg_; }

  /// Install per-species reference energies (CHGNet's AtomRef composition
  /// model; typically fitted by train::fit_atom_ref).  `e0` is indexed by
  /// atomic number and must have num_species + 1 entries.  The reference is
  /// a fixed additive term: it shifts energies but not forces or stress.
  void set_atom_ref(const std::vector<float>& e0);
  bool has_atom_ref() const { return atom_ref_.defined(); }
  /// The installed reference-energy table (undefined Tensor when absent);
  /// exposed so full-state checkpoints can persist it.
  const Tensor& atom_ref() const { return atom_ref_; }

 private:
  struct BasisOut {
    Var pos;                  ///< [A,3] (strained when derivatives needed)
    std::vector<Var> strains; ///< S x [3,3], empty on the decoupled path
    Var rij;                  ///< [E,3]
    Var rlen;                 ///< [E,1]
    Var rbf;                  ///< [E,num_radial]
    Var fourier;              ///< [G,num_angular]; undefined when G == 0
  };

  BasisOut compute_basis_serial(const data::Batch& b, bool with_strain) const;
  BasisOut compute_basis_batched(const data::Batch& b,
                                 bool with_strain) const;
  /// Angle cosine/acos from bond vectors for a [G] slice of the angle lists.
  Var angles_from_rij(const Var& rij, const Var& rlen,
                      const std::vector<index_t>& e1,
                      const std::vector<index_t>& e2) const;

  ModelConfig cfg_;
  Rng init_rng_;  ///< declared before the submodules; consumed at init only
  FeatureEmbedding embed_;
  basis::RadialBasis rbf_;
  basis::AngularBasis fourier_;
  std::vector<std::unique_ptr<InteractionBlock>> blocks_;
  EnergyHead energy_head_;
  MagmomHead magmom_head_;
  std::optional<ForceHead> force_head_;    ///< decoupled_heads only
  std::optional<StressHead> stress_head_;  ///< decoupled_heads only
  Tensor atom_ref_;                        ///< [num_species+1, 1] or undefined
};

/// Convenience factory: FastCHGNet as published ("F/S head" variant).
std::unique_ptr<CHGNet> make_fastchgnet(std::uint64_t seed = 0);
/// Reference CHGNet.
std::unique_ptr<CHGNet> make_reference_chgnet(std::uint64_t seed = 0);

}  // namespace fastchg::model
