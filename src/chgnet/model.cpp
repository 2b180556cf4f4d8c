#include "chgnet/model.hpp"

#include "autograd/ops.hpp"
#include "perf/trace.hpp"

namespace fastchg::model {

using namespace ag::ops;

namespace {

Var identity3() {
  Tensor id = Tensor::zeros({3, 3});
  id.data()[0] = id.data()[4] = id.data()[8] = 1.0f;
  return constant(std::move(id));
}

/// Integer-index subvector [lo, hi) of `v`, optionally rebased by `-base`.
std::vector<index_t> slice_vec(const std::vector<index_t>& v, index_t lo,
                               index_t hi, index_t base = 0) {
  std::vector<index_t> out;
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (index_t i = lo; i < hi; ++i) {
    out.push_back(v[static_cast<std::size_t>(i)] - base);
  }
  return out;
}

}  // namespace

CHGNet::CHGNet(const ModelConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      init_rng_(seed),
      embed_(cfg, init_rng_),
      rbf_(cfg.num_radial, cfg.atom_cutoff, cfg.envelope_p,
           cfg.fused_kernels, cfg.factored_envelope),
      fourier_(cfg.num_angular, cfg.fused_kernels),
      energy_head_(cfg, init_rng_),
      magmom_head_(cfg, init_rng_) {
  add_child("embed", &embed_);
  add_child("rbf", &rbf_);
  for (index_t l = 0; l < cfg.num_layers; ++l) {
    const bool last = (l + 1 == cfg.num_layers);
    blocks_.push_back(
        std::make_unique<InteractionBlock>(cfg, last, init_rng_));
    add_child("block" + std::to_string(l), blocks_.back().get());
  }
  add_child("energy_head", &energy_head_);
  add_child("magmom_head", &magmom_head_);
  if (cfg.decoupled_heads) {
    force_head_.emplace(cfg, init_rng_);
    stress_head_.emplace(cfg, init_rng_);
    add_child("force_head", &*force_head_);
    add_child("stress_head", &*stress_head_);
  }
}

Var CHGNet::angles_from_rij(const Var& rij, const Var& rlen,
                            const std::vector<index_t>& e1,
                            const std::vector<index_t>& e2) const {
  Var u = index_select0(rij, e1);
  Var v = index_select0(rij, e2);
  Var dots = sum_dim(mul(u, v), 1, /*keepdim=*/true);            // [G,1]
  Var lens = mul(index_select0(rlen, e1), index_select0(rlen, e2));
  Var cosq = clamp(div(dots, lens), -1.0f + 1e-6f, 1.0f - 1e-6f);
  return acos_op(cosq);
}

// ---------------------------------------------------------------------------
// Alg. 1: serial per-sample basis computation (reference CHGNet).  Every
// structure runs its own chain of small kernels; the results are
// concatenated at the end -- exactly the CPU-bound pattern the paper
// criticizes.
// ---------------------------------------------------------------------------
CHGNet::BasisOut CHGNet::compute_basis_serial(const data::Batch& b,
                                              bool with_strain) const {
  BasisOut out;
  Var pos0(b.cart, /*requires_grad=*/with_strain);
  Var image_all = constant(b.edge_image);
  Var id = identity3();

  std::vector<Var> pos_parts, rij_parts, rlen_parts, rbf_parts, ft_parts;
  std::vector<Var> lattices;
  for (index_t s = 0; s < b.num_structs; ++s) {
    Var lat = constant(b.lattices[static_cast<std::size_t>(s)]);
    if (with_strain) {
      Var eps(Tensor::zeros({3, 3}), /*requires_grad=*/true);
      out.strains.push_back(eps);
      Var defo = add(id, eps);
      Var pos_s = narrow(pos0, 0, b.atom_first[s],
                         b.atom_first[s + 1] - b.atom_first[s]);
      pos_parts.push_back(matmul(pos_s, defo));
      lat = matmul(lat, defo);
    }
    lattices.push_back(lat);
  }
  Var pos = with_strain ? cat(pos_parts, 0) : pos0;
  out.pos = pos0;

  for (index_t s = 0; s < b.num_structs; ++s) {
    const index_t e0 = b.edge_first[s], e1 = b.edge_first[s + 1];
    const index_t ne = e1 - e0;
    if (ne == 0) continue;
    Var img = narrow(image_all, 0, e0, ne);
    Var shift = matmul(img, lattices[static_cast<std::size_t>(s)]);
    Var ri = index_select0(pos, slice_vec(b.edge_src, e0, e1));
    Var rj = index_select0(pos, slice_vec(b.edge_dst, e0, e1));
    Var rij = add(sub(rj, ri), shift);
    Var rlen = sqrt_op(sum_dim(square(rij), 1, /*keepdim=*/true));
    rij_parts.push_back(rij);
    rlen_parts.push_back(rlen);
    rbf_parts.push_back(rbf_.forward(rlen));

    const index_t a0 = b.angle_first[s], a1 = b.angle_first[s + 1];
    if (a1 > a0) {  // Alg. 1 line 12: skip samples without angles
      Var theta = angles_from_rij(rij, rlen,
                                  slice_vec(b.angle_e1, a0, a1, e0),
                                  slice_vec(b.angle_e2, a0, a1, e0));
      ft_parts.push_back(fourier_.forward(theta));
    }
  }
  out.rij = cat(rij_parts, 0);
  out.rlen = cat(rlen_parts, 0);
  out.rbf = cat(rbf_parts, 0);
  if (!ft_parts.empty()) out.fourier = cat(ft_parts, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Alg. 2: batched basis computation.  One dense block-diagonal image matrix
// multiplication produces every edge shift at once; sRBF and Fourier run on
// the whole batch in single launches.
// ---------------------------------------------------------------------------
CHGNet::BasisOut CHGNet::compute_basis_batched(const data::Batch& b,
                                               bool with_strain) const {
  BasisOut out;
  Var pos0(b.cart, /*requires_grad=*/with_strain);
  Var id = identity3();

  Var pos;
  std::vector<Var> lattices;
  if (with_strain) {
    std::vector<Var> pos_parts;
    for (index_t s = 0; s < b.num_structs; ++s) {
      Var eps(Tensor::zeros({3, 3}), /*requires_grad=*/true);
      out.strains.push_back(eps);
      Var defo = add(id, eps);
      pos_parts.push_back(matmul(narrow(pos0, 0, b.atom_first[s],
                                        b.atom_first[s + 1] -
                                            b.atom_first[s]),
                                 defo));
      lattices.push_back(
          matmul(constant(b.lattices[static_cast<std::size_t>(s)]), defo));
    }
    pos = cat(pos_parts, 0);
  } else {
    pos = pos0;
    for (index_t s = 0; s < b.num_structs; ++s) {
      lattices.push_back(constant(b.lattices[static_cast<std::size_t>(s)]));
    }
  }
  out.pos = pos0;

  Var lat_cat = cat(lattices, 0);                       // [3S,3]
  Var shifts = matmul(constant(b.image_blockdiag), lat_cat);  // [E,3]
  Var ri = index_select0(pos, b.edge_src);
  Var rj = index_select0(pos, b.edge_dst);
  out.rij = add(sub(rj, ri), shifts);
  out.rlen = sqrt_op(sum_dim(square(out.rij), 1, /*keepdim=*/true));
  out.rbf = rbf_.forward(out.rlen);
  if (b.num_angles > 0) {
    Var theta = angles_from_rij(out.rij, out.rlen, b.angle_e1, b.angle_e2);
    out.fourier = fourier_.forward(theta);
  }
  return out;
}

ModelOutput CHGNet::forward(const data::Batch& b, ForwardMode mode) const {
  const bool decoupled = cfg_.decoupled_heads;
  // Decoupled inference needs no graph at all -- this is where FastCHGNet's
  // MD speedup (Table II) comes from.
  std::optional<ag::NoGradGuard> nograd;
  if (decoupled && mode == ForwardMode::kEval) nograd.emplace();

  perf::TraceSpan span_fwd("model.forward", "model");
  const bool with_strain = !decoupled;
  BasisOut geo;
  {
    perf::TraceSpan span("model.basis", "model");
    geo = cfg_.batched_basis ? compute_basis_batched(b, with_strain)
                             : compute_basis_serial(b, with_strain);
  }

  FeatureEmbedding::BondFeatures bf;
  BlockState st;
  {
    perf::TraceSpan span("model.embed", "model");
    bf = embed_.bonds(geo.rbf);
    st.v = embed_.atoms(b.species);
    st.e = bf.e0;
    if (b.num_angles > 0) st.a = embed_.angles(geo.fourier);
  }

  GraphTopo topo;
  topo.num_atoms = b.num_atoms;
  topo.num_edges = b.num_edges;
  topo.num_angles = b.num_angles;
  topo.edge_src = &b.edge_src;
  topo.edge_dst = &b.edge_dst;
  topo.angle_e1 = &b.angle_e1;
  topo.angle_e2 = &b.angle_e2;
  topo.angle_center = &b.angle_center;
  if (b.num_angles > 0 && b.num_structs > 1) {
    // Mixed batch detection: structures without angles must not have their
    // bond features touched by the (biased) bond update, or a fused serve
    // batch would diverge from serving the same structure alone.
    bool mixed = false;
    for (index_t s = 0; s < b.num_structs; ++s) {
      if (b.angle_first[s + 1] == b.angle_first[s]) {
        mixed = true;
        break;
      }
    }
    if (mixed) {
      Tensor mask = Tensor::empty({b.num_edges, 1});
      for (index_t s = 0; s < b.num_structs; ++s) {
        const float has_angles =
            b.angle_first[s + 1] > b.angle_first[s] ? 1.0f : 0.0f;
        for (index_t e = b.edge_first[s]; e < b.edge_first[s + 1]; ++e) {
          mask.data()[e] = has_angles;
        }
      }
      topo.bond_update_mask = constant(std::move(mask));
    }
  }

  Var magmom_features;
  {
    perf::TraceSpan span("model.interaction", "model");
    for (const auto& block : blocks_) {
      // CHGNet supervises magmoms on the features entering the final block.
      if (cfg_.magmom_intermediate && block->last()) magmom_features = st.v;
      block->apply(st, topo, bf.ea, bf.eb);
    }
  }
  if (!magmom_features.defined()) magmom_features = st.v;

  ModelOutput outp;
  {
    perf::TraceSpan span("model.readout", "model");
    outp.energy_per_atom =
        energy_head_.forward(st.v, b.atom_struct, b.num_structs, b.natoms);
    if (atom_ref_.defined()) {
      // AtomRef composition baseline: mean per-species reference energy of
      // each structure, added as a constant (no force/stress contribution).
      Var ref_atom = index_select0(constant(atom_ref_), b.species);  // [A,1]
      Tensor inv_n = Tensor::empty({b.num_structs, 1});
      for (index_t s = 0; s < b.num_structs; ++s) {
        inv_n.data()[s] =
            1.0f / static_cast<float>(b.natoms[static_cast<std::size_t>(s)]);
      }
      Var ref_pa = mul(index_add0(b.num_structs, b.atom_struct, ref_atom),
                       constant(std::move(inv_n)));
      outp.energy_per_atom = add(outp.energy_per_atom, ref_pa);
    }
    outp.magmom = magmom_head_.forward(magmom_features);

    if (decoupled) {
      outp.forces = force_head_->forward(st.e, geo.rij, geo.rlen, b.edge_src,
                                         b.num_atoms);
      outp.stress = stress_head_->forward(st.v, b);
      return outp;
    }
  }

  perf::TraceSpan span_deriv("model.derivative_readout", "model");
  // Derivative readout: F = -dE/dx, sigma = (1/V) dE/deps.  In training the
  // gradient graph itself must be differentiable (create_graph) so the Huber
  // loss over forces/stress can update the weights -- the second-order pass
  // whose cost and memory the decoupled heads eliminate.
  Tensor natoms_t = Tensor::empty({b.num_structs, 1});
  for (index_t s = 0; s < b.num_structs; ++s) {
    natoms_t.data()[s] =
        static_cast<float>(b.natoms[static_cast<std::size_t>(s)]);
  }
  Var e_sum = sum_all(mul(outp.energy_per_atom, constant(std::move(natoms_t))));
  std::vector<Var> wrt = {geo.pos};
  wrt.insert(wrt.end(), geo.strains.begin(), geo.strains.end());
  const bool create_graph = (mode == ForwardMode::kTrain);
  std::vector<Var> grads = ag::grad(e_sum, wrt, Var(), create_graph);

  outp.forces = grads[0].defined()
                    ? neg(grads[0])
                    : constant(Tensor::zeros({b.num_atoms, 3}));
  std::vector<Var> stress_rows;
  stress_rows.reserve(static_cast<std::size_t>(b.num_structs));
  for (index_t s = 0; s < b.num_structs; ++s) {
    const Var& g = grads[static_cast<std::size_t>(1 + s)];
    if (g.defined()) {
      stress_rows.push_back(mul_scalar(
          reshape(g, {1, 9}),
          1.0f / static_cast<float>(b.volumes[static_cast<std::size_t>(s)])));
    } else {
      stress_rows.push_back(constant(Tensor::zeros({1, 9})));
    }
  }
  outp.stress = cat(stress_rows, 0);
  return outp;
}

void CHGNet::set_atom_ref(const std::vector<float>& e0) {
  FASTCHG_CHECK(static_cast<index_t>(e0.size()) == cfg_.num_species + 1,
                "set_atom_ref: " << e0.size() << " entries for "
                                 << cfg_.num_species << " species");
  atom_ref_ = Tensor::from_vector(e0, {cfg_.num_species + 1, 1});
}

std::unique_ptr<CHGNet> make_fastchgnet(std::uint64_t seed) {
  return std::make_unique<CHGNet>(ModelConfig::fast(), seed);
}

std::unique_ptr<CHGNet> make_reference_chgnet(std::uint64_t seed) {
  return std::make_unique<CHGNet>(ModelConfig::reference(), seed);
}

}  // namespace fastchg::model
