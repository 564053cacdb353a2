#ifndef GRAPHAUG_CORE_MIXHOP_ENCODER_H_
#define GRAPHAUG_CORE_MIXHOP_ENCODER_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/layers.h"

namespace graphaug {

/// Parameterization of the per-hop mixing in the mixhop encoder.
enum class MixhopMode {
  /// Full per-hop d×d transforms W_m plus a concat+project combine — the
  /// literal Eq. 12 form. Expressive but parameter-heavy; prone to
  /// underperforming on sparse graphs.
  kMatrixTransform,
  /// Per-hop learnable d-dim gate vectors w_m summed across hops:
  ///   H^{(l+1)} = δ( Σ_{m∈M} (Ã^m H^{(l)}) ⊙ w_m^{(l)} )
  /// — the "learnable weight vector" combination the paper describes.
  /// Initialised at uniform 1/|M| it starts as LightGCN-like smoothing
  /// and learns where to relax it. Default.
  kVectorGate,
};

/// Graph Mixhop encoder (paper §III-C, Eqs. 11-13). Each layer mixes
/// multi-hop propagated embeddings Ã^m H for m in the hop set M (default
/// {0, 1, 2}); Ã^m is applied as repeated SpMM and never materialized
/// (the paper's memory argument). Mixing 0/1/2-hop signals relaxes
/// embedding smoothing and counters GNN over-smoothing; the final output
/// averages all layer embeddings.
class MixhopEncoder {
 public:
  /// `hops` must contain non-negative hop counts (0 = identity).
  MixhopEncoder(ParamStore* store, const std::string& name, int dim,
                int num_layers, std::vector<int> hops, float leaky_slope,
                Rng* rng, MixhopMode mode = MixhopMode::kVectorGate,
                bool activation = true);

  /// Encodes over a constant adjacency.
  Var Encode(Tape* tape, const CsrMatrix* adj, Var base) const;

  /// Encodes over a differentiable edge-weighted adjacency (the sampled
  /// augmented graphs G', G'' of Eq. 5).
  Var EncodeWeighted(Tape* tape, const NormalizedAdjacency* adj, Var edge_w,
                     Var base) const;

  int num_layers() const { return num_layers_; }
  const std::vector<int>& hops() const { return hops_; }
  MixhopMode mode() const { return mode_; }

 private:
  /// `propagate(h)` applies one adjacency multiplication.
  Var EncodeImpl(Tape* tape, const std::function<Var(Var)>& propagate,
                 Var base) const;

  int dim_;
  int num_layers_;
  std::vector<int> hops_;
  float leaky_slope_;
  MixhopMode mode_;
  bool activation_;
  std::vector<std::vector<Linear>> hop_transforms_;  // [layer][hop] (matrix)
  std::vector<Linear> combine_;                      // [layer] (matrix)
  std::vector<std::vector<Parameter*>> hop_gates_;   // [layer][hop] (vector)
};

}  // namespace graphaug

#endif  // GRAPHAUG_CORE_MIXHOP_ENCODER_H_
