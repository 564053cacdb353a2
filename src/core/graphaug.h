#ifndef GRAPHAUG_CORE_GRAPHAUG_H_
#define GRAPHAUG_CORE_GRAPHAUG_H_

#include <memory>
#include <vector>

#include "augment/augmenter.h"
#include "core/mixhop_encoder.h"
#include "models/propagation.h"
#include "models/recommender.h"

namespace graphaug {

/// Full configuration of the GraphAug model (paper Eq. 16 / Alg. 1).
/// The ablation switches reproduce the Fig. 2 variants. Strategy-specific
/// knobs (GIB weights, dropout rates, SVD rank, ...) live in the nested
/// `augmentor` config — see augment/augmenter.h for the per-strategy
/// structs; `augmentor.name` selects the strategy ("gib" reproduces the
/// paper).
struct GraphAugConfig : ModelConfig {
  std::vector<int> hops = {0, 1, 2};  ///< mixhop set M
  /// Self-loop weight of Ã. The paper's Eq. 11 uses Ã = D^{-1/2}(A+I)D^{-1/2};
  /// with the hop-0 term already carrying the identity signal, a
  /// self-loop-free Ã (0.0) avoids double-counting self information and
  /// propagates further on sparse graphs.
  float self_loop_weight = 0.0f;
  /// Pluggable augmentation strategy plus its per-strategy knobs.
  AugmentorConfig augmentor;
  /// Weight of L_CL in Eq. 16 (multiplies the shared ssl_weight). Tuned
  /// on the simulated benchmarks: denoised views are already well aligned,
  /// so a lighter contrastive pull than SGL-style baselines works best.
  float beta2 = 0.2f;
  /// Per-hop mixing parameterization (see MixhopMode). kVectorGate (the
  /// paper's "learnable weight vector" combination) is the default; the
  /// matrix-transform form of Eq. 12 is available for the ablation bench.
  MixhopMode mixhop_mode = MixhopMode::kVectorGate;
  bool mixhop_activation = true;      ///< apply δ (LeakyReLU) per layer
  bool use_mixhop = true;   ///< false => standard-GCN encoder ("w/o Mixhop")
  /// Unbiased-SSL extension (paper §VI future work): when > 0, the BPR and
  /// GIB prediction terms are inverse-propensity weighted with popularity
  /// propensities ρ_v ∝ deg_v^γ so long-tail items receive fair gradient
  /// mass. 0 disables (paper-faithful default).
  float ips_gamma = 0.f;
  bool use_gib = true;      ///< false => drop L_GIB ("w/o GIB")
  bool use_cl = true;       ///< false => drop L_CL; GIB regularizes BPR ("w/o CL")
};

/// GraphAug: GIB-regularized denoised graph augmentation with mixhop
/// graph contrastive learning (ICDE 2024). One training step implements
/// Alg. 1:
///  1. encode the observed graph with the mixhop encoder → H̄;
///  2. the configured GraphAugmenter produces two augmented views
///     (for "gib": Eq. 4 scoring + Eq. 5 concrete sampling);
///  3. encode both views → Z', Z'' (Eq. 11);
///  4. augmentor auxiliary loss (for "gib": the variational GIB
///     prediction + KL compression bounds, Eq. 9-10);
///  5. InfoNCE contrast between Z' and Z'' on users and items (Eq. 14);
///  6. BPR on H̄ (Eq. 15); joint objective Eq. 16.
class GraphAug : public Recommender {
 public:
  GraphAug(const Dataset* dataset, const GraphAugConfig& config);

  std::string name() const override { return "GraphAug"; }

  const GraphAugConfig& graphaug_config() const { return gconfig_; }

  /// The active augmentation strategy.
  const GraphAugmenter& augmenter() const { return *augmenter_; }

  /// Learned retention probability p((u,v)|H̄) for every training
  /// interaction, in graph-edge order (noise-free scorer pass). The case
  /// study (Fig. 6) checks that generator-injected noise edges receive
  /// lower probabilities. Aborts when the configured augmentor has no
  /// notion of edge scores (only "gib" does today).
  std::vector<float> EdgeProbabilities();

 protected:
  Var BuildLoss(Tape* tape, const TripletBatch& batch) override;
  void ComputeEmbeddings(Matrix* user_emb, Matrix* item_emb) override;
  void OnEpochBegin() override;

 private:
  /// Encodes with the configured encoder over a constant adjacency.
  Var EncodeBase(Tape* tape, Var base);
  /// Encodes over an edge-weighted (sampled) adjacency.
  Var EncodeView(Tape* tape, Var edge_weights, Var base);
  /// Encodes one augmented view, whatever its shape: already-encoded
  /// embeddings pass through, structural views run the base encoder over
  /// the replacement adjacency, edge-weight views run EncodeView.
  Var EncodeAugmented(Tape* tape, const AugmentedView& view, Var base);

  GraphAugConfig gconfig_;
  NormalizedAdjacency adj_;  ///< Ã with self-loops over I+J nodes
  Parameter* embeddings_;
  std::unique_ptr<MixhopEncoder> mixhop_;
  std::vector<Linear> gcn_layers_;  ///< "w/o Mixhop" standard-GCN ablation
  std::unique_ptr<GraphAugmenter> augmenter_;
  Matrix propensities_;  ///< lazily built when ips_gamma > 0
  int epoch_ = 0;
};

}  // namespace graphaug

#endif  // GRAPHAUG_CORE_GRAPHAUG_H_
