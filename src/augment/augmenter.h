#ifndef GRAPHAUG_AUGMENT_AUGMENTER_H_
#define GRAPHAUG_AUGMENT_AUGMENTER_H_

#include <string>

#include "autograd/ops.h"
#include "common/rng.h"
#include "data/sampler.h"
#include "graph/bipartite_graph.h"

namespace graphaug {

/// Per-strategy configuration structs. Each augmentor owns its knobs here
/// instead of spreading them across the host model's config; the host only
/// carries an AugmentorConfig and forwards the struct matching the selected
/// strategy.

/// GraphAug's learnable GIB augmentor (paper Eqs. 4-10): edge-scorer MLP,
/// concrete reparameterized sampling, and the variational GIB bounds.
struct GibAugmentorConfig {
  float concrete_temperature = 0.2f;  ///< τ₁ in Eq. 5
  float edge_threshold = 0.2f;        ///< ξ (augmentation strength, Tab. IV)
  float gib_beta = 1.f;               ///< β inside L_GIB (Eq. 2)
  float beta1 = 1e-5f;                ///< weight of the GIB KL bound (Eq. 16)
  /// Weight of the GIB prediction bound −log q(Y|Z'). Kept at O(1) rather
  /// than folded under β₁: the prediction bound is what anchors the
  /// learnable augmentor to the recommendation labels — without it the
  /// contrastive term alone is minimized by degenerate all-dropped views.
  float gib_pred_weight = 0.5f;
  /// Prior retention probability π and weight of the structure-level
  /// Bernoulli-KL compression bound KL(Bern(p_e) ‖ Bern(π)). Off by
  /// default (see GraphAugConfig history: it rescales probabilities toward
  /// π without improving noise discrimination on the simulated benchmarks).
  float structure_prior = 0.7f;
  float structure_kl_weight = 0.0f;
  float scorer_noise = 0.1f;  ///< ε std-dev in Eq. 4
  /// When false the augmentor still produces the two sampled views but
  /// returns no auxiliary loss ("w/o GIB" ablation).
  bool gib_loss = true;
};

/// SGL-style stochastic edge dropout: two independently corrupted graphs
/// resampled at every epoch boundary (Adapt), encoded as full structural
/// views.
struct EdgeDropAugmentorConfig {
  float drop_prob = 0.1f;       ///< per-edge drop probability, per view
  float self_loop_weight = 0.f; ///< Ã self-loop weight of the view graphs
};

/// AdvCL-style adversarial augmentation (arXiv 2302.02317): one FGSM-style
/// gradient-ascent step on per-edge weights against the contrastive loss
/// yields the hard view; the second view is a small random weight
/// perturbation.
struct AdvClAugmentorConfig {
  float epsilon = 0.05f;      ///< adversarial step size on edge weights
  float noise_scale = 0.05f;  ///< uniform weight noise of the benign view
  int contrast_nodes = 128;   ///< node batch of the inner contrastive loss
  float temperature = 0.2f;   ///< InfoNCE τ of the inner loss
};

/// AutoCF-style masked-autoencoder augmentation (arXiv 2303.07797): two
/// complementary random edge masks drawn per epoch; the auxiliary loss
/// asks each view's embeddings to reconstruct (rank) its own masked-out
/// edges against random negatives.
struct AutoCfAugmentorConfig {
  float mask_ratio = 0.1f;   ///< fraction of edges masked per view
  float recon_weight = 0.1f; ///< weight of the reconstruction loss
};

/// LightGCL-style SVD-guided augmentation (arXiv 2205.00976 lineage): a
/// randomized truncated SVD of the normalized adjacency computed once at
/// Init; the augmented view propagates embeddings through the low-rank
/// reconstruction U S Vᵀ instead of the observed graph.
struct LightGclAugmentorConfig {
  int rank = 8;             ///< retained singular triplets q
  int power_iterations = 3; ///< subspace power iterations
  int oversample = 4;       ///< extra random probes beyond rank
};

/// Strategy selector plus every per-strategy struct. Only the struct
/// matching `name` is read; keeping them all by value keeps the config
/// trivially copyable and slicing-safe.
struct AugmentorConfig {
  std::string name = "gib";  ///< gib | edgedrop | advcl | autocf | lightgcl
  GibAugmentorConfig gib;
  EdgeDropAugmentorConfig edgedrop;
  AdvClAugmentorConfig advcl;
  AutoCfAugmentorConfig autocf;
  LightGclAugmentorConfig lightgcl;
};

/// Everything an augmentor may bind to at setup time. All pointers are
/// non-owning and must outlive the augmentor; `rng` is the host model's
/// generator, valid only for the duration of Init (draws made here are
/// part of the model's deterministic construction stream).
struct AugmenterInit {
  const BipartiteGraph* graph = nullptr;
  const NormalizedAdjacency* adj = nullptr;
  ParamStore* store = nullptr;  ///< host parameter store (trainable state)
  int dim = 0;
  int num_layers = 0;
  Rng* rng = nullptr;
};

/// One augmented view, in exactly one of three shapes (checked in this
/// order by hosts):
///  - `embeddings` valid: the view is already encoded ((I+J) x d on the
///    host tape) — e.g. LightGCL's low-rank propagation;
///  - `adjacency` set: a structural replacement graph the host encodes
///    with its own encoder — e.g. edge dropout;
///  - `edge_weights` valid: differentiable (E x 1) weights over the host
///    adjacency's interactions, consumable by ag::EdgeWeightedSpmm.
struct AugmentedView {
  Var edge_weights;
  const NormalizedAdjacency* adjacency = nullptr;
  Var embeddings;
};

/// The two contrastive views G' and G'' of one training step.
struct AugmentedViews {
  AugmentedView first;
  AugmentedView second;
};

/// Per-batch host state handed to Augment/AuxLoss. All members live on the
/// host side; `rng` is the model generator whose draw order defines the
/// bitwise-reproducibility contract.
struct AugmenterState {
  Tape* tape = nullptr;
  Var base;    ///< embedding-table leaf
  Var h_bar;   ///< encoder output on the observed graph
  const TripletBatch* batch = nullptr;
  Rng* rng = nullptr;
};

/// Interface of the pluggable augmentation family (shape follows the
/// Init/Augment/Adapt contract of graph-augmentation libraries). Lifecycle:
/// Init once after the host built its graph state, Adapt at each epoch
/// boundary, Augment once per training batch. Both views are produced by a
/// single Augment call because strategies may share per-batch state across
/// the views (GIB scores the edges once and samples twice); splitting the
/// call would change the RNG draw order and break the determinism
/// contract.
///
/// Determinism: given a fixed seed and thread count-independent kernels,
/// every implementation must consume `rng` in a platform-independent order
/// so training embeddings reproduce bitwise at any thread count.
class GraphAugmenter {
 public:
  virtual ~GraphAugmenter() = default;

  /// Registry name of the strategy ("gib", "edgedrop", ...).
  virtual std::string name() const = 0;

  /// Binds graph/encoder state and creates trainable parameters (if any)
  /// in the host store. Called exactly once, before any Augment.
  virtual void Init(const AugmenterInit& init) = 0;

  /// Per-epoch adaptation hook (resample corrupted graphs, redraw masks).
  /// Default: stateless no-op that draws nothing from `rng`.
  virtual void Adapt(int epoch, Rng* rng) {
    (void)epoch;
    (void)rng;
  }

  /// Produces the two augmented views for the current batch.
  virtual AugmentedViews Augment(const AugmenterState& state) = 0;

  /// Optional auxiliary objective (GIB bounds, masked-edge reconstruction)
  /// over the encoded views. Returns an invalid Var when the strategy has
  /// none; hosts add the returned scalar to their loss unchanged — any
  /// weighting is the augmentor's own business.
  virtual Var AuxLoss(const AugmenterState& state, Var z_prime,
                      Var z_dprime) {
    (void)state;
    (void)z_prime;
    (void)z_dprime;
    return Var();
  }

  /// Whether EdgeScores returns a valid Var. Lets hosts reject
  /// score-dependent workflows (denoising) up front instead of after a
  /// forward pass.
  virtual bool has_edge_scores() const { return false; }

  /// Per-interaction retention scores in graph-edge order (noise-free),
  /// for strategies that learn one ((E x 1) on `tape`). Invalid Var when
  /// the strategy has no notion of edge scores (`has_edge_scores()`).
  virtual Var EdgeScores(Tape* tape, Var h_bar) {
    (void)tape;
    (void)h_bar;
    return Var();
  }
};

}  // namespace graphaug

#endif  // GRAPHAUG_AUGMENT_AUGMENTER_H_
