#ifndef GRAPHAUG_AUGMENT_EDGE_SCORER_H_
#define GRAPHAUG_AUGMENT_EDGE_SCORER_H_

#include <vector>

#include "autograd/ops.h"
#include "graph/bipartite_graph.h"

namespace graphaug {

/// Learnable graph augmentor Aug(G) of paper Eq. 4: estimates the
/// probability of each observed interaction surviving into the augmented
/// graph,
///   p((u,v) | H̄) = σ( MLP( h̃_u ‖ h̃_v ) ),
///   h̃ = (h̄ − ε) ⊙ m + ε,  ε ~ N(0, σ²I),
/// where m is a learnable (sigmoid-gated) feature mask for the user/item
/// sides and ε adaptively injects noise so the scorer distills robust
/// features rather than memorizing coordinates.
class EdgeScorer {
 public:
  EdgeScorer(ParamStore* store, const std::string& name, int dim, Rng* rng,
             float noise_stddev = 0.1f);

  /// Scores the given interactions from encoded node embeddings
  /// ((I+J) x d, users first). Returns an (E x 1) vector of probabilities
  /// in (0, 1). `rng` supplies one key per side and call for the ε noise
  /// (FillNormal); pass nullptr for the deterministic (noise-free)
  /// inference mode used by the case study.
  Var Score(Tape* tape, Var node_embeddings, const std::vector<Edge>& edges,
            int32_t item_offset, Rng* rng) const;

 private:
  int dim_;
  float noise_stddev_;
  Parameter* user_mask_;  ///< 1 x d mask logits (m_u = sigmoid)
  Parameter* item_mask_;  ///< 1 x d mask logits (m_v = sigmoid)
  // The [2d -> d -> 1] MLP, under the names an nn::Mlp would give it
  // (<name>.mlp.fc0.weight, ...). fc0.weight's top d rows act on h̃_u and
  // its bottom d rows on h̃_v.
  Parameter* fc0_weight_;  ///< 2d x d
  Parameter* fc0_bias_;    ///< 1 x d
  Parameter* fc1_weight_;  ///< d x 1
  Parameter* fc1_bias_;    ///< 1 x 1
};

}  // namespace graphaug

#endif  // GRAPHAUG_AUGMENT_EDGE_SCORER_H_
