#include "augment/edge_scorer.h"

#include "tensor/init.h"

namespace graphaug {

EdgeScorer::EdgeScorer(ParamStore* store, const std::string& name, int dim,
                       Rng* rng, float noise_stddev)
    : dim_(dim),
      noise_stddev_(noise_stddev),
      user_mask_(store->Create(name + ".user_mask", 1, dim)),
      item_mask_(store->Create(name + ".item_mask", 1, dim)),
      fc0_weight_(store->CreateXavier(name + ".mlp.fc0.weight", 2 * dim, dim,
                                      rng)),
      fc0_bias_(store->Create(name + ".mlp.fc0.bias", 1, dim)),
      fc1_weight_(store->CreateXavier(name + ".mlp.fc1.weight", dim, 1, rng)),
      fc1_bias_(store->Create(name + ".mlp.fc1.bias", 1, 1)) {
  // Mask logits start at +2 => masks near sigmoid(2) ≈ 0.88: begin close
  // to the identity and learn what to suppress.
  user_mask_->value.Fill(2.f);
  item_mask_->value.Fill(2.f);
  // Optimistic initialization of the retention probability: the final MLP
  // bias starts positive so p((u,v)) ≈ 0.82 and early training sees
  // near-complete graphs; the scorer then learns what to *remove*.
  fc1_bias_->value.Fill(1.5f);
}

Var EdgeScorer::Score(Tape* tape, Var node_embeddings,
                      const std::vector<Edge>& edges, int32_t item_offset,
                      Rng* rng) const {
  std::vector<int32_t> user_rows(edges.size());
  std::vector<int32_t> item_rows(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    user_rows[e] = edges[e].user;
    item_rows[e] = item_offset + edges[e].item;
  }
  Var hu = ag::GatherRows(node_embeddings, std::move(user_rows));
  Var hv = ag::GatherRows(node_embeddings, std::move(item_rows));

  // h̃ = (h - ε) ⊙ m + ε  ==  h ⊙ m + ε ⊙ (1 - m).
  auto disturb = [&](Var h, Parameter* mask_param) {
    Var m = ag::Sigmoid(ag::Leaf(tape, mask_param));
    if (rng == nullptr || noise_stddev_ <= 0.f) {
      return ag::MulRowBroadcast(h, m);
    }
    // One key per side and call; the noise itself is counter-based, so
    // the draw parallelizes and never depends on the thread count.
    Matrix eps = Matrix::Uninit(h.rows(), h.cols());
    FillNormal(&eps, rng->NextU64(), 0.f, noise_stddev_);
    return ag::MaskedNoiseMix(h, m, std::move(eps));
  };
  Var tu = disturb(hu, user_mask_);
  Var tv = disturb(hv, item_mask_);
  Var logits = ag::PairMlp(tu, tv, ag::Leaf(tape, fc0_weight_),
                           ag::Leaf(tape, fc0_bias_),
                           ag::Leaf(tape, fc1_weight_),
                           ag::Leaf(tape, fc1_bias_), /*slope=*/0.5f);
  return ag::Sigmoid(logits);
}

}  // namespace graphaug
