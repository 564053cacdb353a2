#include "augment/lightgcl_augmenter.h"

namespace graphaug {

void LightGclAugmenter::Init(const AugmenterInit& init) {
  num_layers_ = init.num_layers;
  svd_ = RandomizedSvd(init.adj->matrix, config_.rank,
                       config_.power_iterations, config_.oversample, init.rng);
  const int64_t q = static_cast<int64_t>(svd_.s.size());
  s_col_ = Matrix(q, 1);
  for (int64_t j = 0; j < q; ++j) s_col_[j] = svd_.s[static_cast<size_t>(j)];
}

AugmentedViews LightGclAugmenter::Augment(const AugmenterState& state) {
  Tape* tape = state.tape;
  Var u = ag::Constant(tape, svd_.u);
  Var v = ag::Constant(tape, svd_.v);
  Var s = ag::Constant(tape, s_col_);

  // Low-rank LightGCN propagation: mean over layers 0..L of
  // h_{l+1} = U diag(s) Vᵀ h_l, mirroring LightGcnPropagate's layer mean.
  Var h = state.base;
  Var acc = state.base;
  for (int l = 0; l < num_layers_; ++l) {
    Var t = ag::MatMul(v, h, /*trans_a=*/true);  // q x d
    t = ag::MulColBroadcast(t, s);
    h = ag::MatMul(u, t);  // (I+J) x d
    acc = ag::Add(acc, h);
  }
  Var z = ag::Scale(acc, 1.f / static_cast<float>(num_layers_ + 1));

  AugmentedViews views;
  views.first.embeddings = z;
  // LightGCL contrasts the SVD channel against the main channel itself.
  views.second.embeddings = state.h_bar;
  return views;
}

}  // namespace graphaug
