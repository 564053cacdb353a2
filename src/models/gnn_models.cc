#include "models/gnn_models.h"

#include <algorithm>

#include "graph/corruption.h"
#include "tensor/ops.h"

namespace graphaug {

const char* GnnStyleName(GnnStyle style) {
  switch (style) {
    case GnnStyle::kGcmc:
      return "GCMC";
    case GnnStyle::kPinSage:
      return "PinSage";
    case GnnStyle::kNgcf:
      return "NGCF";
    case GnnStyle::kLightGcn:
      return "LightGCN";
    case GnnStyle::kGccf:
      return "GCCF";
  }
  return "GNN";
}

GnnRecommender::GnnRecommender(const Dataset* dataset,
                               const ModelConfig& config, GnnStyle style)
    : Recommender(dataset, config), style_(style) {
  // LightGCN propagates without self-loops, the transform styles with.
  adj_ = graph_.BuildNormalizedAdjacency(
      style == GnnStyle::kLightGcn ? 0.f : 1.f);
  embeddings_ = store_.CreateNormal("embeddings", graph_.num_nodes(),
                                    config.dim, &rng_);
  const int layers =
      style == GnnStyle::kGcmc ? 1 : std::max(1, config.num_layers);
  const bool needs_w = style == GnnStyle::kGcmc ||
                       style == GnnStyle::kPinSage ||
                       style == GnnStyle::kNgcf || style == GnnStyle::kGccf;
  if (needs_w) {
    for (int l = 0; l < layers; ++l) {
      w1_.emplace_back(&store_, "w1." + std::to_string(l), config.dim,
                       config.dim, &rng_, /*bias=*/false);
      if (style == GnnStyle::kNgcf) {
        w2_.emplace_back(&store_, "w2." + std::to_string(l), config.dim,
                         config.dim, &rng_, /*bias=*/false);
      }
    }
  }
}

void GnnRecommender::OnEpochBegin() {
  if (style_ == GnnStyle::kPinSage) {
    // Resample the neighborhood graph: dropping edges approximates
    // PinSage's random-walk neighbor sampling at this scale.
    epoch_graph_ = DropEdges(graph_, 0.5, rng_);
    epoch_adj_ = epoch_graph_.BuildNormalizedAdjacency(1.f);
  }
}

Var GnnRecommender::Encode(Tape* tape, bool train_mode) {
  Var e = ag::Leaf(tape, embeddings_);
  switch (style_) {
    case GnnStyle::kLightGcn:
      return LightGcnPropagate(tape, &adj_.matrix, e, config_.num_layers);
    case GnnStyle::kGcmc: {
      Var h = ag::Spmm(&adj_.matrix, e);
      h = w1_[0].Forward(tape, h);
      return ag::LeakyRelu(h, config_.leaky_slope);
    }
    case GnnStyle::kPinSage: {
      const CsrMatrix* a = train_mode && epoch_adj_.matrix.nnz() > 0
                               ? &epoch_adj_.matrix
                               : &adj_.matrix;
      Var h = e;
      for (size_t l = 0; l < w1_.size(); ++l) {
        h = ag::Relu(w1_[l].Forward(tape, ag::Spmm(a, h)));
      }
      return h;
    }
    case GnnStyle::kNgcf: {
      Var h = e;
      Var sum = e;
      for (size_t l = 0; l < w1_.size(); ++l) {
        Var agg = ag::Spmm(&adj_.matrix, h);
        Var affine = w1_[l].Forward(tape, agg);
        Var interact = w2_[l].Forward(tape, ag::Mul(agg, h));
        h = ag::LeakyRelu(ag::Add(affine, interact), config_.leaky_slope);
        if (config_.dropout > 0 && train_mode) {
          h = ag::Dropout(h, config_.dropout, &rng_);
        }
        sum = ag::Add(sum, h);
      }
      return ag::Scale(sum, 1.f / static_cast<float>(w1_.size() + 1));
    }
    case GnnStyle::kGccf: {
      Var h = e;
      Var sum = e;
      for (size_t l = 0; l < w1_.size(); ++l) {
        // Linear residual propagation: h <- Ã h W + h.
        h = ag::Add(w1_[l].Forward(tape, ag::Spmm(&adj_.matrix, h)), h);
        sum = ag::Add(sum, h);
      }
      return ag::Scale(sum, 1.f / static_cast<float>(w1_.size() + 1));
    }
  }
  return e;
}

Var GnnRecommender::BuildLoss(Tape* tape, const TripletBatch& batch) {
  Var all = Encode(tape, /*train_mode=*/true);
  Var u = ag::GatherRows(all, batch.users);
  Var p = ag::GatherRows(all, ToNodeIds(batch.pos_items));
  Var n = ag::GatherRows(all, ToNodeIds(batch.neg_items));
  return ag::BprLoss(ag::RowDot(u, p), ag::RowDot(u, n));
}

void GnnRecommender::ComputeEmbeddings(Matrix* user_emb, Matrix* item_emb) {
  Tape tape;
  Var all = Encode(&tape, /*train_mode=*/false);
  const Matrix& m = all.value();
  *user_emb = SliceRows(m, 0, graph_.num_users());
  *item_emb = SliceRows(m, graph_.num_users(), graph_.num_items());
}

}  // namespace graphaug
