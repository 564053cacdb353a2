#ifndef GRAPHAUG_MODELS_GNN_MODELS_H_
#define GRAPHAUG_MODELS_GNN_MODELS_H_

#include "models/propagation.h"
#include "models/recommender.h"
#include "nn/layers.h"

namespace graphaug {

/// Message-passing architectures of the GNN-CF baseline family. One
/// configurable class covers the five paper baselines that differ only in
/// their propagation rule:
///  - kGcmc     (Berg et al.):   1 transformed + activated GCN layer
///  - kPinSage  (Ying et al.):   sampled-neighborhood aggregation with
///                               transforms and ReLU (edge dropout
///                               resampled each epoch approximates the
///                               production neighbor sampler)
///  - kNgcf     (Wang et al.):   transformed propagation with the
///                               elementwise interaction term
///  - kLightGcn (He et al.):     transform-free propagation, mean of layers
///  - kGccf     (Chen et al.):   linear residual propagation (no
///                               nonlinearity)
enum class GnnStyle { kGcmc, kPinSage, kNgcf, kLightGcn, kGccf };

/// Name string used in result tables.
const char* GnnStyleName(GnnStyle style);

class GnnRecommender : public Recommender {
 public:
  GnnRecommender(const Dataset* dataset, const ModelConfig& config,
                 GnnStyle style);

  std::string name() const override { return GnnStyleName(style_); }

 protected:
  Var BuildLoss(Tape* tape, const TripletBatch& batch) override;
  void ComputeEmbeddings(Matrix* user_emb, Matrix* item_emb) override;
  void OnEpochBegin() override;

  /// Encodes all I+J nodes. `train_mode` enables PinSage's per-epoch
  /// sampled adjacency; inference always uses the full graph.
  Var Encode(Tape* tape, bool train_mode);

 private:
  GnnStyle style_;
  /// Self-loop weight 0 for LightGCN, 1 for the transform styles.
  NormalizedAdjacency adj_;
  NormalizedAdjacency epoch_adj_;  ///< PinSage per-epoch sampled graph
  BipartiteGraph epoch_graph_;
  Parameter* embeddings_;
  std::vector<Linear> w1_;
  std::vector<Linear> w2_;  ///< NGCF interaction transforms
};

}  // namespace graphaug

#endif  // GRAPHAUG_MODELS_GNN_MODELS_H_
