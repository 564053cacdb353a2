#ifndef GRAPHAUG_AUGMENT_LIGHTGCL_AUGMENTER_H_
#define GRAPHAUG_AUGMENT_LIGHTGCL_AUGMENTER_H_

#include "augment/augmenter.h"
#include "augment/svd.h"

namespace graphaug {

/// LightGCL-style SVD-guided augmentation: Init factorizes the normalized
/// adjacency once with the randomized truncated SVD; Augment propagates the
/// embedding table through the low-rank reconstruction
///   h_{l+1} = U diag(s) Vᵀ h_l
/// and returns the layer-mean as a fully-encoded first view. The second
/// view is the host's own observed-graph encoding — LightGCL contrasts
/// the main channel against the SVD channel rather than two corrupted
/// graphs. U, s, V enter the tape as constants; gradients flow through
/// the dense embedding operand only.
class LightGclAugmenter : public GraphAugmenter {
 public:
  explicit LightGclAugmenter(const LightGclAugmentorConfig& config)
      : config_(config) {}

  std::string name() const override { return "lightgcl"; }

  void Init(const AugmenterInit& init) override;
  AugmentedViews Augment(const AugmenterState& state) override;

 private:
  LightGclAugmentorConfig config_;
  int num_layers_ = 0;
  SvdResult svd_;
  Matrix s_col_;  ///< singular values as a (q x 1) column for broadcasts
};

}  // namespace graphaug

#endif  // GRAPHAUG_AUGMENT_LIGHTGCL_AUGMENTER_H_
