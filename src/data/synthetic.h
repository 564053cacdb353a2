#ifndef GRAPHAUG_DATA_SYNTHETIC_H_
#define GRAPHAUG_DATA_SYNTHETIC_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "tensor/matrix.h"

namespace graphaug {

/// Configuration for the latent-factor synthetic dataset generator. The
/// generator substitutes for the paper's Gowalla / Retail Rocket / Amazon
/// dumps (see DESIGN.md §4): it produces implicit-feedback graphs with
/// (a) clustered latent preferences (users and items belong to soft
/// communities, giving ground-truth "categories" for the Fig. 6 case
/// study), (b) power-law item popularity and user activity (long-tail
/// skew, Table V), and (c) a controllable fraction of
/// preference-inconsistent "noise" interactions (misclicks, Fig. 3/6).
struct SyntheticConfig {
  std::string name = "synthetic";
  int32_t num_users = 1000;
  int32_t num_items = 1000;
  /// Mean interactions per user; individual degrees follow a truncated
  /// Pareto with this mean and exponent `degree_exponent`.
  double mean_user_degree = 20.0;
  /// Pareto tail exponent for user activity (smaller => heavier tail).
  double degree_exponent = 1.8;
  /// Zipf exponent for item popularity.
  double popularity_exponent = 0.9;
  /// Number of latent communities.
  int num_communities = 8;
  /// Latent dimensionality of the preference model.
  int latent_dim = 16;
  /// Within-community factor noise (larger => fuzzier communities).
  double factor_noise = 0.45;
  /// Fraction of interactions drawn ignoring preference (pure noise).
  double noise_fraction = 0.10;
  /// Preference sharpness when sampling items for a user (softmax temp⁻¹).
  double preference_sharpness = 3.0;
  /// Fraction of each user's aligned interactions held out for testing.
  double test_fraction = 0.2;
  uint64_t seed = 42;
};

/// Output of the generator: the dataset plus the generative ground truth
/// (latent factors and community labels), which the case-study experiment
/// uses to verify that GraphAug recovers implicit item dependencies.
struct SyntheticData {
  Dataset dataset;
  Matrix user_factors;              ///< I x latent_dim
  Matrix item_factors;              ///< J x latent_dim
  std::vector<int32_t> user_community;
  std::vector<int32_t> item_community;
};

/// Generates a dataset from the config. Deterministic given config.seed.
SyntheticData GenerateSynthetic(const SyntheticConfig& config);

/// Named presets mirroring the paper's three benchmarks at laptop scale
/// ("gowalla-sim", "retailrocket-sim", "amazon-sim"); density ordering and
/// skew match Table I qualitatively. Aborts on names not in PresetNames().
SyntheticConfig PresetConfig(const std::string& preset_name);

/// Every name PresetConfig accepts: the three benchmarks plus "tiny".
std::vector<std::string> PresetNames();

/// Convenience: generate a preset by name with an optional seed override.
SyntheticData GeneratePreset(const std::string& preset_name,
                             uint64_t seed = 0);

}  // namespace graphaug

#endif  // GRAPHAUG_DATA_SYNTHETIC_H_
