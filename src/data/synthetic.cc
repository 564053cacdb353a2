#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tensor/init.h"

namespace graphaug {
namespace {

/// Draws a truncated-Pareto degree with the requested mean.
int64_t SampleDegree(double mean, double exponent, int64_t max_degree,
                     Rng* rng) {
  // Pareto with xm chosen so that E[X] = mean: E = xm * a / (a - 1).
  const double a = exponent;
  const double xm = mean * (a - 1.0) / a;
  const double u = std::max(1e-12, 1.0 - rng->Uniform());
  const double x = xm / std::pow(u, 1.0 / a);
  return std::max<int64_t>(1, std::min<int64_t>(max_degree,
                                                static_cast<int64_t>(x)));
}

/// Samples an index from unnormalized weights via inverse CDF on a
/// precomputed cumulative array.
int32_t SampleFromCdf(const std::vector<double>& cdf, Rng* rng) {
  const double u = rng->Uniform() * cdf.back();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<int32_t>(std::min<size_t>(
      cdf.size() - 1, static_cast<size_t>(it - cdf.begin())));
}

}  // namespace

SyntheticData GenerateSynthetic(const SyntheticConfig& cfg) {
  GA_CHECK_GT(cfg.num_users, 0);
  GA_CHECK_GT(cfg.num_items, 0);
  GA_CHECK_GT(cfg.num_communities, 0);
  Rng rng(cfg.seed);
  Rng factor_rng = rng.Fork();
  Rng degree_rng = rng.Fork();
  Rng choice_rng = rng.Fork();
  Rng split_rng = rng.Fork();

  SyntheticData out;
  out.dataset.name = cfg.name;
  out.dataset.num_users = cfg.num_users;
  out.dataset.num_items = cfg.num_items;

  // Community centers in latent space.
  Matrix centers(cfg.num_communities, cfg.latent_dim);
  InitNormal(&centers, &factor_rng, 0.f, 1.f);

  auto assign_factors = [&](int32_t n, Matrix* factors,
                            std::vector<int32_t>* community) {
    *factors = Matrix(n, cfg.latent_dim);
    community->resize(n);
    for (int32_t i = 0; i < n; ++i) {
      const int32_t c =
          static_cast<int32_t>(factor_rng.UniformInt(cfg.num_communities));
      (*community)[i] = c;
      for (int d = 0; d < cfg.latent_dim; ++d) {
        factors->at(i, d) = centers.at(c, d) +
                            static_cast<float>(factor_rng.Gaussian(
                                0.0, cfg.factor_noise));
      }
    }
  };
  assign_factors(cfg.num_users, &out.user_factors, &out.user_community);
  assign_factors(cfg.num_items, &out.item_factors, &out.item_community);

  // Zipf item popularity.
  std::vector<double> popularity(cfg.num_items);
  for (int32_t v = 0; v < cfg.num_items; ++v) {
    popularity[v] = 1.0 / std::pow(static_cast<double>(v + 1),
                                   cfg.popularity_exponent);
  }
  // Shuffle popularity so popular items are spread across communities.
  for (size_t i = popularity.size(); i > 1; --i) {
    std::swap(popularity[i - 1], popularity[choice_rng.UniformInt(i)]);
  }

  // Per-user interaction sampling: mixture of preference-aligned draws
  // (softmax over affinity * popularity) and uniform noise draws.
  std::vector<Edge> aligned_edges;
  std::vector<Edge> noise_edges;
  const int64_t max_deg = std::max<int64_t>(2, cfg.num_items / 2);
  for (int32_t u = 0; u < cfg.num_users; ++u) {
    const int64_t deg =
        SampleDegree(cfg.mean_user_degree, cfg.degree_exponent, max_deg,
                     &degree_rng);
    // Preference weights over items for this user.
    std::vector<double> cdf(cfg.num_items);
    double acc = 0;
    for (int32_t v = 0; v < cfg.num_items; ++v) {
      double affinity = 0;
      for (int d = 0; d < cfg.latent_dim; ++d) {
        affinity += static_cast<double>(out.user_factors.at(u, d)) *
                    out.item_factors.at(v, d);
      }
      // Normalize affinity scale by latent_dim before sharpening.
      affinity /= std::sqrt(static_cast<double>(cfg.latent_dim));
      acc += popularity[v] * std::exp(cfg.preference_sharpness *
                                      std::tanh(affinity));
      cdf[v] = acc;
    }
    std::unordered_set<int32_t> seen;
    int64_t guard = 0;
    while (static_cast<int64_t>(seen.size()) < deg && guard++ < deg * 60) {
      const bool is_noise = choice_rng.Bernoulli(cfg.noise_fraction);
      const int32_t v =
          is_noise
              ? static_cast<int32_t>(choice_rng.UniformInt(cfg.num_items))
              : SampleFromCdf(cdf, &choice_rng);
      if (!seen.insert(v).second) continue;
      if (is_noise) {
        noise_edges.push_back({u, v});
      } else {
        aligned_edges.push_back({u, v});
      }
    }
  }

  // Split only the aligned edges into train/test: the held-out signal
  // reflects true preference, while noise edges always stay in training
  // (they are the pollution models must be robust to).
  std::vector<Edge> train_aligned, test;
  SplitLeaveOut(aligned_edges, cfg.test_fraction, &split_rng, &train_aligned,
                &test);

  out.dataset.train_edges = train_aligned;
  out.dataset.noise_flags.assign(train_aligned.size(), false);
  for (const Edge& e : noise_edges) {
    out.dataset.train_edges.push_back(e);
    out.dataset.noise_flags.push_back(true);
  }
  out.dataset.test_edges = std::move(test);

  // Keep edge order and noise flags aligned after the dedup/sort inside
  // BipartiteGraph: sort (edge, flag) pairs the same way here.
  std::vector<size_t> order(out.dataset.train_edges.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return out.dataset.train_edges[a] < out.dataset.train_edges[b];
  });
  std::vector<Edge> sorted_edges;
  std::vector<bool> sorted_flags;
  sorted_edges.reserve(order.size());
  for (size_t idx : order) {
    const Edge& e = out.dataset.train_edges[idx];
    if (!sorted_edges.empty() && sorted_edges.back() == e) continue;
    sorted_edges.push_back(e);
    sorted_flags.push_back(out.dataset.noise_flags[idx]);
  }
  out.dataset.train_edges = std::move(sorted_edges);
  out.dataset.noise_flags = std::move(sorted_flags);
  return out;
}

SyntheticConfig PresetConfig(const std::string& preset_name) {
  SyntheticConfig cfg;
  cfg.name = preset_name;
  if (preset_name == "gowalla-sim") {
    // Densest of the three; check-in data has strong popularity skew.
    cfg.num_users = 900;
    cfg.num_items = 1000;
    cfg.mean_user_degree = 24.0;
    cfg.popularity_exponent = 0.95;
    cfg.noise_fraction = 0.08;
    cfg.seed = 41;
  } else if (preset_name == "retailrocket-sim") {
    // Sparsest: browsing data, few interactions per user.
    cfg.num_users = 1000;
    cfg.num_items = 550;
    cfg.mean_user_degree = 7.0;
    cfg.popularity_exponent = 1.05;
    cfg.noise_fraction = 0.12;
    cfg.seed = 42;
  } else if (preset_name == "amazon-sim") {
    // Sparse ratings data with moderate skew.
    cfg.num_users = 1100;
    cfg.num_items = 650;
    cfg.mean_user_degree = 9.0;
    cfg.popularity_exponent = 0.85;
    cfg.noise_fraction = 0.10;
    cfg.seed = 43;
  } else if (preset_name == "tiny") {
    // For unit tests.
    cfg.num_users = 60;
    cfg.num_items = 50;
    cfg.mean_user_degree = 6.0;
    cfg.num_communities = 3;
    cfg.seed = 7;
  } else {
    GA_CHECK(false) << "unknown dataset preset: " << preset_name;
  }
  return cfg;
}

std::vector<std::string> PresetNames() {
  return {"gowalla-sim", "retailrocket-sim", "amazon-sim", "tiny"};
}

SyntheticData GeneratePreset(const std::string& preset_name, uint64_t seed) {
  SyntheticConfig cfg = PresetConfig(preset_name);
  if (seed != 0) cfg.seed = seed;
  return GenerateSynthetic(cfg);
}

}  // namespace graphaug
