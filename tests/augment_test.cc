// Tests for the GraphAugmenter subsystem (src/augment/):
//   - golden parity: GraphAug+gib and SGL+edgedrop through the interface
//     produce bitwise-identical parameters to inline frozen replicas of
//     the pre-interface training loops (same ops, same RNG draw order),
//   - bitwise determinism of every registered augmentor at 1/2/7 threads,
//   - finite-difference gradient check of the AdvCL inner objective,
//   - randomized truncated SVD accuracy against a dense Jacobi reference,
//   - registry coverage of all five strategy names.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/advcl_augmenter.h"
#include "augment/edge_scorer.h"
#include "augment/gib.h"
#include "augment/registry.h"
#include "augment/reparam_sampler.h"
#include "augment/svd.h"
#include "autograd/grad_check.h"
#include "autograd/optim.h"
#include "common/parallel.h"
#include "core/graphaug.h"
#include "core/mixhop_encoder.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "graph/corruption.h"
#include "models/propagation.h"
#include "models/registry.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

GraphAugConfig SmallConfig() {
  GraphAugConfig cfg;
  cfg.dim = 16;
  cfg.batch_size = 128;
  cfg.batches_per_epoch = 2;
  cfg.contrast_batch = 32;
  cfg.seed = 77;
  return cfg;
}

std::vector<float> AllParamValues(ParamStore* store) {
  std::vector<float> out;
  for (const Parameter* p : store->params()) {
    out.insert(out.end(), p->value.data(), p->value.data() + p->value.size());
  }
  return out;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

std::vector<float> Flat(const Matrix& m) {
  return std::vector<float>(m.data(), m.data() + m.size());
}

std::vector<int32_t> OffsetItems(const std::vector<int32_t>& items,
                                 int32_t offset) {
  std::vector<int32_t> out(items.size());
  for (size_t i = 0; i < items.size(); ++i) out[i] = items[i] + offset;
  return out;
}

// ------------------------------------------------------- golden parity

/// Frozen replica of the pre-interface GraphAug training loop (default
/// config: gib augmentor, CL on, structure-KL off). Every parameter
/// creation, tape op, and RNG draw happens in the exact order of the old
/// monolithic BuildLoss, so any reordering introduced by the
/// GraphAugmenter refactor shows up as a bitwise mismatch.
class FrozenGraphAugGib {
 public:
  FrozenGraphAugGib(const Dataset* dataset, const GraphAugConfig& cfg)
      : cfg_(cfg),
        graph_(dataset->TrainGraph()),
        sampler_(&graph_),
        rng_(cfg.seed),
        optimizer_(cfg.learning_rate, 0.9f, 0.999f, 1e-8f,
                   cfg.weight_decay) {
    adj_ = graph_.BuildNormalizedAdjacency(cfg.self_loop_weight);
    embeddings_ = store_.CreateNormal("embeddings", graph_.num_nodes(),
                                      cfg.dim, &rng_);
    mixhop_ = std::make_unique<MixhopEncoder>(
        &store_, "mixhop", cfg.dim, cfg.num_layers, cfg.hops,
        cfg.leaky_slope, &rng_, cfg.mixhop_mode, cfg.mixhop_activation);
    scorer_ = std::make_unique<EdgeScorer>(&store_, "augmentor", cfg.dim,
                                           &rng_, cfg.augmentor.gib.scorer_noise);
  }

  void TrainEpoch() {
    for (int b = 0; b < cfg_.batches_per_epoch; ++b) {
      TripletBatch batch = sampler_.Sample(cfg_.batch_size, &rng_);
      if (batch.size() == 0) continue;
      Tape tape;
      Var loss = BuildLoss(&tape, batch);
      tape.Backward(loss);
      optimizer_.Step(&store_);
    }
  }

  ParamStore* params() { return &store_; }

 private:
  Var BuildLoss(Tape* tape, const TripletBatch& batch) {
    const int32_t off = graph_.num_users();
    const GibAugmentorConfig& gib = cfg_.augmentor.gib;
    Var base = ag::Leaf(tape, embeddings_);
    Var h_bar = mixhop_->Encode(tape, &adj_.matrix, base);
    Var u = ag::GatherRows(h_bar, batch.users);
    Var p = ag::GatherRows(h_bar, OffsetItems(batch.pos_items, off));
    Var n = ag::GatherRows(h_bar, OffsetItems(batch.neg_items, off));
    Var loss = ag::BprLoss(ag::RowDot(u, p), ag::RowDot(u, n));

    Var probs = scorer_->Score(tape, h_bar, graph_.edges(), off, &rng_);
    Var w_prime = SampleEdgeWeights(tape, probs, gib.concrete_temperature,
                                    gib.edge_threshold, &rng_);
    Var w_dprime = SampleEdgeWeights(tape, probs, gib.concrete_temperature,
                                     gib.edge_threshold, &rng_);
    Var z_prime = mixhop_->EncodeWeighted(tape, &adj_, w_prime, base);
    Var z_dprime = mixhop_->EncodeWeighted(tape, &adj_, w_dprime, base);

    Var pred = ag::Scale(
        ag::Add(GibPredictionTerm(tape, z_prime, batch, off),
                GibPredictionTerm(tape, z_dprime, batch, off)),
        0.5f * gib.gib_pred_weight);
    Var kl = GibCompressionTerm(tape, h_bar, z_prime, z_dprime);
    loss = ag::Add(loss, ag::Add(pred, ag::Scale(kl, gib.beta1 * gib.gib_beta)));

    std::vector<int32_t> users =
        sampler_.SampleUsers(cfg_.contrast_batch, &rng_);
    std::vector<int32_t> items =
        OffsetItems(sampler_.SampleItems(cfg_.contrast_batch, &rng_), off);
    Var cl_user = ag::InfoNceLoss(ag::GatherRows(z_prime, users),
                                  ag::GatherRows(z_dprime, users),
                                  cfg_.temperature);
    Var cl_item = ag::InfoNceLoss(ag::GatherRows(z_prime, items),
                                  ag::GatherRows(z_dprime, items),
                                  cfg_.temperature);
    Var cl = ag::Add(cl_user, cl_item);
    return ag::Add(loss, ag::Scale(cl, cfg_.beta2 * cfg_.ssl_weight));
  }

  GraphAugConfig cfg_;
  BipartiteGraph graph_;
  TripletSampler sampler_;
  Rng rng_;
  Adam optimizer_;
  NormalizedAdjacency adj_;
  ParamStore store_;
  Parameter* embeddings_ = nullptr;
  std::unique_ptr<MixhopEncoder> mixhop_;
  std::unique_ptr<EdgeScorer> scorer_;
};

TEST(GoldenParity, GibThroughInterfaceMatchesFrozenReplica) {
  const SyntheticData& data = GeneratePreset("tiny");
  GraphAugConfig cfg = SmallConfig();

  GraphAug model(&data.dataset, cfg);
  FrozenGraphAugGib frozen(&data.dataset, cfg);
  for (int e = 0; e < 2; ++e) {
    model.TrainEpoch();
    frozen.TrainEpoch();
  }
  EXPECT_TRUE(BitwiseEqual(AllParamValues(model.params()),
                           AllParamValues(frozen.params())))
      << "gib augmentor through GraphAugmenter is not bitwise-identical "
         "to the pre-interface training loop";
}

/// Frozen replica of the pre-interface SGL loop (edge-dropout views
/// resampled each epoch, LightGCN propagation, InfoNCE on a mixed
/// user+item node batch).
class FrozenSgl {
 public:
  FrozenSgl(const Dataset* dataset, const ModelConfig& cfg)
      : cfg_(cfg),
        graph_(dataset->TrainGraph()),
        sampler_(&graph_),
        rng_(cfg.seed),
        optimizer_(cfg.learning_rate, 0.9f, 0.999f, 1e-8f,
                   cfg.weight_decay) {
    adj_ = graph_.BuildNormalizedAdjacency(0.f);
    embeddings_ = store_.CreateNormal("embeddings", graph_.num_nodes(),
                                      cfg.dim, &rng_);
  }

  void TrainEpoch() {
    const double drop = cfg_.dropout > 0 ? 0.2 : 0.1;
    view_a_ = DropEdges(graph_, drop, rng_);
    view_b_ = DropEdges(graph_, drop, rng_);
    adj_a_ = view_a_.BuildNormalizedAdjacency(0.f);
    adj_b_ = view_b_.BuildNormalizedAdjacency(0.f);
    for (int b = 0; b < cfg_.batches_per_epoch; ++b) {
      TripletBatch batch = sampler_.Sample(cfg_.batch_size, &rng_);
      if (batch.size() == 0) continue;
      Tape tape;
      Var loss = BuildLoss(&tape, batch);
      tape.Backward(loss);
      optimizer_.Step(&store_);
    }
  }

  ParamStore* params() { return &store_; }

 private:
  Var BuildLoss(Tape* tape, const TripletBatch& batch) {
    const int32_t off = graph_.num_users();
    Var e = ag::Leaf(tape, embeddings_);
    Var h = LightGcnPropagate(tape, &adj_.matrix, e, cfg_.num_layers);
    Var u = ag::GatherRows(h, batch.users);
    Var p = ag::GatherRows(h, OffsetItems(batch.pos_items, off));
    Var n = ag::GatherRows(h, OffsetItems(batch.neg_items, off));
    Var loss = ag::BprLoss(ag::RowDot(u, p), ag::RowDot(u, n));

    Var ha = LightGcnPropagate(tape, &adj_a_.matrix, e, cfg_.num_layers);
    Var hb = LightGcnPropagate(tape, &adj_b_.matrix, e, cfg_.num_layers);
    std::vector<int32_t> nodes =
        sampler_.SampleUsers(cfg_.contrast_batch, &rng_);
    std::vector<int32_t> items =
        sampler_.SampleItems(cfg_.contrast_batch, &rng_);
    for (int32_t v : items) nodes.push_back(v + off);
    Var ssl = ag::InfoNceLoss(ag::GatherRows(ha, nodes),
                              ag::GatherRows(hb, nodes), cfg_.temperature);
    return ag::Add(loss, ag::Scale(ssl, cfg_.ssl_weight));
  }

  ModelConfig cfg_;
  BipartiteGraph graph_;
  TripletSampler sampler_;
  Rng rng_;
  Adam optimizer_;
  NormalizedAdjacency adj_;
  ParamStore store_;
  Parameter* embeddings_ = nullptr;
  BipartiteGraph view_a_, view_b_;
  NormalizedAdjacency adj_a_, adj_b_;
};

TEST(GoldenParity, EdgeDropThroughInterfaceMatchesFrozenSgl) {
  const SyntheticData& data = GeneratePreset("tiny");
  ModelConfig cfg = SmallConfig();

  auto model = CreateModel("SGL", &data.dataset, cfg);
  FrozenSgl frozen(&data.dataset, cfg);
  for (int e = 0; e < 2; ++e) {
    model->TrainEpoch();
    frozen.TrainEpoch();
  }
  EXPECT_TRUE(BitwiseEqual(AllParamValues(model->params()),
                           AllParamValues(frozen.params())))
      << "edgedrop augmentor through GraphAugmenter is not "
         "bitwise-identical to the pre-interface SGL loop";
}

// ------------------------------------------------ thread determinism

/// Frozen replica of EdgeScorer before its disturb step became one fused
/// op: the same parameters, created in the same order from the same Rng,
/// and the seven-node composed graph per side (Sigmoid → MulRowBroadcast,
/// Neg → AddScalar → MulRowBroadcast(Constant ε) → Add).
class FrozenEdgeScorer {
 public:
  FrozenEdgeScorer(ParamStore* store, const std::string& name, int dim,
                   Rng* rng, float noise_stddev)
      : noise_stddev_(noise_stddev),
        user_mask_(store->Create(name + ".user_mask", 1, dim)),
        item_mask_(store->Create(name + ".item_mask", 1, dim)),
        mlp_(store, name + ".mlp", {2 * static_cast<int64_t>(dim), dim, 1},
             rng, Activation::kLeakyRelu) {
    user_mask_->value.Fill(2.f);
    item_mask_->value.Fill(2.f);
    mlp_.layers().back().bias()->value.Fill(1.5f);
  }

  Var Score(Tape* tape, Var node_embeddings, const std::vector<Edge>& edges,
            int32_t item_offset, Rng* rng) const {
    std::vector<int32_t> user_rows(edges.size());
    std::vector<int32_t> item_rows(edges.size());
    for (size_t e = 0; e < edges.size(); ++e) {
      user_rows[e] = edges[e].user;
      item_rows[e] = item_offset + edges[e].item;
    }
    Var hu = ag::GatherRows(node_embeddings, std::move(user_rows));
    Var hv = ag::GatherRows(node_embeddings, std::move(item_rows));
    auto disturb = [&](Var h, Parameter* mask_param) {
      Var m = ag::Sigmoid(ag::Leaf(tape, mask_param));
      Var hm = ag::MulRowBroadcast(h, m);
      if (rng == nullptr || noise_stddev_ <= 0.f) return hm;
      Matrix eps(h.rows(), h.cols());
      FillNormal(&eps, rng->NextU64(), 0.f, noise_stddev_);
      Var one_minus_m = ag::AddScalar(ag::Neg(m), 1.f);
      Var noise =
          ag::MulRowBroadcast(ag::Constant(tape, std::move(eps)), one_minus_m);
      return ag::Add(hm, noise);
    };
    Var tu = disturb(hu, user_mask_);
    Var tv = disturb(hv, item_mask_);
    return ag::Sigmoid(mlp_.Forward(tape, ag::ConcatCols(tu, tv)));
  }

 private:
  float noise_stddev_;
  Parameter* user_mask_;
  Parameter* item_mask_;
  Mlp mlp_;
};

TEST(EdgeScorerParity, MatchesFrozenComposedGraphBitwise) {
  const int dim = 13;  // odd, so no SIMD width divides it
  const int32_t users = 9, items = 11;
  Rng edge_rng(3);
  std::vector<Edge> edges;
  for (int e = 0; e < 41; ++e) {  // duplicates included
    edges.push_back({static_cast<int32_t>(edge_rng.UniformInt(users)),
                     static_cast<int32_t>(edge_rng.UniformInt(items))});
  }
  for (const bool noisy : {true, false}) {
    ParamStore store_new, store_old;
    Rng init_new(21), init_old(21);
    Parameter* emb_new =
        store_new.CreateNormal("emb", users + items, dim, &init_new, 0.5f);
    Parameter* emb_old =
        store_old.CreateNormal("emb", users + items, dim, &init_old, 0.5f);
    EdgeScorer scorer(&store_new, "s", dim, &init_new, 0.1f);
    FrozenEdgeScorer frozen(&store_old, "s", dim, &init_old, 0.1f);
    ASSERT_EQ(store_new.params().size(), store_old.params().size());
    ASSERT_TRUE(BitwiseEqual(AllParamValues(&store_new),
                             AllParamValues(&store_old)));

    Matrix w(static_cast<int64_t>(edges.size()), 1);
    FillNormal(&w, 99, 0.f, 1.f);
    Rng noise_new(8), noise_old(8);
    store_new.ZeroGrad();
    store_old.ZeroGrad();
    Tape tape_new, tape_old;
    Var p_new = scorer.Score(&tape_new, ag::Leaf(&tape_new, emb_new), edges,
                             users, noisy ? &noise_new : nullptr);
    Var p_old = frozen.Score(&tape_old, ag::Leaf(&tape_old, emb_old), edges,
                             users, noisy ? &noise_old : nullptr);
    EXPECT_TRUE(BitwiseEqual(Flat(p_new.value()), Flat(p_old.value())))
        << "noisy=" << noisy;
    tape_new.Backward(
        ag::SumAll(ag::Mul(p_new, ag::Constant(&tape_new, w))));
    tape_old.Backward(
        ag::SumAll(ag::Mul(p_old, ag::Constant(&tape_old, w))));
    for (size_t i = 0; i < store_new.params().size(); ++i) {
      const Parameter* a = store_new.params()[i];
      const Parameter* b = store_old.params()[i];
      ASSERT_EQ(a->name, b->name);
      EXPECT_TRUE(BitwiseEqual(Flat(a->grad), Flat(b->grad)))
          << a->name << " noisy=" << noisy;
      EXPECT_GT(MaxAbs(a->grad), 0.f) << a->name;
    }
    // Both sides drew the same keys.
    EXPECT_EQ(noise_new.NextU64(), noise_old.NextU64());
  }
}

TEST(AugmentorDeterminism, AllStrategiesBitwiseAtAnyThreadCount) {
  const SyntheticData& data = GeneratePreset("tiny");
  for (const std::string& name : AllAugmenterNames()) {
    auto train = [&](int threads) {
      SetNumThreads(threads);
      GraphAugConfig cfg = SmallConfig();
      cfg.augmentor.name = name;
      GraphAug model(&data.dataset, cfg);
      for (int e = 0; e < 2; ++e) model.TrainEpoch();
      return AllParamValues(model.params());
    };
    const std::vector<float> serial = train(1);
    EXPECT_FALSE(serial.empty());
    for (int threads : {2, 7}) {
      EXPECT_TRUE(BitwiseEqual(serial, train(threads)))
          << "augmentor '" << name << "' diverges at " << threads
          << " threads";
    }
  }
  SetNumThreads(1);
}

// --------------------------------------------------- advcl gradcheck

TEST(AdvClAugmenter, InnerLossGradientMatchesFiniteDifferences) {
  Rng rng(13);
  BipartiteGraph g(4, 3,
                   {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 2}, {3, 0}, {3, 2}});
  NormalizedAdjacency adj = g.BuildNormalizedAdjacency(0.f);
  Matrix base(g.num_nodes(), 8);
  Matrix reference(g.num_nodes(), 8);
  InitNormal(&base, &rng, 0.f, 0.5f);
  InitNormal(&reference, &rng, 0.f, 0.5f);
  const std::vector<int32_t> nodes = {0, 2, 4, 6};

  ParamStore store;
  Parameter* delta = store.Create("delta", g.num_edges(), 1);
  InitNormal(&delta->value, &rng, 0.f, 0.05f);

  GradCheckResult r = CheckGradient(
      delta,
      [&](Tape* tape) {
        return AdvClInnerLoss(tape, delta, &adj, base, reference, nodes,
                              /*num_layers=*/2, /*temperature=*/0.5f);
      },
      /*fd_eps=*/1e-3f, /*tol=*/5e-2f);
  EXPECT_TRUE(r.ok) << "max_abs_error=" << r.max_abs_error
                    << " max_rel_error=" << r.max_rel_error;
}

// --------------------------------------------------------- svd accuracy

TEST(RandomizedSvd, RecoversExactLowRankFactorization) {
  Rng rng(5);
  const int rows = 12, cols = 9, rank = 3;
  Matrix g1(rows, rank), g2(cols, rank);
  InitNormal(&g1, &rng, 0.f, 1.f);
  InitNormal(&g2, &rng, 0.f, 1.f);
  Matrix dense;
  Gemm(g1, false, g2, true, 1.f, 0.f, &dense);

  std::vector<CooEntry> entries;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      entries.push_back({r, c, dense.at(r, c)});
    }
  }
  CsrMatrix a = CsrMatrix::FromCoo(rows, cols, std::move(entries));

  Rng svd_rng(42);
  SvdResult svd = RandomizedSvd(a, rank, /*power_iters=*/3,
                                /*oversample=*/4, &svd_rng);
  ASSERT_EQ(svd.u.cols(), rank);
  ASSERT_EQ(static_cast<int>(svd.s.size()), rank);
  ASSERT_EQ(svd.v.cols(), rank);

  // Singular values: positive and descending.
  for (int k = 0; k < rank; ++k) {
    EXPECT_GT(svd.s[k], 0.f);
    if (k > 0) EXPECT_LE(svd.s[k], svd.s[k - 1] * (1.f + 1e-5f));
  }

  // Orthonormal factors.
  Matrix utu, vtv;
  Gemm(svd.u, true, svd.u, false, 1.f, 0.f, &utu);
  Gemm(svd.v, true, svd.v, false, 1.f, 0.f, &vtv);
  for (int i = 0; i < rank; ++i) {
    for (int j = 0; j < rank; ++j) {
      const float want = i == j ? 1.f : 0.f;
      EXPECT_NEAR(utu.at(i, j), want, 1e-3f);
      EXPECT_NEAR(vtv.at(i, j), want, 1e-3f);
    }
  }

  // The matrix is exactly rank 3, so U diag(s) Vᵀ reconstructs it.
  Matrix us = svd.u;
  for (int r = 0; r < rows; ++r) {
    for (int k = 0; k < rank; ++k) us.at(r, k) *= svd.s[k];
  }
  Matrix recon;
  Gemm(us, false, svd.v, true, 1.f, 0.f, &recon);
  float max_err = 0.f;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      max_err = std::max(max_err, std::fabs(recon.at(r, c) - dense.at(r, c)));
    }
  }
  EXPECT_LT(max_err, 1e-3f * MaxAbs(dense));

  // Dense reference: singular values are the square roots of the
  // eigenvalues of AᵀA, computed by the exposed Jacobi path.
  Matrix gram;
  Gemm(dense, true, dense, false, 1.f, 0.f, &gram);
  std::vector<float> eigenvalues;
  Matrix eigenvectors;
  JacobiEigh(gram, &eigenvalues, &eigenvectors);
  ASSERT_GE(eigenvalues.size(), static_cast<size_t>(rank));
  for (int k = 0; k < rank; ++k) {
    const float ref = std::sqrt(std::max(0.f, eigenvalues[k]));
    EXPECT_NEAR(svd.s[k], ref, 1e-3f * ref + 1e-4f);
  }
}

// ------------------------------------------------------------- registry

TEST(AugmenterRegistry, CoversAllFiveStrategies) {
  const std::vector<std::string> names = AllAugmenterNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "gib");
  EXPECT_EQ(names[1], "edgedrop");
  EXPECT_EQ(names[2], "advcl");
  EXPECT_EQ(names[3], "autocf");
  EXPECT_EQ(names[4], "lightgcl");
  for (const std::string& name : names) {
    std::unique_ptr<GraphAugmenter> aug = CreateAugmenter(name);
    ASSERT_NE(aug, nullptr);
    EXPECT_EQ(aug->name(), name);
    // Only the learnable GIB strategy exposes per-edge retention scores
    // (the denoise workflow gates on this).
    EXPECT_EQ(aug->has_edge_scores(), name == "gib");
  }
}

TEST(AugmenterRegistryDeathTest, RejectsUnknownName) {
  EXPECT_DEATH(CreateAugmenter("definitely-not-an-augmentor"),
               "unknown augmentor");
}

}  // namespace
}  // namespace graphaug
