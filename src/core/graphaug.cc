#include "core/graphaug.h"

#include "augment/gib.h"
#include "augment/registry.h"
#include "models/debias.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

/// Wall-clock attribution of augmentor work, keyed by strategy name.
/// Counters live in the process registry; recording is skipped entirely
/// when the obs layer is off, so the hot path pays one branch.
void RecordAugmentTiming(const std::string& augmentor, const char* stage,
                         int64_t elapsed_ns) {
  obs::MetricsRegistry::Get()
      .GetCounter("augment." + augmentor + "." + stage + "_ns")
      ->Inc(elapsed_ns);
  obs::MetricsRegistry::Get()
      .GetCounter("augment." + augmentor + "." + stage + "_calls")
      ->Inc();
}

}  // namespace

GraphAug::GraphAug(const Dataset* dataset, const GraphAugConfig& config)
    : Recommender(dataset, config), gconfig_(config) {
  adj_ = graph_.BuildNormalizedAdjacency(gconfig_.self_loop_weight);
  embeddings_ = store_.CreateNormal("embeddings", graph_.num_nodes(),
                                    config.dim, &rng_);
  if (gconfig_.use_mixhop) {
    mixhop_ = std::make_unique<MixhopEncoder>(
        &store_, "mixhop", config.dim, config.num_layers, gconfig_.hops,
        config.leaky_slope, &rng_, gconfig_.mixhop_mode,
        gconfig_.mixhop_activation);
  } else {
    // "w/o Mixhop" ablation: a standard GCN (per-layer transform +
    // nonlinearity, last-layer output), which is exactly the encoder the
    // paper swaps in — and the one that over-smooths (Table III).
    for (int l = 0; l < config.num_layers; ++l) {
      gcn_layers_.emplace_back(&store_, "gcn.l" + std::to_string(l),
                               config.dim, config.dim, &rng_,
                               /*bias=*/false);
    }
  }
  // The "w/o GIB" switch rides along inside the gib strategy config so
  // the augmentor owns the decision of whether to emit an aux loss.
  AugmentorConfig acfg = gconfig_.augmentor;
  acfg.gib.gib_loss = gconfig_.use_gib;
  augmenter_ = MakeAugmenter(acfg);
  AugmenterInit init;
  init.graph = &graph_;
  init.adj = &adj_;
  init.store = &store_;
  init.dim = config.dim;
  init.num_layers = config.num_layers;
  init.rng = &rng_;
  augmenter_->Init(init);
}

void GraphAug::OnEpochBegin() {
  augmenter_->Adapt(epoch_++, &rng_);
}

Var GraphAug::EncodeBase(Tape* tape, Var base) {
  if (gconfig_.use_mixhop) {
    return mixhop_->Encode(tape, &adj_.matrix, base);
  }
  Var h = base;
  for (const Linear& layer : gcn_layers_) {
    h = ag::LeakyRelu(layer.Forward(tape, ag::Spmm(&adj_.matrix, h)),
                      config_.leaky_slope);
  }
  return h;
}

Var GraphAug::EncodeView(Tape* tape, Var edge_weights, Var base) {
  if (gconfig_.use_mixhop) {
    return mixhop_->EncodeWeighted(tape, &adj_, edge_weights, base);
  }
  Var h = base;
  for (const Linear& layer : gcn_layers_) {
    h = ag::LeakyRelu(
        layer.Forward(tape, ag::EdgeWeightedSpmm(&adj_, edge_weights, h)),
        config_.leaky_slope);
  }
  return h;
}

Var GraphAug::EncodeAugmented(Tape* tape, const AugmentedView& view,
                              Var base) {
  if (view.embeddings.valid()) return view.embeddings;
  if (view.adjacency != nullptr) {
    if (gconfig_.use_mixhop) {
      return mixhop_->Encode(tape, &view.adjacency->matrix, base);
    }
    Var h = base;
    for (const Linear& layer : gcn_layers_) {
      h = ag::LeakyRelu(
          layer.Forward(tape, ag::Spmm(&view.adjacency->matrix, h)),
          config_.leaky_slope);
    }
    return h;
  }
  GA_CHECK(view.edge_weights.valid()) << "augmented view has no content";
  return EncodeView(tape, view.edge_weights, base);
}

Var GraphAug::BuildLoss(Tape* tape, const TripletBatch& batch) {
  Var base = ag::Leaf(tape, embeddings_);

  // (Alg. 1, line 3) High-order embeddings of the observed graph.
  Var h_bar = EncodeBase(tape, base);

  // (Eq. 15) Main-task BPR on the observed-graph embeddings; optionally
  // IPS-weighted (unbiased-SSL extension).
  Var u = ag::GatherRows(h_bar, batch.users);
  Var p = ag::GatherRows(h_bar, ToNodeIds(batch.pos_items));
  Var n = ag::GatherRows(h_bar, ToNodeIds(batch.neg_items));
  Var pos_scores = ag::RowDot(u, p);
  Var neg_scores = ag::RowDot(u, n);
  Var loss;
  if (gconfig_.ips_gamma > 0.f) {
    if (propensities_.empty()) {
      propensities_ = ItemPropensities(graph_, gconfig_.ips_gamma);
    }
    loss = IpsBprLoss(tape, pos_scores, neg_scores, batch.pos_items,
                      propensities_);
  } else {
    loss = ag::BprLoss(pos_scores, neg_scores);
  }

  // Loss-component telemetry records each term's *weighted* contribution
  // to the total objective; values are read off the tape, never mutated.
  if (obs::Enabled()) {
    obs::HealthTracker::Get().RecordLossComponent("bpr",
                                                  loss.value().scalar());
  }

  const bool needs_views = gconfig_.use_gib || gconfig_.use_cl;
  if (!needs_views) return loss;

  // (Alg. 1 lines 4-5) The configured strategy produces the two views,
  // which the host encodes according to their shape.
  AugmenterState state;
  state.tape = tape;
  state.base = base;
  state.h_bar = h_bar;
  state.batch = &batch;
  state.rng = &rng_;

  const bool timed = obs::Enabled();
  int64_t t0 = timed ? obs::TraceClockNs() : 0;
  AugmentedViews views;
  {
    GA_TRACE_SPAN("augment");
    views = augmenter_->Augment(state);
  }
  if (timed) {
    RecordAugmentTiming(augmenter_->name(), "augment",
                        obs::TraceClockNs() - t0);
  }
  Var z_prime = EncodeAugmented(tape, views.first, base);
  Var z_dprime = EncodeAugmented(tape, views.second, base);

  // (Alg. 1 lines 6-7) Strategy-owned auxiliary objective (the GIB bounds
  // for "gib", masked-edge reconstruction for "autocf", none otherwise).
  t0 = timed ? obs::TraceClockNs() : 0;
  Var aux;
  {
    GA_TRACE_SPAN("aux_loss");
    aux = augmenter_->AuxLoss(state, z_prime, z_dprime);
  }
  if (timed) {
    RecordAugmentTiming(augmenter_->name(), "aux_loss",
                        obs::TraceClockNs() - t0);
  }
  if (aux.valid()) loss = ag::Add(loss, aux);

  // (Eq. 14 / Alg. 1 line 8) Mixhop graph contrastive augmentation.
  if (gconfig_.use_cl) {
    std::vector<int32_t> users =
        sampler_.SampleUsers(config_.contrast_batch, &rng_);
    std::vector<int32_t> items =
        ToNodeIds(sampler_.SampleItems(config_.contrast_batch, &rng_));
    Var cl_user = ag::InfoNceLoss(ag::GatherRows(z_prime, users),
                                  ag::GatherRows(z_dprime, users),
                                  config_.temperature);
    Var cl_item = ag::InfoNceLoss(ag::GatherRows(z_prime, items),
                                  ag::GatherRows(z_dprime, items),
                                  config_.temperature);
    Var cl = ag::Add(cl_user, cl_item);
    if (obs::Enabled()) {
      obs::HealthTracker::Get().RecordLossComponent(
          "contrastive",
          cl.value().scalar() * gconfig_.beta2 * config_.ssl_weight);
    }
    loss = ag::Add(loss, ag::Scale(cl, gconfig_.beta2 * config_.ssl_weight));
  } else if (gconfig_.use_gib) {
    // "w/o CL" variant: GIB directly regularizes the BPR objective via an
    // extra prediction term on the denoised views.
    Var extra = ag::Scale(
        ag::Add(GibPredictionTerm(tape, z_prime, batch, ItemOffset()),
                GibPredictionTerm(tape, z_dprime, batch, ItemOffset())),
        0.5f * config_.ssl_weight);
    if (obs::Enabled()) {
      obs::HealthTracker::Get().RecordLossComponent("gib_pred_extra",
                                                    extra.value().scalar());
    }
    loss = ag::Add(loss, extra);
  }
  return loss;
}

void GraphAug::ComputeEmbeddings(Matrix* user_emb, Matrix* item_emb) {
  // Forecasting phase: predictions use GE(G) on the observed graph.
  Tape tape;
  Var base = ag::Leaf(&tape, embeddings_);
  Var h = EncodeBase(&tape, base);
  *user_emb = SliceRows(h.value(), 0, graph_.num_users());
  *item_emb = SliceRows(h.value(), graph_.num_users(), graph_.num_items());
}

std::vector<float> GraphAug::EdgeProbabilities() {
  Tape tape;
  Var base = ag::Leaf(&tape, embeddings_);
  Var h = EncodeBase(&tape, base);
  Var probs = augmenter_->EdgeScores(&tape, h);
  GA_CHECK(probs.valid()) << "augmentor '" << augmenter_->name()
                          << "' exposes no edge scores";
  const Matrix& pv = probs.value();
  return std::vector<float>(pv.data(), pv.data() + pv.size());
}

}  // namespace graphaug
