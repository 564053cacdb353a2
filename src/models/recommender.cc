#include "models/recommender.h"

#include <cmath>

#include "obs/obs.h"
#include "tensor/ops.h"

namespace graphaug {

Recommender::Recommender(const Dataset* dataset, const ModelConfig& config)
    : dataset_(dataset),
      config_(config),
      graph_(dataset->TrainGraph()),
      sampler_(&graph_),
      rng_(config.seed) {
  optimizer_ = std::make_unique<Adam>(config.learning_rate, 0.9f, 0.999f,
                                      1e-8f, config.weight_decay);
}

double Recommender::TrainEpoch() {
  OnEpochBegin();
  int batches = config_.batches_per_epoch;
  if (batches <= 0) {
    batches = static_cast<int>(
        (graph_.num_edges() + config_.batch_size - 1) / config_.batch_size);
  }
  double total_loss = 0;
  for (int b = 0; b < batches; ++b) {
    TripletBatch batch = sampler_.Sample(config_.batch_size, &rng_);
    if (batch.size() == 0) continue;
    Tape tape;
    Var loss = BuildLoss(&tape, batch);
    const double batch_loss = loss.value().scalar();
    total_loss += batch_loss;
    if (obs::Enabled() && !std::isfinite(batch_loss)) {
      obs::HealthTracker::Get().RecordNonFiniteLoss(batch_loss);
    }
    tape.Backward(loss);
    if (obs::Enabled()) RecordBatchHealth(batch_loss);
    {
      GA_TRACE_SPAN("optimizer");
      optimizer_->Step(&store_);
    }
    GA_TRACE_SPAN("tape_release");
    tape.Reset();
  }
  return batches > 0 ? total_loss / batches : 0.0;
}

void Recommender::RecordBatchHealth(double batch_loss) {
  // Reads gradients only (after Backward, before the optimizer consumes
  // them), so recording cannot change training results.
  double squared_norm = 0;
  int64_t nonfinite = 0;
  for (const Parameter* p : store_.params()) {
    if (!p->trainable || !p->grad.SameShape(p->value)) continue;
    nonfinite += obs::NonFiniteCount(p->grad.data(), p->grad.size());
    for (int64_t i = 0; i < p->grad.size(); ++i) {
      squared_norm += static_cast<double>(p->grad[i]) * p->grad[i];
    }
  }
  obs::HealthTracker::Get().RecordBatchGrad(squared_norm, nonfinite);
  obs::MetricsRegistry::Get().GetCounter("train.batches")->Inc();
  obs::MetricsRegistry::Get()
      .GetHistogram("train.batch_loss",
                    {0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0})
      ->Observe(batch_loss);
}

void Recommender::Finalize() {
  ComputeEmbeddings(&user_emb_, &item_emb_);
  GA_CHECK_EQ(user_emb_.rows(), dataset_->num_users);
  GA_CHECK_EQ(item_emb_.rows(), dataset_->num_items);
}

Matrix Recommender::ScoreUsers(const std::vector<int32_t>& users) const {
  GA_CHECK(!user_emb_.empty()) << "call Finalize() before scoring";
  Matrix batch = GatherRows(user_emb_, users);
  Matrix scores;
  Gemm(batch, false, item_emb_, true, 1.f, 0.f, &scores);
  return scores;
}

Matrix Recommender::AllEmbeddings() const {
  return ConcatRows(user_emb_, item_emb_);
}

void Recommender::DecayLearningRate() {
  optimizer_->set_learning_rate(optimizer_->learning_rate() *
                                config_.lr_decay);
}

std::vector<int32_t> Recommender::ToNodeIds(
    const std::vector<int32_t>& items) const {
  std::vector<int32_t> out(items.size());
  const int32_t offset = ItemOffset();
  for (size_t i = 0; i < items.size(); ++i) out[i] = items[i] + offset;
  return out;
}

}  // namespace graphaug
