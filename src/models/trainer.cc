#include "models/trainer.h"

#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/obs.h"

namespace graphaug {

TrainResult TrainAndEvaluate(Recommender* model, const Evaluator& evaluator,
                             const TrainOptions& options) {
  GA_CHECK(model != nullptr);
  TrainResult result;
  Stopwatch total;
  int evals_without_improvement = 0;

  auto scorer = [model](const std::vector<int32_t>& users) {
    return model->ScoreUsers(users);
  };

  // Profile exactly the training loop (epochs + evals), not setup or
  // teardown, so sample shares line up with the epoch/eval spans. An
  // already-running session (e.g. a caller profiling a wider scope) is
  // left untouched and keeps sampling through the loop.
  const bool profiling =
      options.profile_hz > 0 && !obs::ProfilerRunning() &&
      obs::StartProfiler(options.profile_hz);

  for (int epoch = 1; epoch <= options.epochs; ++epoch) {
    Stopwatch epoch_watch;
    double loss = 0;
    {
      GA_PERF_REGION("epoch");
      loss = model->TrainEpoch();
    }
    const double epoch_seconds = epoch_watch.ElapsedSeconds();
    obs::EpochHealth health;
    if (obs::Enabled()) {
      health = obs::HealthTracker::Get().EndEpoch(
          epoch, std::sqrt(model->params()->SquaredParamNorm()), loss);
      obs::MetricsRegistry::Get()
          .GetGauge("train.grad_norm")
          ->Set(health.grad_norm);
      obs::MetricsRegistry::Get()
          .GetGauge("train.param_norm")
          ->Set(health.param_norm);
    }
    model->DecayLearningRate();
    const bool finite = std::isfinite(loss);
    if (!finite) result.nonfinite_epoch = epoch;
    const bool eval_now = finite && ((options.eval_every > 0 &&
                                      epoch % options.eval_every == 0) ||
                                     epoch == options.epochs);
    bool stop_early = false;
    obs::ReportEpoch report_rec;
    report_rec.epoch = epoch;
    report_rec.loss = loss;
    report_rec.loss_components = health.loss_components;
    report_rec.grad_norm = health.grad_norm;
    report_rec.param_norm = health.param_norm;
    report_rec.nonfinite = health.nonfinite_grads + health.nonfinite_losses;
    report_rec.epoch_seconds = epoch_seconds;
    if (eval_now) {
      model->Finalize();
      TopKMetrics metrics;
      {
        GA_PERF_REGION("eval");
        metrics = evaluator.Evaluate(scorer);
      }
      EpochRecord rec;
      rec.epoch = epoch;
      rec.loss = loss;
      rec.recall20 = metrics.RecallAt(20);
      rec.ndcg20 = metrics.NdcgAt(20);
      rec.elapsed_seconds = total.ElapsedSeconds();
      result.history.push_back(rec);
      report_rec.evaluated = true;
      report_rec.recall20 = rec.recall20;
      report_rec.ndcg20 = rec.ndcg20;
      if (options.verbose) {
        GA_LOG(Info) << model->name() << " epoch " << epoch << " loss " << loss
                     << " recall@20 " << rec.recall20 << " ndcg@20 "
                     << rec.ndcg20;
      }
      if (rec.recall20 > result.best_recall20) {
        result.best_recall20 = rec.recall20;
        result.best_epoch = epoch;
        result.final_metrics = metrics;
        evals_without_improvement = 0;
      } else {
        ++evals_without_improvement;
        stop_early = options.patience > 0 &&
                     evals_without_improvement >= options.patience;
      }
    }
    if (options.report != nullptr && options.report->is_open()) {
      report_rec.elapsed_seconds = total.ElapsedSeconds();
      report_rec.live_bytes = obs::LiveBytes();
      report_rec.peak_bytes = obs::PeakBytes();
      report_rec.rss_bytes = obs::CurrentRssBytes();
      options.report->WriteEpoch(report_rec);
    }
    if (stop_early || !finite) break;
  }
  if (profiling) obs::StopProfiler();
  result.train_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace graphaug
