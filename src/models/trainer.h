#ifndef GRAPHAUG_MODELS_TRAINER_H_
#define GRAPHAUG_MODELS_TRAINER_H_

#include <vector>

#include "eval/evaluator.h"
#include "models/recommender.h"

namespace graphaug::obs {
class RunReportWriter;
}  // namespace graphaug::obs

namespace graphaug {

/// One entry of the convergence trace (Fig. 4).
struct EpochRecord {
  int epoch = 0;
  double loss = 0;
  double recall20 = 0;
  double ndcg20 = 0;
  double elapsed_seconds = 0;
};

/// Outcome of a full training run.
struct TrainResult {
  std::vector<EpochRecord> history;  ///< entries at evaluation epochs
  TopKMetrics final_metrics;         ///< metrics of the best checkpoint
  double train_seconds = 0;          ///< wall-clock training time
  int best_epoch = 0;
  double best_recall20 = 0;
  /// First epoch whose training loss was not finite; training stopped
  /// there and the metrics above must not be reported. 0 = none.
  int nonfinite_epoch = 0;
};

/// Training-loop options.
struct TrainOptions {
  int epochs = 30;
  int eval_every = 5;   ///< evaluate every k epochs (always at the end)
  int patience = 0;     ///< stop after this many non-improving evals; 0=off
  bool verbose = false; ///< log per-eval progress
  /// When set (and open), one JSONL epoch record is appended per epoch:
  /// loss breakdown, grad/param norms, timing, live/peak tensor bytes,
  /// and RSS. The caller owns the writer and its footer. Purely
  /// observational — training results are identical with or without it.
  obs::RunReportWriter* report = nullptr;
  /// When > 0, the sampling CPU profiler (obs/profiler.h) runs at this
  /// rate for the duration of the training loop, unless a session is
  /// already active (the caller's scope then wins). Harvest with
  /// obs::ProfileFoldedText()/ProfileJson() after return — the CLI's
  /// --profile-out does. Sampling is observational only: results are
  /// bitwise identical with it on or off, at any thread count.
  int profile_hz = 0;
};

/// Drives epochs, periodic evaluation, learning-rate decay, early
/// stopping, and convergence-history recording; keeps the metrics of the
/// best epoch (by Recall@20) as the reported result, matching common
/// practice for the paper's protocol. Stops without evaluating at the
/// first epoch whose loss is not finite (see TrainResult::nonfinite_epoch).
TrainResult TrainAndEvaluate(Recommender* model, const Evaluator& evaluator,
                             const TrainOptions& options);

}  // namespace graphaug

#endif  // GRAPHAUG_MODELS_TRAINER_H_
