#ifndef GRAPHAUG_EVAL_EVALUATOR_H_
#define GRAPHAUG_EVAL_EVALUATOR_H_

#include <functional>
#include <vector>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "tensor/matrix.h"

namespace graphaug {

namespace retrieval {
class Retriever;
}  // namespace retrieval

/// Full-ranking top-K evaluator. For each evaluated user the model scores
/// every item, and the top-max(K) ranking with the user's training
/// interactions excluded is compared against the held-out test items —
/// the protocol of the paper's Table II. Selection is TopKHeap::OfferRow
/// (retrieval/topk.h), the ranking rule shared with the retrieval
/// engines and the `recommend` CLI.
///
/// Users are ranked in fixed chunks of 128 on the shared parallel runtime
/// (common/parallel.h). Each chunk sums its users' metrics into its own
/// partial, and partials are merged in chunk order, so the reported
/// metrics are identical at any thread count. EvaluateRetrieval feeds the
/// same accumulator, so an exact retriever reproduces Evaluate() bitwise.
class Evaluator {
 public:
  /// `scorer(users)` must return a (|users| x num_items) score matrix. It
  /// may be invoked concurrently from several threads, so it must not
  /// mutate shared state (the built-in recommenders score from finalized
  /// read-only embedding tables and satisfy this).
  using ScoreFn = std::function<Matrix(const std::vector<int32_t>&)>;

  /// The dataset must outlive the evaluator.
  Evaluator(const Dataset* dataset, std::vector<int> ks = {20, 40});

  /// Evaluates every user that has at least one test interaction.
  TopKMetrics Evaluate(const ScoreFn& scorer) const;

  /// Evaluates only the given users (skipping those without test items);
  /// used by the degree-group study (Table V).
  TopKMetrics EvaluateUsers(const ScoreFn& scorer,
                            const std::vector<int32_t>& users) const;

  /// Item-side group evaluation (the item half of Table V): relevance is
  /// restricted to test items inside `item_group` (sorted ids); users
  /// whose restricted test set is empty are skipped. The candidate
  /// ranking still spans all items, so the metric reflects how well the
  /// group's items surface against full competition.
  TopKMetrics EvaluateItemGroup(const ScoreFn& scorer,
                                const std::vector<int32_t>& item_group) const;

  /// Retrieval-backed evaluation (DESIGN.md §10): instead of scoring the
  /// full item matrix per user, asks `retriever` for each user's
  /// top-max(K) items with that user's training interactions excluded.
  /// `user_embeddings` is the (num_users x d) query table, matched by row
  /// to user id. With an exact retriever (TopKScorer; MipsIndex at
  /// bound_slack = 1) the metrics are bit-for-bit identical to
  /// Evaluate() on the corresponding factored scorer, since both paths
  /// share the selection rule and the metric accumulator. Evaluate()
  /// stays the only path for models whose scores do not factor into
  /// embeddings. With an approximate retriever the gap is the recall
  /// loss, which tests and the bench gate bound.
  TopKMetrics EvaluateRetrieval(const retrieval::Retriever& retriever,
                                const Matrix& user_embeddings) const;

  /// Users that have at least one test interaction.
  const std::vector<int32_t>& evaluable_users() const {
    return evaluable_users_;
  }

 private:
  const Dataset* dataset_;
  std::vector<int> ks_;
  int max_k_ = 0;
  std::vector<std::vector<int32_t>> test_items_;   // per user, sorted
  std::vector<std::vector<int32_t>> train_items_;  // per user, sorted
  std::vector<int32_t> evaluable_users_;
};

}  // namespace graphaug

#endif  // GRAPHAUG_EVAL_EVALUATOR_H_
