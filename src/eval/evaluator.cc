#include "eval/evaluator.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/scope.h"
#include "retrieval/topk.h"
#include "tensor/ops.h"

namespace graphaug {

Evaluator::Evaluator(const Dataset* dataset, std::vector<int> ks)
    : dataset_(dataset), ks_(std::move(ks)) {
  GA_CHECK(dataset != nullptr);
  GA_CHECK(!ks_.empty());
  max_k_ = *std::max_element(ks_.begin(), ks_.end());
  test_items_ = dataset->TestItemsByUser();
  train_items_.assign(dataset->num_users, {});
  for (const Edge& e : dataset->train_edges) {
    train_items_[e.user].push_back(e.item);
  }
  for (auto& v : train_items_) std::sort(v.begin(), v.end());
  for (int32_t u = 0; u < dataset->num_users; ++u) {
    if (!test_items_[u].empty()) evaluable_users_.push_back(u);
  }
}

TopKMetrics Evaluator::Evaluate(const ScoreFn& scorer) const {
  return EvaluateUsers(scorer, evaluable_users_);
}

namespace {

/// Users per ranking chunk and per metric partial.
constexpr int64_t kBatch = 128;

/// The per-cutoff metric arrays of TopKMetrics.
constexpr std::vector<double> TopKMetrics::*kMetricFields[] = {
    &TopKMetrics::recall,   &TopKMetrics::ndcg, &TopKMetrics::precision,
    &TopKMetrics::hit_rate, &TopKMetrics::map,  &TopKMetrics::mrr};

/// The one metric accumulator of both ranking paths. The i-th evaluated
/// user is added into the partial sums of chunk i / kBatch, and Finish()
/// merges the partials in chunk order and normalizes. The same per-user
/// lists therefore give bitwise identical metrics whichever path ranked
/// them and at any thread count. Distinct chunks may be filled
/// concurrently.
class ChunkedMetrics {
 public:
  ChunkedMetrics(const std::vector<int>& ks, int64_t num_users)
      : num_users_(num_users) {
    zero_.ks = ks;
    for (auto field : kMetricFields) (zero_.*field).assign(ks.size(), 0.0);
    partials_.assign(static_cast<size_t>((num_users + kBatch - 1) / kBatch),
                     zero_);
  }

  void Add(int64_t i, const std::vector<int32_t>& ranked,
           const std::vector<int32_t>& relevant) {
    TopKMetrics& p = partials_[static_cast<size_t>(i / kBatch)];
    AccumulateUserMetrics(ranked, relevant, p.ks, &p.recall, &p.ndcg,
                          &p.precision, &p.hit_rate, &p.map, &p.mrr);
  }

  TopKMetrics Finish() const {
    TopKMetrics m = zero_;
    if (num_users_ == 0) return m;
    m.num_users = static_cast<int>(num_users_);
    const double inv = 1.0 / m.num_users;
    for (auto field : kMetricFields) {
      std::vector<double>& sum = m.*field;
      for (const TopKMetrics& p : partials_) {
        for (size_t ki = 0; ki < sum.size(); ++ki) sum[ki] += (p.*field)[ki];
      }
      for (double& v : sum) v *= inv;
    }
    return m;
  }

 private:
  int64_t num_users_;
  TopKMetrics zero_;                   ///< ks set, every sum zero
  std::vector<TopKMetrics> partials_;  ///< per-chunk sums, not yet divided
};

/// Dense ranking path: scores users in chunks of kBatch, selects each
/// row's top-max(K) with training items excluded (TopKHeap::OfferRow),
/// and accumulates metrics against `relevant_of(user)` (sorted item ids;
/// users with an empty set are skipped). Chunks run in parallel on the
/// shared runtime, each with its own score matrix, heap and list buffer.
/// The scorer must tolerate concurrent invocations.
template <typename RelevantFn>
TopKMetrics RankAndScore(const Dataset& dataset,
                         const Evaluator::ScoreFn& scorer,
                         const std::vector<std::vector<int32_t>>& train_items,
                         const std::vector<int>& ks, int max_k,
                         const std::vector<int32_t>& users,
                         const RelevantFn& relevant_of) {
  std::vector<int32_t> batch_users;
  for (int32_t u : users) {
    if (u >= 0 && u < dataset.num_users && !relevant_of(u).empty()) {
      batch_users.push_back(u);
    }
  }
  const int64_t num_users = static_cast<int64_t>(batch_users.size());
  ChunkedMetrics metrics(ks, num_users);
  ParallelFor(0, num_users, kBatch, [&](int64_t begin, int64_t end) {
    const std::vector<int32_t> chunk(batch_users.begin() + begin,
                                     batch_users.begin() + end);
    const Matrix scores = scorer(chunk);
    GA_CHECK_EQ(scores.rows(), static_cast<int64_t>(chunk.size()));
    GA_CHECK_EQ(scores.cols(), dataset.num_items);
    retrieval::TopKHeap heap(max_k);
    retrieval::TopKList list;
    for (size_t i = 0; i < chunk.size(); ++i) {
      const int32_t u = chunk[i];
      heap.OfferRow(scores.row(static_cast<int64_t>(i)), dataset.num_items,
                    0, train_items[u]);
      heap.TakeSortedDescending(&list);
      metrics.Add(begin + static_cast<int64_t>(i), list.items,
                  relevant_of(u));
    }
  });
  return metrics.Finish();
}

}  // namespace

TopKMetrics Evaluator::EvaluateUsers(const ScoreFn& scorer,
                                     const std::vector<int32_t>& users) const {
  GA_TRACE_SPAN("eval");
  return RankAndScore(
      *dataset_, scorer, train_items_, ks_, max_k_, users,
      [this](int32_t u) -> const std::vector<int32_t>& {
        return test_items_[u];
      });
}

TopKMetrics Evaluator::EvaluateRetrieval(
    const retrieval::Retriever& retriever,
    const Matrix& user_embeddings) const {
  GA_TRACE_SPAN("eval_retrieval");
  GA_CHECK_EQ(user_embeddings.rows(),
              static_cast<int64_t>(dataset_->num_users));
  const std::vector<int32_t>& users = evaluable_users_;
  ChunkedMetrics metrics(ks_, static_cast<int64_t>(users.size()));
  if (users.empty()) return metrics.Finish();
  // One batched retrieval over every evaluated user; the retriever owns
  // the parallelism and excludes training items at the source.
  std::vector<retrieval::TopKList> lists;
  retriever.RetrieveBatch(
      GatherRows(user_embeddings, users), max_k_,
      [&](int64_t qi) -> const std::vector<int32_t>& {
        return train_items_[users[static_cast<size_t>(qi)]];
      },
      &lists);
  for (size_t i = 0; i < users.size(); ++i) {
    metrics.Add(static_cast<int64_t>(i), lists[i].items,
                test_items_[users[i]]);
  }
  return metrics.Finish();
}

TopKMetrics Evaluator::EvaluateItemGroup(
    const ScoreFn& scorer, const std::vector<int32_t>& item_group) const {
  GA_CHECK(std::is_sorted(item_group.begin(), item_group.end()));
  // Precompute each user's test items restricted to the group.
  std::vector<std::vector<int32_t>> restricted(dataset_->num_users);
  for (int32_t u : evaluable_users_) {
    std::set_intersection(test_items_[u].begin(), test_items_[u].end(),
                          item_group.begin(), item_group.end(),
                          std::back_inserter(restricted[u]));
  }
  return RankAndScore(*dataset_, scorer, train_items_, ks_, max_k_,
                      evaluable_users_,
                      [&restricted](int32_t u) -> const std::vector<int32_t>& {
                        return restricted[u];
                      });
}

}  // namespace graphaug
