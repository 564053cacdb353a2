#include "eval/evaluator.h"

#include <algorithm>
#include <limits>
#include <numeric>

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

/// Per-chunk metric accumulator; one instance per user chunk so chunks
/// can be ranked on different threads and merged deterministically.
struct MetricPartial {
  std::vector<double> recall, ndcg, precision, hit_rate, map, mrr;

  explicit MetricPartial(size_t nks)
      : recall(nks, 0), ndcg(nks, 0), precision(nks, 0), hit_rate(nks, 0),
        map(nks, 0), mrr(nks, 0) {}
};

/// Shared ranking loop: scores users in fixed chunks of kBatch, masks
/// training items, extracts the top-K ranking with a per-chunk selection
/// buffer, and accumulates metrics against the relevance sets provided by
/// `relevant_of(user)` (sorted item ids; users with an empty set are
/// skipped). Chunks are ranked in parallel across the shared runtime —
/// each chunk owns its score matrix, selection buffers, and metric partial
/// — and partials are merged in chunk order, i.e. user order, so results
/// are identical at any thread count. The scorer must tolerate concurrent
/// invocations.
template <typename RelevantFn>
TopKMetrics RankAndScore(const Dataset& dataset,
                         const Evaluator::ScoreFn& scorer,
                         const std::vector<std::vector<int32_t>>& train_items,
                         const std::vector<int>& ks, int max_k,
                         const std::vector<int32_t>& users,
                         const RelevantFn& relevant_of) {
  TopKMetrics m;
  m.ks = ks;
  m.recall.assign(ks.size(), 0);
  m.ndcg.assign(ks.size(), 0);
  m.precision.assign(ks.size(), 0);
  m.hit_rate.assign(ks.size(), 0);
  m.map.assign(ks.size(), 0);
  m.mrr.assign(ks.size(), 0);

  std::vector<int32_t> batch_users;
  for (int32_t u : users) {
    if (u >= 0 && u < dataset.num_users && !relevant_of(u).empty()) {
      batch_users.push_back(u);
    }
  }
  if (batch_users.empty()) return m;

  constexpr int64_t kBatch = 128;
  const int64_t num_users = static_cast<int64_t>(batch_users.size());
  const int64_t num_chunks = (num_users + kBatch - 1) / kBatch;
  std::vector<MetricPartial> partials(static_cast<size_t>(num_chunks),
                                      MetricPartial(ks.size()));
  ParallelFor(0, num_users, kBatch, [&](int64_t begin, int64_t end) {
    MetricPartial& p = partials[static_cast<size_t>(begin / kBatch)];
    const std::vector<int32_t> chunk(batch_users.begin() + begin,
                                     batch_users.begin() + end);
    Matrix scores = scorer(chunk);
    GA_CHECK_EQ(scores.rows(), static_cast<int64_t>(chunk.size()));
    GA_CHECK_EQ(scores.cols(), dataset.num_items);
    std::vector<int32_t> ranked;
    std::vector<int32_t> order(dataset.num_items);
    for (size_t i = 0; i < chunk.size(); ++i) {
      const int32_t u = chunk[i];
      float* row = scores.row(static_cast<int64_t>(i));
      for (int32_t v : train_items[u]) {
        row[v] = -std::numeric_limits<float>::infinity();
      }
      std::iota(order.begin(), order.end(), 0);
      const int depth = std::min<int>(max_k, static_cast<int>(order.size()));
      std::partial_sort(order.begin(), order.begin() + depth, order.end(),
                        [row](int32_t a, int32_t b) {
                          return row[a] != row[b] ? row[a] > row[b] : a < b;
                        });
      ranked.assign(order.begin(), order.begin() + depth);
      AccumulateUserMetrics(ranked, relevant_of(u), ks, &p.recall, &p.ndcg,
                            &p.precision, &p.hit_rate, &p.map, &p.mrr);
    }
  });
  for (const MetricPartial& p : partials) {
    for (size_t ki = 0; ki < ks.size(); ++ki) {
      m.recall[ki] += p.recall[ki];
      m.ndcg[ki] += p.ndcg[ki];
      m.precision[ki] += p.precision[ki];
      m.hit_rate[ki] += p.hit_rate[ki];
      m.map[ki] += p.map[ki];
      m.mrr[ki] += p.mrr[ki];
    }
  }
  m.num_users = static_cast<int>(num_users);
  const double inv = 1.0 / m.num_users;
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    m.recall[ki] *= inv;
    m.ndcg[ki] *= inv;
    m.precision[ki] *= inv;
    m.hit_rate[ki] *= inv;
    m.map[ki] *= inv;
    m.mrr[ki] *= inv;
  }
  return m;
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
  return EvaluateRetrievalUsers(retriever, user_embeddings, evaluable_users_);
}

TopKMetrics Evaluator::EvaluateRetrievalUsers(
    const retrieval::Retriever& retriever, const Matrix& user_embeddings,
    const std::vector<int32_t>& users) const {
  GA_TRACE_SPAN("eval_retrieval");
  GA_CHECK_EQ(user_embeddings.rows(),
              static_cast<int64_t>(dataset_->num_users));
  TopKMetrics m;
  m.ks = ks_;
  m.recall.assign(ks_.size(), 0);
  m.ndcg.assign(ks_.size(), 0);
  m.precision.assign(ks_.size(), 0);
  m.hit_rate.assign(ks_.size(), 0);
  m.map.assign(ks_.size(), 0);
  m.mrr.assign(ks_.size(), 0);

  std::vector<int32_t> batch_users;
  for (int32_t u : users) {
    if (u >= 0 && u < dataset_->num_users && !test_items_[u].empty()) {
      batch_users.push_back(u);
    }
  }
  if (batch_users.empty()) return m;

  // One batched retrieval over every evaluated user; the retriever owns
  // the parallelism (deterministic at any thread count). Training items
  // are excluded at the source instead of masked to -inf — both paths
  // produce the same finite-score ranking prefix, and masked items can
  // never be relevant (train and test are disjoint), so metrics match the
  // dense oracle exactly for exact retrievers.
  const Matrix queries = GatherRows(user_embeddings, batch_users);
  std::vector<retrieval::TopKList> lists;
  retriever.RetrieveBatch(
      queries, max_k_,
      [&](int64_t qi) -> const std::vector<int32_t>& {
        return train_items_[batch_users[static_cast<size_t>(qi)]];
      },
      &lists);

  // Metric accumulation replicates the dense path's exact summation
  // structure — per-kBatch-chunk partials merged in chunk order — so the
  // resulting doubles are bit-for-bit identical to Evaluate() when the
  // retriever is exact (same per-user values, same addition grouping).
  constexpr int64_t kBatch = 128;
  const int64_t num_users = static_cast<int64_t>(batch_users.size());
  const int64_t num_chunks = (num_users + kBatch - 1) / kBatch;
  std::vector<MetricPartial> partials(static_cast<size_t>(num_chunks),
                                      MetricPartial(ks_.size()));
  for (int64_t i = 0; i < num_users; ++i) {
    MetricPartial& p = partials[static_cast<size_t>(i / kBatch)];
    const int32_t u = batch_users[static_cast<size_t>(i)];
    AccumulateUserMetrics(lists[static_cast<size_t>(i)].items, test_items_[u],
                          ks_, &p.recall, &p.ndcg, &p.precision, &p.hit_rate,
                          &p.map, &p.mrr);
  }
  for (const MetricPartial& p : partials) {
    for (size_t ki = 0; ki < ks_.size(); ++ki) {
      m.recall[ki] += p.recall[ki];
      m.ndcg[ki] += p.ndcg[ki];
      m.precision[ki] += p.precision[ki];
      m.hit_rate[ki] += p.hit_rate[ki];
      m.map[ki] += p.map[ki];
      m.mrr[ki] += p.mrr[ki];
    }
  }
  m.num_users = static_cast<int>(num_users);
  const double inv = 1.0 / m.num_users;
  for (size_t ki = 0; ki < ks_.size(); ++ki) {
    m.recall[ki] *= inv;
    m.ndcg[ki] *= inv;
    m.precision[ki] *= inv;
    m.hit_rate[ki] *= inv;
    m.map[ki] *= inv;
    m.mrr[ki] *= inv;
  }
  return m;
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
