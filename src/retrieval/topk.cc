#include "retrieval/topk.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "tensor/ops.h"

namespace graphaug::retrieval {

void TopKHeap::OfferRow(const float* scores, int64_t n, int32_t first_id,
                        const std::vector<int32_t>& sorted_exclude) {
  if (k_ <= 0) return;
  const int64_t end_id = first_id + n;
  auto ex = std::lower_bound(sorted_exclude.begin(), sorted_exclude.end(),
                             first_id);
  // Candidates strictly below the floor are dead; an equal score can still
  // win on the id tie-break, so the test must stay a strict `<`. Before
  // the heap fills, the floor is -inf and every candidate reaches Offer.
  float floor_score =
      full() ? worst_score() : -std::numeric_limits<float>::infinity();
  int64_t c = 0;
  for (;;) {
    // Walk the run of candidates up to the next excluded id in the row.
    const int64_t stop =
        ex != sorted_exclude.end() && *ex < end_id ? *ex - first_id : n;
    for (; c < stop; ++c) {
      if (scores[c] < floor_score) continue;
      Offer(scores[c], static_cast<int32_t>(first_id + c));
      if (full()) floor_score = worst_score();
    }
    if (stop == n) return;
    c = stop + 1;
    ++ex;
  }
}

void TopKHeap::TakeSortedDescending(TopKList* out) {
  std::sort(slots_.begin(), slots_.end(),
            [](const std::pair<float, int32_t>& a,
               const std::pair<float, int32_t>& b) {
              return Better(a.first, a.second, b.first, b.second);
            });
  out->items.clear();
  out->scores.clear();
  out->items.reserve(slots_.size());
  out->scores.reserve(slots_.size());
  for (const auto& [score, id] : slots_) {
    out->items.push_back(id);
    out->scores.push_back(score);
  }
  slots_.clear();
}

TopKList Retriever::Retrieve(const Matrix& query, int k,
                             const std::vector<int32_t>& exclude) const {
  GA_CHECK_EQ(query.rows(), 1);
  std::vector<TopKList> out;
  RetrieveBatch(query, k,
                [&exclude](int64_t) -> const std::vector<int32_t>& {
                  return exclude;
                },
                &out);
  return std::move(out[0]);
}

const std::vector<int32_t>& Retriever::NoExclusions() {
  static const std::vector<int32_t>* empty = new std::vector<int32_t>();
  return *empty;
}

TopKScorer::TopKScorer(const Matrix& item_embeddings)
    : num_items_(item_embeddings.rows()), dim_(item_embeddings.cols()) {
  GA_CHECK_GT(num_items_, 0);
  GA_CHECK_GT(dim_, 0);
  for (int64_t t0 = 0; t0 < num_items_; t0 += kItemTile) {
    tiles_.push_back(
        SliceRows(item_embeddings, t0, std::min(kItemTile, num_items_ - t0)));
  }
}

void TopKScorer::RetrieveBatch(const Matrix& queries, int k,
                               const ExcludeFn& exclude,
                               std::vector<TopKList>* out) const {
  GA_TRACE_SPAN("topk_heap");
  GA_CHECK_EQ(queries.cols(), dim_);
  const int64_t q = queries.rows();
  out->assign(static_cast<size_t>(q), TopKList{});
  if (q == 0 || k <= 0) return;

  // Static decomposition over queries: each chunk owns its query slice,
  // per-tile score buffer, and heaps, so results are bitwise identical at
  // any thread count. Scores themselves are chunk-size independent (the
  // GEMM accumulates each element over ascending k regardless of M/N
  // blocking), so the chunked batch path and the single-query path agree.
  ParallelFor(0, q, kQueryChunk, [&](int64_t begin, int64_t end) {
    const int64_t rows = end - begin;
    const Matrix qchunk = SliceRows(queries, begin, rows);
    Matrix tile_scores;
    std::vector<TopKHeap> heaps;
    heaps.reserve(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) heaps.emplace_back(k);
    int64_t t0 = 0;
    for (const Matrix& tile : tiles_) {
      Gemm(qchunk, false, tile, true, 1.f, 0.f, &tile_scores);
      for (int64_t i = 0; i < rows; ++i) {
        heaps[static_cast<size_t>(i)].OfferRow(
            tile_scores.row(i), tile.rows(), static_cast<int32_t>(t0),
            exclude(begin + i));
      }
      t0 += tile.rows();
    }
    for (int64_t i = 0; i < rows; ++i) {
      heaps[static_cast<size_t>(i)].TakeSortedDescending(
          &(*out)[static_cast<size_t>(begin + i)]);
    }
  });

  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Get();
    reg.GetCounter("retrieval.queries")->Inc(q);
    // The heap path scores every non-excluded item; exclusions are a
    // rounding error at serving scale, so count the full sweep.
    reg.GetCounter("retrieval.items_scored")->Inc(q * num_items_);
  }
}

}  // namespace graphaug::retrieval
