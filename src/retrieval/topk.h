#ifndef GRAPHAUG_RETRIEVAL_TOPK_H_
#define GRAPHAUG_RETRIEVAL_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace graphaug::retrieval {

/// Top-K retrieval layer over trained embeddings (DESIGN.md §10).
///
/// The evaluation protocol and the `recommend` CLI only ever need the
/// top-max(K) items of each user's score row, yet the dense path scores
/// and ranks every item — O(users × items) work that dominates serving
/// cost. A Retriever answers exactly the question asked: "the k best
/// items for this query embedding, excluding these ids", under the
/// maximum-inner-product (MIPS) scoring contract score(q, i) = q · x_i.
///
/// Ranking contract, defined by TopKHeap below: items are ordered by
/// score descending, ties broken by ascending item id, and excluded ids
/// are never returned. TopKHeap::OfferRow is the one item-selection loop
/// of the dense evaluator, TopKScorer and `recommend --index=exact`. An
/// *exact* retriever (TopKScorer; MipsIndex at bound_slack = 1) returns
/// bit-for-bit the same lists as the dense path, because every score it
/// emits is computed with the same ascending-k separate-rounding float
/// accumulation the dispatched GEMM uses.

/// One query's ranked result: items best-first, parallel scores.
struct TopKList {
  std::vector<int32_t> items;
  std::vector<float> scores;
};

/// Bounded best-k selection buffer: a binary min-heap whose root is the
/// current *worst* kept entry, so a stream of (score, id) candidates is
/// reduced to the best k in O(n log k) worst case — and O(n) in practice,
/// since most candidates fail the one-comparison floor test. Higher score
/// wins, equal scores prefer the lower item id.
class TopKHeap {
 public:
  explicit TopKHeap(int k) : k_(k) {
    slots_.reserve(static_cast<size_t>(std::max(k, 0)));
  }

  /// True when `a` outranks `b`.
  static bool Better(float sa, int32_t ia, float sb, int32_t ib) {
    return sa != sb ? sa > sb : ia < ib;
  }

  bool full() const { return static_cast<int>(slots_.size()) >= k_; }

  /// Score of the worst kept entry; candidates strictly below this are
  /// dead (equal scores can still win on the id tie-break, so pruning
  /// must use strict `<`). Only meaningful when full().
  float worst_score() const { return slots_.front().first; }

  void Offer(float score, int32_t id) {
    if (!full()) {
      slots_.emplace_back(score, id);
      std::push_heap(slots_.begin(), slots_.end(), WorseOnTop);
      return;
    }
    const auto& worst = slots_.front();
    if (!Better(score, id, worst.first, worst.second)) return;
    // Overwrite the worst entry and sift it down below every worse child:
    // one sift instead of pop_heap's plus push_heap's, and replacements
    // dominate selection cost on short rows.
    const size_t n = slots_.size();
    size_t i = 0;
    for (size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && WorseOnTop(slots_[c], slots_[c + 1])) ++c;
      if (!Better(score, id, slots_[c].first, slots_[c].second)) break;
      slots_[i] = slots_[c];
      i = c;
    }
    slots_[i] = {score, id};
  }

  /// Offers items first_id .. first_id + n - 1, whose scores are
  /// scores[0 .. n), skipping every id in `sorted_exclude` (ascending;
  /// ids outside the row are ignored). Rows may be offered in any order
  /// and over several calls; the result depends only on the union. With
  /// k <= 0 nothing is kept.
  void OfferRow(const float* scores, int64_t n, int32_t first_id,
                const std::vector<int32_t>& sorted_exclude);

  /// Drains the heap into `out`, best first, reusing its storage (the
  /// heap is emptied).
  void TakeSortedDescending(TopKList* out);

 private:
  /// std::*_heap comparator: treat "better" as "less" so the heap top is
  /// the worst kept entry.
  static bool WorseOnTop(const std::pair<float, int32_t>& a,
                         const std::pair<float, int32_t>& b) {
    return Better(a.first, a.second, b.first, b.second);
  }

  int k_;
  std::vector<std::pair<float, int32_t>> slots_;
};

/// Interface of every top-K retrieval engine. Implementations must be
/// usable concurrently from several threads after construction (all
/// queries are const) and deterministic: the same query yields the same
/// list at any thread count.
class Retriever {
 public:
  virtual ~Retriever() = default;

  /// Identifier as it appears in CLI flags and bench output.
  virtual std::string name() const = 0;

  /// Per-query exclusion lists (sorted ascending item ids); called once
  /// per query row. Excluded ids are never scored or returned.
  using ExcludeFn = std::function<const std::vector<int32_t>&(int64_t)>;

  /// Retrieves the top-k list for every row of `queries` (Q x d). Rows of
  /// `out` are indexed like rows of `queries`. Parallelized over queries
  /// on the shared runtime with bitwise-identical results at any thread
  /// count; lists may be shorter than k when fewer candidates exist.
  virtual void RetrieveBatch(const Matrix& queries, int k,
                             const ExcludeFn& exclude,
                             std::vector<TopKList>* out) const = 0;

  /// Single-query convenience over RetrieveBatch; `query` is 1 x d.
  TopKList Retrieve(const Matrix& query, int k,
                    const std::vector<int32_t>& exclude) const;

  /// Shared empty exclusion list for queries with nothing to mask.
  static const std::vector<int32_t>& NoExclusions();
};

/// Exact partial-heap scorer: tiles the item embedding table through the
/// dispatched GEMM (queries are scored a tile of items at a time, so a
/// full score row is never materialized) and keeps a per-query TopKHeap.
/// Scores are bitwise identical to the dense oracle's GEMM scores, so
/// the returned lists equal the dense ranking exactly, ties included.
class TopKScorer : public Retriever {
 public:
  /// Copies `item_embeddings` (J x d) into GEMM-ready tiles; the caller's
  /// matrix need not outlive the scorer.
  explicit TopKScorer(const Matrix& item_embeddings);

  std::string name() const override { return "heap"; }

  void RetrieveBatch(const Matrix& queries, int k, const ExcludeFn& exclude,
                     std::vector<TopKList>* out) const override;

  int64_t num_items() const { return num_items_; }
  int64_t dim() const { return dim_; }

  /// Items per tile: large enough to amortize GEMM packing, small enough
  /// that a query chunk's tile scores stay cache-resident.
  static constexpr int64_t kItemTile = 1024;
  /// Queries per parallel chunk (also the GEMM M dimension per tile).
  /// Matches the dense evaluator's 128-user batch so each tile's B-panel
  /// packing is amortized over the same number of query rows.
  static constexpr int64_t kQueryChunk = 128;

 private:
  int64_t num_items_ = 0;
  int64_t dim_ = 0;
  std::vector<Matrix> tiles_;  ///< row slices of the item table
};

}  // namespace graphaug::retrieval

#endif  // GRAPHAUG_RETRIEVAL_TOPK_H_
