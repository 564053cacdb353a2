#include "graph/bipartite_graph.h"

#include <algorithm>
#include <cmath>

namespace graphaug {

std::vector<float> NormalizedAdjacency::WeightedValues(
    const std::vector<float>& w) const {
  std::vector<float> out(base_values.size());
  for (size_t k = 0; k < base_values.size(); ++k) {
    const int64_t e = nnz_to_edge[k];
    out[k] = base_values[k] * (e >= 0 ? w[static_cast<size_t>(e)] : 1.f);
  }
  return out;
}

BipartiteGraph::BipartiteGraph(int32_t num_users, int32_t num_items,
                               std::vector<Edge> edges)
    : num_users_(num_users), num_items_(num_items), edges_(std::move(edges)) {
  GA_CHECK_GT(num_users, 0);
  GA_CHECK_GT(num_items, 0);
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  user_items_.assign(num_users_, {});
  item_users_.assign(num_items_, {});
  for (const Edge& e : edges_) {
    GA_CHECK(e.user >= 0 && e.user < num_users_) << "user id " << e.user;
    GA_CHECK(e.item >= 0 && e.item < num_items_) << "item id " << e.item;
    user_items_[e.user].push_back(e.item);
    item_users_[e.item].push_back(e.user);
  }
  for (auto& v : item_users_) std::sort(v.begin(), v.end());
  // user_items_ already sorted because edges_ are sorted by (user, item).
}

double BipartiteGraph::Density() const {
  return static_cast<double>(num_edges()) /
         (static_cast<double>(num_users_) * static_cast<double>(num_items_));
}

bool BipartiteGraph::HasEdge(int32_t u, int32_t v) const {
  const auto& items = user_items_[u];
  return std::binary_search(items.begin(), items.end(), v);
}

NormalizedAdjacency BipartiteGraph::BuildNormalizedAdjacency(
    float self_loop_weight) const {
  const int64_t n = num_nodes();
  // Degrees including the self-loop contribution.
  std::vector<double> deg(n, static_cast<double>(self_loop_weight));
  for (const Edge& e : edges_) {
    deg[e.user] += 1.0;
    deg[num_users_ + e.item] += 1.0;
  }
  std::vector<double> dinv(n);
  for (int64_t i = 0; i < n; ++i) {
    dinv[i] = deg[i] > 0 ? 1.0 / std::sqrt(deg[i]) : 0.0;
  }

  // Assemble entries carrying the originating interaction index so we can
  // recover the nnz -> edge mapping after CSR sorting.
  struct Tagged {
    int32_t row, col;
    float value;
    int64_t edge;  // -1 for self loops
  };
  std::vector<Tagged> tagged;
  tagged.reserve(edges_.size() * 2 + (self_loop_weight > 0 ? n : 0));
  for (size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    const int32_t u = e.user;
    const int32_t v = num_users_ + e.item;
    const float w = static_cast<float>(dinv[u] * dinv[v]);
    tagged.push_back({u, v, w, static_cast<int64_t>(i)});
    tagged.push_back({v, u, w, static_cast<int64_t>(i)});
  }
  if (self_loop_weight > 0.f) {
    for (int64_t i = 0; i < n; ++i) {
      const float w =
          static_cast<float>(self_loop_weight * dinv[i] * dinv[i]);
      tagged.push_back({static_cast<int32_t>(i), static_cast<int32_t>(i), w,
                        int64_t{-1}});
    }
  }
  std::sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  std::vector<CooEntry> entries;
  entries.reserve(tagged.size());
  NormalizedAdjacency adj;
  adj.nnz_to_edge.reserve(tagged.size());
  adj.base_values.reserve(tagged.size());
  for (const Tagged& t : tagged) {
    entries.push_back({t.row, t.col, t.value});
    adj.nnz_to_edge.push_back(t.edge);
    adj.base_values.push_back(t.value);
  }
  adj.matrix = CsrMatrix::FromCoo(n, n, std::move(entries));
  GA_CHECK_EQ(adj.matrix.nnz(), static_cast<int64_t>(tagged.size()))
      << "unexpected duplicate adjacency entries";
  return adj;
}

BipartiteGraph BipartiteGraph::WithExtraEdges(
    const std::vector<Edge>& extra) const {
  std::vector<Edge> all = edges_;
  all.insert(all.end(), extra.begin(), extra.end());
  return BipartiteGraph(num_users_, num_items_, std::move(all));
}

BipartiteGraph BipartiteGraph::FilterEdges(
    const std::vector<bool>& keep) const {
  GA_CHECK_EQ(keep.size(), edges_.size());
  std::vector<Edge> kept;
  kept.reserve(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (keep[i]) kept.push_back(edges_[i]);
  }
  return BipartiteGraph(num_users_, num_items_, std::move(kept));
}

}  // namespace graphaug
