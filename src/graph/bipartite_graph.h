#ifndef GRAPHAUG_GRAPH_BIPARTITE_GRAPH_H_
#define GRAPHAUG_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace graphaug {

/// One observed user-item interaction.
struct Edge {
  int32_t user = 0;
  int32_t item = 0;
};

inline bool operator==(const Edge& a, const Edge& b) {
  return a.user == b.user && a.item == b.item;
}
inline bool operator<(const Edge& a, const Edge& b) {
  return a.user != b.user ? a.user < b.user : a.item < b.item;
}

/// The symmetric homogeneous adjacency of a bipartite interaction graph,
/// Laplacian-normalized as in LightGCN / the GraphAug paper:
///   Ã = D^{-1/2} (A + s·I) D^{-1/2}
/// laid out over I+J nodes (users first, then items). `nnz_to_edge` maps
/// each CSR nonzero back to the interaction index that produced it (or -1
/// for self-loop entries), which lets differentiable edge weights be pushed
/// into the CSR value array (GraphAug Eq. 5).
struct NormalizedAdjacency {
  CsrMatrix matrix;                 ///< (I+J) x (I+J) normalized adjacency.
  std::vector<int64_t> nnz_to_edge; ///< size nnz; -1 marks self-loops.
  std::vector<float> base_values;   ///< normalization coefficients per nnz.

  /// Rebuilds the CSR value array from per-interaction weights:
  /// value[k] = base_values[k] * (nnz_to_edge[k] >= 0 ? w[edge] : 1).
  /// w.size() must equal the number of interactions. Both directions of
  /// an interaction share one base value and one weight, so the weighted
  /// matrix is bitwise symmetric like `matrix`.
  std::vector<float> WeightedValues(const std::vector<float>& w) const;
};

/// Immutable bipartite user-item interaction graph. Construction sorts and
/// dedups the edge list; per-user and per-item CSR views are materialized
/// once and shared by samplers, evaluators, and encoders.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// Builds from the interaction list; duplicates are removed.
  BipartiteGraph(int32_t num_users, int32_t num_items,
                 std::vector<Edge> edges);

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  int32_t num_nodes() const { return num_users_ + num_items_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }

  /// Observed density |E| / (I*J).
  double Density() const;

  /// Sorted, deduplicated interaction list.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Items of user u (sorted).
  const std::vector<int32_t>& ItemsOf(int32_t u) const {
    return user_items_[u];
  }
  /// Users of item v (sorted).
  const std::vector<int32_t>& UsersOf(int32_t v) const {
    return item_users_[v];
  }

  int64_t UserDegree(int32_t u) const {
    return static_cast<int64_t>(user_items_[u].size());
  }
  int64_t ItemDegree(int32_t v) const {
    return static_cast<int64_t>(item_users_[v].size());
  }

  /// True if (u, v) is an observed interaction. O(log deg(u)).
  bool HasEdge(int32_t u, int32_t v) const;

  /// Builds the symmetric normalized adjacency over I+J nodes.
  /// `self_loop_weight` of 0 omits self-loops (LightGCN style); 1 matches
  /// the Ã = D^{-1/2}(A+I)D^{-1/2} form used by the mixhop encoder.
  NormalizedAdjacency BuildNormalizedAdjacency(float self_loop_weight) const;

  /// Returns a new graph with the given edges appended (dedup applied).
  BipartiteGraph WithExtraEdges(const std::vector<Edge>& extra) const;

  /// Returns a new graph keeping only edges where `keep[i]` is true.
  BipartiteGraph FilterEdges(const std::vector<bool>& keep) const;

 private:
  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<int32_t>> user_items_;
  std::vector<std::vector<int32_t>> item_users_;
};

}  // namespace graphaug

#endif  // GRAPHAUG_GRAPH_BIPARTITE_GRAPH_H_
