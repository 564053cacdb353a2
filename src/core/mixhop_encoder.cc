#include "core/mixhop_encoder.h"

#include <algorithm>

namespace graphaug {

MixhopEncoder::MixhopEncoder(ParamStore* store, const std::string& name,
                             int dim, int num_layers, std::vector<int> hops,
                             float leaky_slope, Rng* rng, MixhopMode mode,
                             bool activation)
    : dim_(dim),
      num_layers_(num_layers),
      hops_(std::move(hops)),
      leaky_slope_(leaky_slope),
      mode_(mode),
      activation_(activation) {
  GA_CHECK(!hops_.empty());
  GA_CHECK_GE(num_layers, 1);
  for (int h : hops_) GA_CHECK_GE(h, 0);
  const int64_t n_hops = static_cast<int64_t>(hops_.size());
  for (int l = 0; l < num_layers_; ++l) {
    if (mode_ == MixhopMode::kMatrixTransform) {
      std::vector<Linear> per_hop;
      for (size_t m = 0; m < hops_.size(); ++m) {
        per_hop.emplace_back(store,
                             name + ".l" + std::to_string(l) + ".w" +
                                 std::to_string(hops_[m]),
                             dim, dim, rng, /*bias=*/false);
      }
      hop_transforms_.push_back(std::move(per_hop));
      combine_.emplace_back(store,
                            name + ".l" + std::to_string(l) + ".combine",
                            n_hops * dim, dim, rng, /*bias=*/false);
    } else {
      std::vector<Parameter*> gates;
      for (size_t m = 0; m < hops_.size(); ++m) {
        Parameter* g = store->Create(
            name + ".l" + std::to_string(l) + ".gate" +
                std::to_string(hops_[m]),
            1, dim);
        // Uniform mixing at init: the encoder starts as LightGCN-like
        // multi-hop smoothing and learns where to depart from it.
        g->value.Fill(1.f / static_cast<float>(n_hops));
        gates.push_back(g);
      }
      hop_gates_.push_back(std::move(gates));
    }
  }
}

Var MixhopEncoder::EncodeImpl(Tape* tape,
                              const std::function<Var(Var)>& propagate,
                              Var base) const {
  const int max_hop = *std::max_element(hops_.begin(), hops_.end());
  Var h = base;
  Var sum = base;
  for (int l = 0; l < num_layers_; ++l) {
    // Compute Ã^m h incrementally: powers[m] = Ã powers[m-1].
    std::vector<Var> powers;
    powers.reserve(max_hop + 1);
    powers.push_back(h);
    for (int m = 1; m <= max_hop; ++m) {
      powers.push_back(propagate(powers.back()));
    }
    Var mixed;
    if (mode_ == MixhopMode::kMatrixTransform) {
      for (size_t mi = 0; mi < hops_.size(); ++mi) {
        Var hm = hop_transforms_[l][mi].Forward(
            tape, powers[static_cast<size_t>(hops_[mi])]);
        mixed = mi == 0 ? hm : ag::ConcatCols(mixed, hm);
      }
      mixed = combine_[l].Forward(tape, mixed);
    } else {
      for (size_t mi = 0; mi < hops_.size(); ++mi) {
        Var hm = ag::MulRowBroadcast(
            powers[static_cast<size_t>(hops_[mi])],
            ag::Leaf(tape, hop_gates_[l][mi]));
        mixed = mi == 0 ? hm : ag::Add(mixed, hm);
      }
    }
    h = activation_ ? ag::LeakyRelu(mixed, leaky_slope_) : mixed;
    sum = ag::Add(sum, h);
  }
  return ag::Scale(sum, 1.f / static_cast<float>(num_layers_ + 1));
}

Var MixhopEncoder::Encode(Tape* tape, const CsrMatrix* adj, Var base) const {
  return EncodeImpl(
      tape, [adj](Var h) { return ag::Spmm(adj, h); }, base);
}

Var MixhopEncoder::EncodeWeighted(Tape* tape, const NormalizedAdjacency* adj,
                                  Var edge_w, Var base) const {
  return EncodeImpl(
      tape,
      [adj, edge_w](Var h) { return ag::EdgeWeightedSpmm(adj, edge_w, h); },
      base);
}

}  // namespace graphaug
