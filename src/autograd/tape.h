#ifndef GRAPHAUG_AUTOGRAD_TAPE_H_
#define GRAPHAUG_AUTOGRAD_TAPE_H_

#include <functional>
#include <utility>
#include <vector>

#include "autograd/param.h"
#include "tensor/matrix.h"

namespace graphaug {

class Tape;

/// Lightweight handle to a node on a Tape. Copyable; valid until the tape
/// is destroyed or Reset().
class Var {
 public:
  Var() = default;
  Var(Tape* tape, int id) : tape_(tape), id_(id) {}

  bool valid() const { return tape_ != nullptr; }
  Tape* tape() const { return tape_; }
  int id() const { return id_; }

  /// Forward value of this node.
  const Matrix& value() const;
  int64_t rows() const { return value().rows(); }
  int64_t cols() const { return value().cols(); }

 private:
  Tape* tape_ = nullptr;
  int id_ = -1;
};

/// Tape-based reverse-mode automatic differentiation. One tape records one
/// forward pass; ops (see autograd/ops.h) append nodes, Backward() walks
/// the nodes in reverse creation order (a valid topological order since ops
/// only consume earlier nodes). Typical training-step usage:
///
///   Tape tape;
///   Var e  = ag::Leaf(&tape, embedding_param);
///   Var h  = ag::Spmm(&tape, &adj, e);
///   Var l  = ag::MeanAll(&tape, ag::Softplus(&tape, ...));
///   tape.Backward(l);          // accumulates into Parameter::grad
///   optimizer.Step(&store);
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Backward closure of one node: receives the node's accumulated
  /// upstream gradient and routes it to the inputs via AccumulateGrad /
  /// parameter grads. The gradient buffer belongs to the closure: nothing
  /// reads it afterwards, so the closure may overwrite it in place or
  /// move it into an input's accumulator.
  using BackwardFn = std::function<void(Tape*, Matrix&)>;

  /// Appends a node holding `value`. `backward` may be empty for
  /// constants. `needs_grad` marks whether any ancestor is trainable.
  Var Emit(Matrix value, bool needs_grad, BackwardFn backward);

  /// Creates a leaf node reading a parameter's current value; gradients
  /// accumulate into `param->grad`.
  Var Leaf(Parameter* param);

  /// Creates a constant (no gradient) node.
  Var Constant(Matrix value);

  /// Runs reverse-mode accumulation seeding d(root)/d(root) = 1. The root
  /// must be a 1x1 scalar node.
  void Backward(Var root);

  /// Number of nodes currently on the tape.
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Drops all nodes (parameters are untouched).
  void Reset();

  /// Forward value of node `id`.
  const Matrix& ValueOf(int id) const {
    GA_DCHECK(id >= 0 && id < size());
    return nodes_[static_cast<size_t>(id)].value;
  }

  /// True if node `id` participates in gradient computation.
  bool NeedsGrad(int id) const {
    return nodes_[static_cast<size_t>(id)].needs_grad;
  }

  /// Adds `g` into the gradient accumulator of node `id`; the first
  /// gradient to arrive becomes the accumulator. No-op for nodes that
  /// don't need gradients. The rvalue overload moves `g` in on first
  /// arrival instead of copying it; it leaves `g` untouched when the node
  /// needs no gradient.
  void AccumulateGrad(int id, const Matrix& g) { Accumulate(id, g); }
  void AccumulateGrad(int id, Matrix&& g) { Accumulate(id, std::move(g)); }

 private:
  template <typename M>
  void Accumulate(int id, M&& g);

  struct Node {
    Matrix value;
    Matrix grad;  // set by the first AccumulateGrad, released by Backward
    BackwardFn backward;
    /// Op type that emitted this node (the innermost op scope's name,
    /// obs/scope.h), for backward-pass attribution. Nullptr when emitted
    /// outside any op scope.
    const char* op = nullptr;
    bool needs_grad = false;
    bool has_grad = false;
  };

  std::vector<Node> nodes_;
};

inline const Matrix& Var::value() const { return tape_->ValueOf(id_); }

}  // namespace graphaug

#endif  // GRAPHAUG_AUTOGRAD_TAPE_H_
