#include "autograd/tape.h"

#include "obs/scope.h"
#include "tensor/ops.h"

namespace graphaug {

Var Tape::Emit(Matrix value, bool needs_grad, BackwardFn backward) {
  Node node;
  node.value = std::move(value);
  node.backward = std::move(backward);
#if GRAPHAUG_OBS_ENABLED
  if (const obs::Scope* scope = obs::Scope::Current()) node.op = scope->op();
#endif
  node.needs_grad = needs_grad;
  nodes_.push_back(std::move(node));
  return Var(this, static_cast<int>(nodes_.size()) - 1);
}

Var Tape::Leaf(Parameter* param) {
  GA_CHECK(param != nullptr);
  return Emit(param->value, param->trainable,
              [param](Tape*, const Matrix& upstream) {
                if (!param->trainable) return;
                if (!param->grad.SameShape(param->value)) param->ZeroGrad();
                AddInPlace(&param->grad, upstream);
              });
}

Var Tape::Constant(Matrix value) {
  return Emit(std::move(value), false, nullptr);
}

void Tape::Backward(Var root) {
  GA_CHECK(root.valid() && root.tape() == this);
  GA_CHECK_EQ(ValueOf(root.id()).size(), 1) << "Backward root must be scalar";
  GA_TRACE_SPAN("backward");
  AccumulateGrad(root.id(), Matrix(1, 1, 1.f));
  for (int id = root.id(); id >= 0; --id) {
    Node& node = nodes_[static_cast<size_t>(id)];
    if (!node.has_grad || !node.needs_grad || !node.backward) continue;
#if GRAPHAUG_OBS_ENABLED
    // Charges the closure's time, allocations and samples to the op that
    // emitted the node; opens nothing for op-less nodes (leaves).
    obs::Scope scope(node.op, obs::ScopeKind::kBackward);
#endif
    node.backward(this, node.grad);
    // The closure owned the gradient; free whatever it did not move on.
    node.grad = Matrix();
    node.has_grad = false;
  }
}

void Tape::Reset() { nodes_.clear(); }

template <typename M>
void Tape::Accumulate(int id, M&& g) {
  Node& node = nodes_[static_cast<size_t>(id)];
  if (!node.needs_grad) return;
  GA_CHECK(g.SameShape(node.value))
      << "gradient shape " << g.ShapeString() << " vs value "
      << node.value.ShapeString();
  if (!node.has_grad) {
    node.grad = std::forward<M>(g);
    node.has_grad = true;
  } else {
    AddInPlace(&node.grad, g);
  }
}

template void Tape::Accumulate<const Matrix&>(int, const Matrix&);
template void Tape::Accumulate<Matrix>(int, Matrix&&);

}  // namespace graphaug
