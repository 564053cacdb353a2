#ifndef GRAPHAUG_OBS_AUTOGRAD_PROFILER_H_
#define GRAPHAUG_OBS_AUTOGRAD_PROFILER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/table.h"

namespace graphaug::obs {

/// Accumulated cost of one autograd op type across the run.
struct OpStats {
  int64_t fwd_calls = 0;
  int64_t bwd_calls = 0;
  int64_t fwd_ns = 0;
  int64_t bwd_ns = 0;
  double flops = 0;  ///< analytic forward-FLOP estimate, summed
  double bytes = 0;  ///< analytic bytes-touched estimate, summed
};

/// Per-op-type forward/backward cost accumulator for the tape autograd.
/// Forward timing comes from the op scopes (GA_AG_OP, obs/scope.h) placed
/// in the primitive ops (autograd/ops.cc); backward timing comes from the
/// backward scope Tape::Backward opens around each node's closure, named
/// after the op captured at Emit time. Scopes record only while
/// obs::Enabled().
class AutogradProfiler {
 public:
  static AutogradProfiler& Get();

  void RecordForward(const char* op, int64_t ns, double flops, double bytes);
  void RecordBackward(const char* op, int64_t ns);

  /// Copy of the per-op accumulators.
  std::map<std::string, OpStats> Snapshot() const;

  /// JSON object: {"MatMul": {"fwd_calls": ..., ...}, ...}.
  std::string ToJson() const;

  /// ASCII table sorted by total (fwd+bwd) time, descending.
  Table ToTable() const;

  void Reset();

 private:
  AutogradProfiler() = default;

  mutable std::mutex mu_;
  std::map<std::string, OpStats> stats_;
};

}  // namespace graphaug::obs

#endif  // GRAPHAUG_OBS_AUTOGRAD_PROFILER_H_
