// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library's public functions. Each span keeps its name, start and
// end on the steady clock, the index of the span that encloses it, and the
// run id shared by every span of one benchmark process. Nothing is written
// until the run ends (ToJson), so recording a span costs a read of the
// steady and the CPU clock at each end and one vector append.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t WallNs();
/// CPU nanoseconds consumed by the whole process (all threads).
int64_t CpuNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  ///< process CPU time over the span
  int parent = -1;     ///< index of the enclosing span, -1 at top level
};

class SpanRecorder {
 public:
  explicit SpanRecorder(uint64_t run_id) : run_id_(run_id) {}

  /// When disabled, Begin returns -1 and End ignores it.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int Begin(const std::string& name, int64_t start_ns);
  void End(int id, int64_t end_ns, int64_t cpu_ns);

  /// Per span name: {count, total seconds, self seconds}, where a span's
  /// self time is its duration minus the time its direct children cover.
  struct NameTotals {
    int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, NameTotals> Totals() const;

  /// {"run_id": ..., "spans": [{name, start_ns, end_ns, parent, self_s}]}.
  std::string ToJson() const;

 private:
  /// Per span, the summed duration of its direct children.
  std::vector<int64_t> ChildNs() const;

  uint64_t run_id_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// Wall and CPU time of one timed call, always measured; the span is
/// recorded only when the recorder is enabled.
struct Timing {
  double wall_s = 0;
  double cpu_s = 0;
};

inline Timing operator+(const Timing& a, const Timing& b) {
  return {a.wall_s + b.wall_s, a.cpu_s + b.cpu_s};
}

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), wall0_(WallNs()), cpu0_(CpuNs()) {
    id_ = rec_->Begin(name, wall0_);
  }
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early and returns its timing (idempotent).
  Timing Stop();

 private:
  SpanRecorder* rec_;
  int64_t wall0_;
  int64_t cpu0_;
  int id_ = -1;
  bool stopped_ = false;
  Timing timing_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
