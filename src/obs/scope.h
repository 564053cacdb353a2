#ifndef GRAPHAUG_OBS_SCOPE_H_
#define GRAPHAUG_OBS_SCOPE_H_

/// The one scope mechanism of the instrumentation layer. Every
/// attribution site — an autograd op's forward pass, a backward closure,
/// a coarse trace span, a perf-counter region — is an RAII obs::Scope.
/// Each thread keeps a single pointer to its innermost live scope, and
/// scopes chain to their parents, so the trace ring, the autograd op
/// table, the sampling profiler and the memory tagging all read the same
/// chain:
///
///   kind       records on exit (when on)             switch
///   op         AutogradProfiler::RecordForward       obs::Enabled()
///   backward   AutogradProfiler::RecordBackward      obs::Enabled()
///   span       trace event into the thread's ring    obs::TraceEnabled()
///   region     perf-counter deltas per region name   obs::Enabled()
///
/// Tag rule: a scope's tag is the innermost op (or backward) name along
/// its parent chain, itself included; without one, the scope's own name.
/// It is computed once, at construction. Profiler samples, allocations
/// and tape nodes are charged to the innermost scope's tag.
///
/// Pool workers: while obs::Enabled() or a profiler session is on, a
/// ParallelFor chunk runs with the worker's pointer set to the
/// dispatching thread's innermost scope (alive: the dispatcher blocks
/// until every chunk is done), so scopes opened inside a chunk chain to
/// it. Between chunks a worker sits under the static `pool_sync` root.
///
/// Signal safety: a scope is published only after its fields are
/// written, and the parent pointer is restored before the object dies,
/// so the SIGPROF handler never reads a half-built or dead scope.

#include <cstdint>

#include "obs/config.h"

namespace graphaug::obs {

enum class ScopeKind : uint8_t { kOp, kBackward, kSpan, kRegion };

class Scope {
 public:
  /// Opens a scope named `name` (a string literal, or a name that
  /// outlives every export) on the calling thread. A null name opens
  /// nothing, so callers can pass an optional op name straight through.
  /// `flops`/`bytes` are analytic estimates recorded with op scopes.
  Scope(const char* name, ScopeKind kind, double flops = 0, double bytes = 0);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Innermost live scope on this thread (a pool worker inside a chunk
  /// sees the dispatcher's), or nullptr.
  static const Scope* Current();

  /// A root scope: never published by construction, installed as a
  /// thread's base scope with InstallWorkerRoot.
  struct RootTag {};
  Scope(RootTag, const char* name);

  const char* name() const { return name_; }
  ScopeKind kind() const { return kind_; }
  const Scope* parent() const { return parent_; }
  /// Innermost op/backward name along the chain, or nullptr.
  const char* op() const { return op_; }
  /// Attribution label: op() when set, else name().
  const char* tag() const { return op_ != nullptr ? op_ : name_; }

 private:
  const char* name_;
  ScopeKind kind_;
  bool linked_ = false;    ///< published on this thread; unlinks on exit
  bool counting_ = false;  ///< region kind: perf counters running
  const Scope* parent_ = nullptr;
  const char* op_ = nullptr;
  double flops_ = 0;
  double bytes_ = 0;
  int64_t start_ns_ = -1;  ///< >= 0 when the exit records a duration
};

/// Tag of the calling thread's innermost scope, or nullptr outside any.
inline const char* CurrentTag() {
  const Scope* s = Scope::Current();
  return s != nullptr ? s->tag() : nullptr;
}

/// Sets the calling thread's base scope to the static `pool_sync` root
/// (what a pool worker does between chunks). Called by the worker start
/// hook.
void InstallWorkerRoot();

/// Installs the ParallelFor scope forwarding when obs::Enabled() or a
/// profiler session is on, and removes it when both are off. Called by
/// SetEnabled, StartProfiler and StopProfiler.
void UpdateScopeForwarding();

}  // namespace graphaug::obs

/// Call-site spellings, each opening an obs::Scope to the end of the
/// enclosing block; all compile to nothing under GRAPHAUG_NO_OBS.
///   GA_AG_OP("MatMul", flop_estimate, byte_estimate);  // autograd op
///   GA_TRACE_SPAN("spmm");                             // trace span
///   GA_PERF_REGION("epoch");  // perf-counter region; a region nested in
///                             // another records nothing
#if GRAPHAUG_OBS_ENABLED
#define GA_SCOPE_CONCAT2(a, b) a##b
#define GA_SCOPE_CONCAT(a, b) GA_SCOPE_CONCAT2(a, b)
#define GA_AG_OP(name, flops, bytes)                                  \
  ::graphaug::obs::Scope GA_SCOPE_CONCAT(ga_scope_, __LINE__)(        \
      name, ::graphaug::obs::ScopeKind::kOp, flops, bytes)
#define GA_TRACE_SPAN(name)                                           \
  ::graphaug::obs::Scope GA_SCOPE_CONCAT(ga_scope_, __LINE__)(        \
      name, ::graphaug::obs::ScopeKind::kSpan)
#define GA_PERF_REGION(name)                                          \
  ::graphaug::obs::Scope GA_SCOPE_CONCAT(ga_scope_, __LINE__)(        \
      name, ::graphaug::obs::ScopeKind::kRegion)
#else
#define GA_AG_OP(name, flops, bytes) \
  do {                               \
  } while (0)
#define GA_TRACE_SPAN(name) \
  do {                      \
  } while (0)
#define GA_PERF_REGION(name) \
  do {                       \
  } while (0)
#endif

#endif  // GRAPHAUG_OBS_SCOPE_H_
