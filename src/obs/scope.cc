#include "obs/scope.h"

#include <atomic>

#include "common/parallel.h"
#include "obs/autograd_profiler.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace graphaug::obs {
namespace {

/// The calling thread's innermost live scope. Read by the SIGPROF
/// handler, so it is a plain pointer in static TLS.
thread_local const Scope* t_scope = nullptr;

const Scope g_pool_sync(Scope::RootTag{}, "pool_sync");

bool InsideRegion(const Scope* s) {
  for (; s != nullptr; s = s->parent()) {
    if (s->kind() == ScopeKind::kRegion) return true;
  }
  return false;
}

/// ParallelTagObserver callbacks: the token is the dispatcher's
/// innermost scope, which outlives the region because ParallelFor
/// blocks until every chunk is done.
const void* CaptureScope() { return t_scope; }

const void* EnterChunkScope(const void* token) {
  const Scope* prev = t_scope;
  t_scope = static_cast<const Scope*>(token);
  return prev;
}

void ExitChunkScope(const void* prev) {
  t_scope = static_cast<const Scope*>(prev);
}

}  // namespace

Scope::Scope(const char* name, ScopeKind kind, double flops, double bytes)
    : name_(name), kind_(kind), flops_(flops), bytes_(bytes) {
  if (name == nullptr) return;
  parent_ = t_scope;
  const bool is_op = kind == ScopeKind::kOp || kind == ScopeKind::kBackward;
  op_ = is_op ? name : (parent_ != nullptr ? parent_->op_ : nullptr);
  switch (kind) {
    case ScopeKind::kOp:
    case ScopeKind::kBackward:
      if (Enabled()) start_ns_ = TraceClockNs();
      break;
    case ScopeKind::kSpan:
      if (TraceEnabled()) start_ns_ = TraceClockNs();
      break;
    case ScopeKind::kRegion:
      counting_ = Enabled() && !InsideRegion(parent_) && BeginRegionCounters();
      break;
  }
  linked_ = true;
  // Publish only once every field is written: a SIGPROF landing between
  // the stores must see either the parent or this complete scope.
  std::atomic_signal_fence(std::memory_order_release);
  t_scope = this;
}

Scope::Scope(RootTag, const char* name)
    : name_(name), kind_(ScopeKind::kSpan) {}

Scope::~Scope() {
  if (!linked_) return;
  t_scope = parent_;
  std::atomic_signal_fence(std::memory_order_release);
  if (counting_) EndRegionCounters(name_);
  if (start_ns_ < 0) return;
  const int64_t ns = TraceClockNs() - start_ns_;
  switch (kind_) {
    case ScopeKind::kOp:
      AutogradProfiler::Get().RecordForward(name_, ns, flops_, bytes_);
      break;
    case ScopeKind::kBackward:
      AutogradProfiler::Get().RecordBackward(name_, ns);
      break;
    case ScopeKind::kSpan:
      RecordTraceEvent(name_, start_ns_, ns);
      break;
    case ScopeKind::kRegion:
      break;
  }
}

const Scope* Scope::Current() { return t_scope; }

void InstallWorkerRoot() { t_scope = &g_pool_sync; }

void UpdateScopeForwarding() {
  if (Enabled() || ProfilerRunning()) {
    SetParallelTagObserver(
        ParallelTagObserver{&CaptureScope, &EnterChunkScope, &ExitChunkScope});
  } else {
    ClearParallelTagObserver();
  }
}

}  // namespace graphaug::obs
