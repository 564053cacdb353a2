#ifndef GRAPHAUG_OBS_TRACE_H_
#define GRAPHAUG_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/config.h"

namespace graphaug::obs {

/// One completed span. `name` must be a string literal (or otherwise
/// outlive the trace buffers) — spans are recorded by pointer, never by
/// copy, so the hot path stays allocation-free.
struct TraceEvent {
  const char* name = nullptr;
  int64_t ts_ns = 0;   ///< start, monotonic ns since process start
  int64_t dur_ns = 0;  ///< duration in ns
  int tid = 0;         ///< small dense thread id (registration order)
};

/// Monotonic nanoseconds since process start (shared clock for trace
/// events and the autograd profiler).
int64_t TraceClockNs();

#if GRAPHAUG_OBS_ENABLED
/// Runtime switch for span recording (off by default; spans cost one
/// relaxed load + branch when off).
bool TraceEnabled();
#else
inline constexpr bool TraceEnabled() { return false; }
#endif

/// Enables/disables span recording. No-op in GRAPHAUG_NO_OBS builds.
void SetTraceEnabled(bool enabled);

/// Appends a completed span to the calling thread's ring buffer. Used by
/// span scopes (GA_TRACE_SPAN, obs/scope.h) on exit; callable directly
/// for spans whose bounds are not lexical.
void RecordTraceEvent(const char* name, int64_t ts_ns, int64_t dur_ns);

/// Events currently held in every thread's ring buffer, in no particular
/// order (test/bench helper; export prefers WriteChromeTrace).
std::vector<TraceEvent> SnapshotTraceEvents();

/// Events recorded since the last ResetTrace (including any that were
/// overwritten after their ring filled).
int64_t TraceEventTotal();

/// Events lost to ring-buffer overwrite since the last ResetTrace.
int64_t TraceDroppedTotal();

/// Serializes every buffered span as Chrome trace-event JSON
/// ({"traceEvents": [...]}; load via chrome://tracing or Perfetto).
std::string ChromeTraceJson();

/// Writes ChromeTraceJson() to `path`; false on I/O failure.
bool WriteChromeTrace(const std::string& path);

/// Drops all buffered events and zeroes the totals (test helper).
void ResetTrace();

}  // namespace graphaug::obs

#endif  // GRAPHAUG_OBS_TRACE_H_
