#ifndef GRAPHAUG_OBS_OBS_H_
#define GRAPHAUG_OBS_OBS_H_

/// Umbrella header for the instrumentation layer. Pulls in every obs
/// component and declares the combined exports the CLI flags map to:
///
///   --metrics-out  -> WriteMetricsJson   (registry + autograd ops +
///                                         epoch health + parallel stats)
///   --trace-out    -> WriteChromeTrace   (obs/trace.h)
///   --obs-report   -> AsciiReport        (printed to stdout)
///   --profile-out  -> WriteProfileFolded + WriteProfileJson
///                                        (obs/profiler.h, sampling
///                                         profiler at --profile-hz)
///
/// Gating matrix:
///   compile time  GRAPHAUG_NO_OBS        macros vanish, Enabled() is
///                                        constexpr false
///   runtime       obs::SetEnabled(true)  master switch (profiler +
///                                        health + parallel timing)
///   runtime       obs::SetTraceEnabled   span recording, independent so
///                                        metrics can run without the
///                                        trace buffers filling

#include <string>

#include "obs/autograd_profiler.h"
#include "obs/config.h"
#include "obs/health.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace graphaug::obs {

/// Combined JSON document:
///   {"metrics": {...}, "autograd_ops": {...}, "epochs": [...],
///    "parallel": {...}, "memory": {...}, "perf": {...}}
/// Refreshes the parallel-utilization gauges before serializing.
std::string MetricsJson();

/// Writes MetricsJson() to `path`; false on I/O failure.
bool WriteMetricsJson(const std::string& path);

/// Human-readable report (autograd op table, epoch health table, metric
/// table, parallel summary) for --obs-report.
std::string AsciiReport();

/// Resets every accumulator: metrics registry, autograd profiler, health
/// tracker, trace buffers, parallel stats, sampling profiler. Test
/// helper.
void ResetAll();

}  // namespace graphaug::obs

#endif  // GRAPHAUG_OBS_OBS_H_
