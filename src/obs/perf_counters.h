#ifndef GRAPHAUG_OBS_PERF_COUNTERS_H_
#define GRAPHAUG_OBS_PERF_COUNTERS_H_

/// Hardware performance counters via perf_event_open. One counter group
/// (cycles leader + instructions, cache-references, cache-misses,
/// branch-misses) is opened per thread and multiplex-scaled on read, so
/// IPC and miss rates can sit next to GFLOP/s in bench output and be
/// accumulated per named region during training.
///
/// Graceful degradation is the contract: the first Begin() probes the
/// kernel once; in containers/CI where perf_event_open is denied
/// (EACCES/EPERM under seccomp, or perf_event_paranoid too high) the
/// subsystem silently marks itself unavailable, every subsequent
/// Begin() is a single relaxed load, and PerfCounts.valid stays false —
/// callers emit their perf columns only when valid. Non-Linux builds
/// compile the same API with the stub behavior.
///
/// Counts cover the calling thread only (group reads are incompatible
/// with inherited child counting), so attach regions to serial phases or
/// the threads=1 bench rows — exactly where microarchitectural analysis
/// is meaningful.

#include <cstdint>
#include <map>
#include <string>

#include "obs/config.h"

namespace graphaug::obs {

/// Multiplex-scaled counter totals for one measured region.
struct PerfCounts {
  bool valid = false;  ///< false: perf unavailable or the group failed
  int64_t cycles = 0;
  int64_t instructions = 0;
  int64_t cache_references = 0;
  int64_t cache_misses = 0;
  int64_t branch_misses = 0;
  /// time_running / time_enabled of the group: 1.0 means the counters
  /// were scheduled the whole time; < 1.0 means multiplexed estimates.
  double running_fraction = 0;

  double Ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  double CacheMissRate() const {
    return cache_references > 0 ? static_cast<double>(cache_misses) /
                                      static_cast<double>(cache_references)
                                : 0.0;
  }

  /// Element-wise accumulation (valid if both sides were).
  PerfCounts& operator+=(const PerfCounts& o);
};

/// True once a probe has succeeded; false after a failed probe. The
/// first PerfCounterGroup::Begin() performs the probe.
bool PerfCountersAvailable();

/// True after a probe has failed (distinct from "never probed"), so
/// reports can say "unavailable" only when that was actually observed.
bool PerfCountersProbeFailed();

/// One per-thread counter group. Begin() resets and enables the
/// counters; End() disables and reads them. Reusable across
/// Begin/End cycles; the fds live until destruction.
class PerfCounterGroup {
 public:
  PerfCounterGroup() = default;
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// Opens (first call), resets, and enables the group. Returns false —
  /// cheaply, after the first failed probe — when perf is unavailable.
  bool Begin();

  /// Disables the group and returns the scaled counts since Begin().
  /// Returns an invalid PerfCounts when Begin() failed.
  PerfCounts End();

 private:
  bool opened_ = false;
  bool open_failed_ = false;
  int fds_[5] = {-1, -1, -1, -1, -1};
};

/// Accumulated perf totals per named region (GA_PERF_REGION scopes, see
/// obs/scope.h), e.g. {"epoch": {...}, "eval": {...}}.
std::map<std::string, PerfCounts> PerfRegionSnapshot();

/// Clears the per-region accumulator (part of obs::ResetAll).
void ResetPerfRegions();

/// JSON object: {"available": bool, "regions": {name: {"cycles": ...,
/// "ipc": ..., "cache_miss_rate": ...}, ...}}.
std::string PerfJson();

/// Region-scope internals: start this thread's region counter group
/// (false, cheaply, when perf is unavailable), and stop it, adding the
/// deltas to the region table under `name`.
bool BeginRegionCounters();
void EndRegionCounters(const char* name);

}  // namespace graphaug::obs

#endif  // GRAPHAUG_OBS_PERF_COUNTERS_H_
