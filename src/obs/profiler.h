#ifndef GRAPHAUG_OBS_PROFILER_H_
#define GRAPHAUG_OBS_PROFILER_H_

/// Signal-driven sampling CPU profiler (--profile-out / --profile-hz).
///
/// Every registered thread — the caller of StartProfiler plus every pool
/// worker, which common/parallel enrolls through its thread lifecycle
/// hooks — gets a POSIX per-thread timer (timer_create on the thread's
/// CPU-time clock, SIGEV_THREAD_ID delivery) that raises SIGPROF at the
/// requested rate *of CPU time*, so idle threads contribute no samples.
/// The handler captures the stack with backtrace(), tags it with the
/// thread's innermost obs::Scope tag (obs/scope.h; pool-worker chunks run
/// under the dispatching thread's scope) and aggregates it into a
/// fixed-size per-thread open-addressed table.
/// Everything heavier (symbolization via the modules' ELF symbol tables
/// and dladdr, demangling, merging) is deferred to export time.
///
/// Signal-safety: the handler touches only its own thread's
/// pre-allocated state, calls backtrace() (pre-warmed at StartProfiler
/// so libgcc is already loaded), and uses relaxed/release atomics — no
/// locks, no allocation, no errno leaks. See DESIGN.md §7.
///
/// Contract, matching the rest of src/obs/:
///  * probe-once graceful degradation — if timers or signal delivery are
///    unavailable the first StartProfiler fails, ProfilerProbeFailed()
///    latches, and later calls are a cheap no-op;
///  * compiled to stubs under GRAPHAUG_NO_OBS (exports return empty
///    documents, StartProfiler returns false);
///  * bitwise-transparent: sampling never perturbs training results at
///    any thread count (asserted in tests/obs_test.cc).

#include <cstdint>
#include <string>

#include "obs/config.h"

namespace graphaug::obs {

/// Default sampling rate (prime, so periodic work does not alias).
/// The effective rate is capped by the kernel tick for CPU-time timers
/// (often ~250 Hz); requesting more than the kernel delivers is safe.
inline constexpr int kDefaultProfileHz = 997;

/// Aggregate profile statistics (computed at export time).
struct ProfileSummary {
  int64_t samples = 0;          ///< samples aggregated across all threads
  int64_t lost = 0;             ///< samples dropped (per-thread table full)
  int64_t distinct_stacks = 0;  ///< unique (stack, tag) keys after merge
  int64_t threads = 0;          ///< threads that contributed >= 1 sample
  double attributed_frac = 0;   ///< fraction of samples whose leaf frame
                                ///< resolved to a real symbol
  double span_covered_frac = 0;  ///< fraction of samples taken inside
                                 ///< some scope (tag not "(none)")
};

/// True once a profiling session has successfully started (probe
/// succeeded at least once in this process).
bool ProfilerAvailable();

/// True once a StartProfiler probe has failed; later Start calls return
/// false immediately (probe-once degradation, like perf_counters).
bool ProfilerProbeFailed();

/// True while sampling is active.
bool ProfilerRunning();

/// Requested sampling rate of the running (or last) session, 0 if none.
int ProfilerHz();

/// Arms per-thread sample timers on every registered thread and installs
/// the SIGPROF handler. Returns false (without latching the probe) when
/// already running or compiled out; returns false and latches
/// ProbeFailed when the OS refuses timers/signals. `hz` is clamped to
/// [1, 10000]. Accumulates into any profile already collected — call
/// ResetProfile() first for a fresh one.
bool StartProfiler(int hz = kDefaultProfileHz);

/// Disarms all timers and stops sampling. Collected samples stay
/// available for export. Idempotent.
void StopProfiler();

/// Drops every collected sample (stops the profiler first if running).
void ResetProfile();

/// Samples aggregated so far (cheap; readable while running).
int64_t ProfileSampleCount();

/// Samples dropped because a thread's stack table was full.
int64_t ProfileLostCount();

/// Symbolizes and summarizes the collected profile.
ProfileSummary SummarizeProfile();

/// Brendan-Gregg collapsed-stack format, one line per unique stack:
///   span:<tag>;outermost;...;leaf <count>
/// The synthetic first frame carries the span/op attribution
/// ("span:(none)" for untagged samples), so flamegraphs group by span.
/// Lines are sorted; feed to flamegraph.pl or tools/profile_report.
std::string ProfileFoldedText();

/// Aggregated JSON document:
///   {"available": ..., "hz": ..., "samples": ..., "lost": ...,
///    "distinct_stacks": ..., "threads": ..., "attributed_frac": ...,
///    "span_covered_frac": ...,
///    "top": [{"name", "self", "self_pct", "total", "total_pct"}, ...],
///    "spans": [{"span", "samples", "share"}, ...]}
/// "top" holds the `top_n` frames by self time; "total" counts a frame
/// once per stack it appears in (recursion is not double-counted).
std::string ProfileJson(int top_n = 30);

/// Writes ProfileFoldedText() / ProfileJson() to `path`; false on I/O
/// failure. Both write valid (possibly empty) documents when the
/// profiler is compiled out or never ran.
bool WriteProfileFolded(const std::string& path);
bool WriteProfileJson(const std::string& path, int top_n = 30);

/// The symbolizer's acceptance rule for a nearest-preceding-symbol match
/// (module-relative addresses). A symbol with st_size > 0 covers
/// [sym_addr, sym_addr + st_size rounded up to 16 bytes of alignment
/// padding). One with st_size == 0 covers up to `next_addr`, the next
/// symbol's address (or 1 MiB when `next_addr` is 0, i.e. there is
/// none). A pc no symbol covers falls through to dladdr and then to
/// "[module+0x...]" rather than being charged to an unrelated neighbour
/// (glibc's unexported memcpy/memset used to show up as
/// __nss_database_lookup).
bool SymbolCoversPc(uint64_t sym_addr, uint64_t sym_size, uint64_t next_addr,
                    uint64_t rel);

}  // namespace graphaug::obs

#endif  // GRAPHAUG_OBS_PROFILER_H_
