#ifndef GRAPHAUG_COMMON_PARALLEL_H_
#define GRAPHAUG_COMMON_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace graphaug {

/// Process-wide parallel runtime shared by every hot kernel (dense GEMM,
/// SpMM, large elementwise maps, full-ranking evaluation). Behind a
/// deterministic ParallelFor / ParallelReduce API sits one lazily built
/// fork-join team: persistent workers that sleep between regions, joined
/// by the dispatching thread, which runs chunks too.
///
///  * Static chunking. [begin, end) is split into fixed chunks of at most
///    `grain` indices; the decomposition depends only on the range and the
///    grain, never on the thread count. Kernels that write disjoint chunks
///    are bitwise reproducible at any thread count, and reductions merge
///    chunk partials in chunk order so they are too.
///  * Team width. min(NumThreads(), max(2, hardware_concurrency)) threads
///    including the dispatcher; a region wakes at most one fewer worker
///    than it hands the team chunks.
///  * Measured dispatch. The dispatcher runs chunk 0 itself and times it;
///    only when chunk 0's time x (chunks - 1) reaches a fixed break-even
///    (and at least two chunks remain) does it hand chunks 1..n-1 to the
///    team. Cheaper regions are "declined" and walk on inline.
///  * Inline execution. Single-chunk ranges, a 1-thread configuration, a
///    declined region, a ParallelFor issued from inside any chunk of a
///    multi-chunk region, and a region dispatched from a second thread
///    while the team is busy all run on the calling thread — same chunk
///    walk, same results, no dispatch or deadlock.
///  * Thread-count resolution order: SetNumThreads() (wired to the
///    --threads flag in every binary) > GRAPHAUG_NUM_THREADS env var >
///    std::thread::hardware_concurrency().
///
/// Loop bodies must not throw; a GA_CHECK failure aborts the process as in
/// serial code.

/// Resolved thread count (>= 1). See resolution order above.
int NumThreads();

/// Overrides the thread count; n <= 0 restores automatic resolution. An
/// existing team of a different width is torn down (joining its workers)
/// and lazily rebuilt — call only between parallel regions.
void SetNumThreads(int n);

/// Runs fn(chunk_begin, chunk_end) over the static decomposition of
/// [begin, end) into chunks of at most `grain` indices. Chunks execute in
/// parallel; fn must write only state owned by its chunk.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// Deterministic sum-reduction: computes chunk_fn(chunk_begin, chunk_end)
/// for every chunk of the static decomposition (in parallel) and sums the
/// partials in chunk order, so the result is identical at any thread
/// count. Note the chunked summation order differs from a plain serial
/// accumulation loop; callers adopt the chunked order as the definition.
double ParallelReduce(int64_t begin, int64_t end, int64_t grain,
                      const std::function<double(int64_t, int64_t)>& chunk_fn);

/// Registers process-wide worker lifecycle hooks: `on_start` runs on
/// each team worker thread right after it starts, `on_exit` right
/// before it terminates (team teardown on SetNumThreads). Used by the
/// sampling profiler (src/obs/profiler) to enroll every worker for
/// per-thread sample timers. Install before the first parallel region
/// (static-init is fine); workers created earlier miss the start hook.
/// Hooks must not issue parallel regions. nullptr clears.
void SetWorkerThreadHooks(void (*on_start)(), void (*on_exit)());

/// Observer that forwards an opaque per-region tag from the thread that
/// dispatches a parallel region to the workers executing its chunks.
/// `capture` runs once on the dispatching thread per team region;
/// `enter` runs on the executing thread (a worker or the dispatcher)
/// around every chunk with the captured token and returns the value to
/// restore; `exit` restores it. The obs layer (obs/scope.h) uses this to
/// run every chunk under the dispatching thread's innermost scope, so
/// profiler samples and allocations on workers carry its tag. All three
/// callbacks must be cheap, non-blocking, and must not issue parallel
/// regions; observation never changes chunking or results.
struct ParallelTagObserver {
  const void* (*capture)() = nullptr;
  const void* (*enter)(const void* token) = nullptr;
  void (*exit)(const void* restore) = nullptr;
};

/// Installs/removes the (single) tag observer. Install/clear only
/// between parallel regions; in-flight regions may miss the change.
void SetParallelTagObserver(const ParallelTagObserver& observer);
void ClearParallelTagObserver();

/// Aggregate activity of the parallel runtime since the last
/// ResetParallelStats. Region/chunk counts are always maintained (one
/// relaxed atomic add per region); busy/wall timing is only collected
/// while SetParallelStatsEnabled(true), since it adds a clock read per
/// chunk. The observability layer (src/obs) pulls this at export time —
/// the runtime itself never depends on obs.
struct ParallelStats {
  int64_t pool_regions = 0;    ///< regions dispatched to the team
  int64_t serial_regions = 0;  ///< regions that ran inline on the caller
  /// Multi-chunk regions the measured dispatch kept inline (a subset of
  /// serial_regions): chunk 0's time x (chunks - 1) fell short of the
  /// break-even, or only one chunk was left to share.
  int64_t declined_regions = 0;
  int64_t pool_chunks = 0;  ///< chunks handed to the team (all but chunk 0)
  int64_t busy_ns = 0;   ///< summed per-chunk execution time (timed mode)
  int64_t wall_ns = 0;   ///< summed region wall time (timed mode)
};

ParallelStats GetParallelStats();

/// Enables per-chunk busy/wall timing. Timing only observes the clock and
/// never changes chunking, so results are unaffected.
void SetParallelStatsEnabled(bool enabled);

void ResetParallelStats();

}  // namespace graphaug

#endif  // GRAPHAUG_COMMON_PARALLEL_H_
