#ifndef GRAPHAUG_OBS_MEMORY_H_
#define GRAPHAUG_OBS_MEMORY_H_

/// Byte-level memory accounting for the tensor allocation path, plus a
/// process-RSS view. Three layers:
///
///  * Global accounting (always on in instrumented builds): every Matrix
///    buffer allocation/release updates live bytes, the high-water mark,
///    and allocation counters via relaxed atomics — a handful of atomic
///    ops per *tensor* (never per element), so the cost is far below the
///    bench noise floor. This is the acceptance instrument for "flat
///    memory" claims: live bytes must return to baseline when a scope's
///    tensors die, and PeakBytes() bounds the working set.
///  * Tag attribution (gated on obs::Enabled()): allocations are charged
///    to the calling thread's innermost scope tag (obs/scope.h: the
///    innermost autograd op, forward or backward, else the innermost
///    span), so the per-op table shows who allocates.
///  * Process RSS (os-level truth): CurrentRssBytes/PeakRssBytes read
///    /proc + getrusage, and RssSampler polls RSS on a background thread
///    so short-lived spikes between epoch boundaries are still seen.
///
/// Under GRAPHAUG_NO_OBS the RecordAlloc/RecordFree hooks are empty
/// inlines, so TrackedFloatVec compiles to the exact std::vector<float>
/// code and every query returns zero. Accounting only observes sizes —
/// it never touches tensor contents — so it is bitwise-transparent to
/// training by construction (asserted in tests/obs_test.cc).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/config.h"

namespace graphaug::obs {

#if GRAPHAUG_OBS_ENABLED
/// Charges `bytes` to the global accounting (and, when obs::Enabled(),
/// to the calling thread's scope tag).
void RecordAlloc(size_t bytes);
/// Releases `bytes` from the live count.
void RecordFree(size_t bytes);
#else
inline void RecordAlloc(size_t) {}
inline void RecordFree(size_t) {}
#endif

/// Bytes currently held by tracked tensor buffers.
int64_t LiveBytes();
/// High-water mark of LiveBytes() since process start or ResetPeakBytes.
int64_t PeakBytes();
/// Total bytes ever allocated (monotonic).
int64_t TotalAllocBytes();
/// Number of tracked allocations / releases (monotonic).
int64_t AllocCount();
int64_t FreeCount();

/// Re-arms the high-water mark at the current live level, so a phase can
/// measure its own peak: ResetPeakBytes(); <work>; PeakBytes().
void ResetPeakBytes();

/// Accumulated allocation volume charged to one op/span tag.
struct MemoryTagStats {
  int64_t bytes = 0;
  int64_t count = 0;
};

/// Snapshot of the per-tag attribution table (tag -> bytes/count).
/// Allocations outside any scope are charged to "(untagged)". Only
/// populated while obs::Enabled().
std::map<std::string, MemoryTagStats> MemoryTagSnapshot();

/// Clears the attribution table and the monotonic counters, and re-arms
/// the peak at the current live level. Live bytes are left untouched —
/// they describe real outstanding buffers. Test helper (part of
/// obs::ResetAll).
void ResetMemoryStats();

/// Current process resident set in bytes (/proc/self/statm), or 0 when
/// unavailable (non-Linux).
int64_t CurrentRssBytes();
/// Lifetime peak RSS in bytes (getrusage ru_maxrss), or 0.
int64_t PeakRssBytes();

/// Process-lifetime counters from getrusage(RUSAGE_SELF): minor page
/// faults and user/system CPU seconds, all threads included. Zeros when
/// unavailable. Many minor faults with high system time mean the
/// allocator keeps returning freed buffers to the kernel and faulting
/// them back in, a cost the tracked-bytes counters cannot show.
struct ProcessUsage {
  int64_t minor_faults = 0;
  double user_cpu_s = 0;
  double sys_cpu_s = 0;
};
ProcessUsage ReadProcessUsage();

/// Background RSS poller: samples CurrentRssBytes() every `period_ms`
/// and tracks the max, catching spikes between epoch boundaries. The
/// sampling thread only reads /proc — it cannot perturb training.
class RssSampler {
 public:
  static RssSampler& Get();

  /// Starts the sampling thread (no-op if already running).
  void Start(int period_ms = 50);
  /// Stops and joins the thread (no-op if not running).
  void Stop();
  bool running() const;

  /// Max sampled RSS since Start (0 before the first sample).
  int64_t SampledPeakBytes() const;
  int64_t SampleCount() const;

 private:
  RssSampler() = default;
};

/// JSON object with the global accounting, RSS view, and tag table:
///   {"live_bytes": ..., "peak_bytes": ..., ..., "tags": {...}}
std::string MemoryJson();

/// Minimal-overhead tracking allocator: std::allocator<T> plus the
/// RecordAlloc/RecordFree hooks. Stateless, so containers using it are
/// layout-identical to std::allocator ones; the one behavioral difference
/// is that resize(n) default-initializes (see construct below).
template <typename T>
struct TrackingAllocator {
  using value_type = T;

  TrackingAllocator() = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    RecordAlloc(n * sizeof(T));
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) {
    RecordFree(n * sizeof(T));
    std::allocator<T>().deallocate(p, n);
  }

  /// Default-initializes instead of value-initializing, so resize(n)
  /// leaves trivial elements unwritten (Matrix::Uninit). Every other
  /// construction (fill, copy, range) forwards as usual.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T, typename U>
bool operator==(const TrackingAllocator<T>&, const TrackingAllocator<U>&) {
  return true;
}
template <typename T, typename U>
bool operator!=(const TrackingAllocator<T>&, const TrackingAllocator<U>&) {
  return false;
}

/// The storage type used by Matrix: a float vector whose buffer is
/// visible to the memory accounting above.
using TrackedFloatVec = std::vector<float, TrackingAllocator<float>>;

}  // namespace graphaug::obs

#endif  // GRAPHAUG_OBS_MEMORY_H_
