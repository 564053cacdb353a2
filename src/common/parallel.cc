#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace graphaug {
namespace {

std::mutex g_mu;
int g_requested = 0;            // 0 = resolve automatically
ThreadPool* g_pool = nullptr;   // lazily built; width == resolved count

// Tag-observer callbacks (see ParallelTagObserver). Stored as separate
// atomics so the dispatch path reads them lock-free; they are installed
// together and the pool path tolerates any interleaving (a null enter
// simply skips forwarding for that region).
std::atomic<const void* (*)()> g_tag_capture{nullptr};
std::atomic<const void* (*)(const void*)> g_tag_enter{nullptr};
std::atomic<void (*)(const void*)> g_tag_exit{nullptr};

std::atomic<int64_t> g_stat_pool_regions{0};
std::atomic<int64_t> g_stat_serial_regions{0};
std::atomic<int64_t> g_stat_pool_chunks{0};
std::atomic<int64_t> g_stat_busy_ns{0};
std::atomic<int64_t> g_stat_wall_ns{0};
std::atomic<bool> g_stat_timing{false};

int64_t StatClockNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ResolveLocked() {
  if (g_requested > 0) return g_requested;
  if (const char* env = std::getenv("GRAPHAUG_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Returns the pool, (re)building it to the resolved width; nullptr when
/// the resolved width is 1 (pure serial mode, no workers at all).
ThreadPool* PoolLocked() {
  const int want = ResolveLocked();
  if (want <= 1) return nullptr;
  if (g_pool != nullptr && g_pool->num_threads() != want) {
    delete g_pool;
    g_pool = nullptr;
  }
  if (g_pool == nullptr) g_pool = new ThreadPool(want);
  return g_pool;
}

}  // namespace

int NumThreads() {
  std::lock_guard<std::mutex> lock(g_mu);
  return ResolveLocked();
}

void SetNumThreads(int n) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_requested = std::max(0, n);
  const int want = ResolveLocked();
  if (g_pool != nullptr && (want <= 1 || g_pool->num_threads() != want)) {
    delete g_pool;
    g_pool = nullptr;
  }
}

bool InParallelRegion() { return ThreadPool::InWorker(); }

void SetWorkerThreadHooks(void (*on_start)(), void (*on_exit)()) {
  ThreadPool::SetWorkerThreadHooks(on_start, on_exit);
}

void SetParallelTagObserver(const ParallelTagObserver& observer) {
  g_tag_capture.store(observer.capture, std::memory_order_relaxed);
  g_tag_enter.store(observer.enter, std::memory_order_relaxed);
  g_tag_exit.store(observer.exit, std::memory_order_relaxed);
}

void ClearParallelTagObserver() {
  g_tag_capture.store(nullptr, std::memory_order_relaxed);
  g_tag_enter.store(nullptr, std::memory_order_relaxed);
  g_tag_exit.store(nullptr, std::memory_order_relaxed);
}

ParallelStats GetParallelStats() {
  ParallelStats s;
  s.pool_regions = g_stat_pool_regions.load(std::memory_order_relaxed);
  s.serial_regions = g_stat_serial_regions.load(std::memory_order_relaxed);
  s.pool_chunks = g_stat_pool_chunks.load(std::memory_order_relaxed);
  s.busy_ns = g_stat_busy_ns.load(std::memory_order_relaxed);
  s.wall_ns = g_stat_wall_ns.load(std::memory_order_relaxed);
  return s;
}

void SetParallelStatsEnabled(bool enabled) {
  g_stat_timing.store(enabled, std::memory_order_relaxed);
}

void ResetParallelStats() {
  g_stat_pool_regions.store(0, std::memory_order_relaxed);
  g_stat_serial_regions.store(0, std::memory_order_relaxed);
  g_stat_pool_chunks.store(0, std::memory_order_relaxed);
  g_stat_busy_ns.store(0, std::memory_order_relaxed);
  g_stat_wall_ns.store(0, std::memory_order_relaxed);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  ThreadPool* pool = nullptr;
  if (n > grain && !ThreadPool::InWorker()) {
    std::lock_guard<std::mutex> lock(g_mu);
    pool = PoolLocked();
  }
  if (pool == nullptr) {
    g_stat_serial_regions.fetch_add(1, std::memory_order_relaxed);
    // Same static chunk walk as the pool path, executed inline.
    for (int64_t b = begin; b < end; b += grain) {
      fn(b, std::min(end, b + grain));
    }
    return;
  }
  g_stat_pool_regions.fetch_add(1, std::memory_order_relaxed);
  g_stat_pool_chunks.fetch_add((n + grain - 1) / grain,
                               std::memory_order_relaxed);
  // Optional per-chunk wrappers, both observation-only (they never
  // change the chunk walk or results): scope forwarding and busy/wall
  // timing for the obs layer. The serial path above needs neither — the
  // caller's own scope is already current there.
  const void* (*tag_capture)() = g_tag_capture.load(std::memory_order_relaxed);
  const void* (*tag_enter)(const void*) =
      g_tag_enter.load(std::memory_order_relaxed);
  void (*tag_exit)(const void*) = g_tag_exit.load(std::memory_order_relaxed);
  const bool tagged = tag_capture != nullptr && tag_enter != nullptr &&
                      tag_exit != nullptr;
  const bool timed = g_stat_timing.load(std::memory_order_relaxed);
  if (!tagged && !timed) {
    pool->ParallelForRange(begin, end, grain, fn);
    return;
  }
  const void* token = tagged ? tag_capture() : nullptr;
  const int64_t wall_start = timed ? StatClockNs() : 0;
  pool->ParallelForRange(begin, end, grain, [&](int64_t b, int64_t e) {
    const void* restore = tagged ? tag_enter(token) : nullptr;
    if (timed) {
      const int64_t t0 = StatClockNs();
      fn(b, e);
      g_stat_busy_ns.fetch_add(StatClockNs() - t0, std::memory_order_relaxed);
    } else {
      fn(b, e);
    }
    if (tagged) tag_exit(restore);
  });
  if (timed) {
    g_stat_wall_ns.fetch_add(StatClockNs() - wall_start,
                             std::memory_order_relaxed);
  }
}

double ParallelReduce(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<double(int64_t, int64_t)>& chunk_fn) {
  const int64_t n = end - begin;
  if (n <= 0) return 0.0;
  grain = std::max<int64_t>(1, grain);
  const int64_t chunks = (n + grain - 1) / grain;
  if (chunks == 1) return chunk_fn(begin, end);
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  ParallelFor(begin, end, grain, [&](int64_t b, int64_t e) {
    partial[static_cast<size_t>((b - begin) / grain)] = chunk_fn(b, e);
  });
  double total = 0.0;
  for (double p : partial) total += p;  // chunk order: deterministic
  return total;
}

}  // namespace graphaug
