#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace graphaug {
namespace {

/// Set for a team worker's whole life and on a dispatching thread while it
/// runs the chunks of a multi-chunk region, so a ParallelFor issued from
/// inside a chunk runs inline instead of re-entering the team.
thread_local bool t_in_region = false;

/// Estimated remaining work, chunk 0's time x (chunks - 1), below which a
/// region's other chunks stay on the dispatching thread. Waking helpers
/// costs futex wake/park CPU and cache-line migration; below this the
/// wake-ups cost more than the work they would share. Chosen from a sweep
/// of 100/200/500/1000 us on perfbench gib-gowalla (DESIGN.md §6).
constexpr double kBreakEvenNs = 500e3;

/// Worker lifecycle hooks (SetWorkerThreadHooks). Atomic so installation
/// does not race worker startup; zero-initialized, hence safe to read
/// from any static-initialization order.
std::atomic<void (*)()> g_worker_start_hook{nullptr};
std::atomic<void (*)()> g_worker_exit_hook{nullptr};

// Tag-observer callbacks (see ParallelTagObserver). Stored as separate
// atomics so the dispatch path reads them lock-free; they are installed
// together and the team path tolerates any interleaving (a null callback
// simply skips forwarding for that region).
std::atomic<const void* (*)()> g_tag_capture{nullptr};
std::atomic<const void* (*)(const void*)> g_tag_enter{nullptr};
std::atomic<void (*)(const void*)> g_tag_exit{nullptr};

std::atomic<int64_t> g_stat_pool_regions{0};
std::atomic<int64_t> g_stat_serial_regions{0};
std::atomic<int64_t> g_stat_declined_regions{0};
std::atomic<int64_t> g_stat_pool_chunks{0};
std::atomic<int64_t> g_stat_busy_ns{0};
std::atomic<int64_t> g_stat_wall_ns{0};
std::atomic<bool> g_stat_timing{false};

int64_t StatClockNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One parallel region: the body, its static chunk decomposition, the
/// observation wrappers around each chunk, and the next-chunk counter
/// every team thread claims from.
struct Region {
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t chunks = 0;
  ParallelTagObserver tag;  // all null: no tag forwarding
  const void* token = nullptr;
  bool timed = false;
  std::atomic<int64_t> next{0};
};

/// The single chunk loop: claims chunk indices until none remain and runs
/// each under the tag observer and busy-time accounting. Which thread runs
/// which chunk never affects results; every chunk's work is chunk-local.
void RunChunks(Region& r) {
  for (int64_t c = r.next.fetch_add(1, std::memory_order_relaxed);
       c < r.chunks; c = r.next.fetch_add(1, std::memory_order_relaxed)) {
    const int64_t b = r.begin + c * r.grain;
    const void* restore = r.tag.enter ? r.tag.enter(r.token) : nullptr;
    const int64_t t0 = r.timed ? StatClockNs() : 0;
    (*r.fn)(b, std::min(r.end, b + r.grain));
    if (r.timed) {
      g_stat_busy_ns.fetch_add(StatClockNs() - t0, std::memory_order_relaxed);
    }
    if (r.tag.enter) r.tag.exit(restore);
  }
}

/// Fork-join team of `width - 1` persistent workers plus whichever thread
/// dispatches a region. Workers sleep on a condvar between regions; a
/// region bumps the generation and opens at most min(chunks, width) - 1
/// join slots, each claimed by one woken worker. The dispatcher runs
/// chunks too, then waits for the workers that joined. ParallelFor hands
/// it a region's chunks 1..n-1 only, after running chunk 0 itself.
class Team {
 public:
  explicit Team(int width) {
    workers_.reserve(static_cast<size_t>(width - 1));
    for (int i = 1; i < width; ++i) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
  }

  ~Team() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  int width() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs the region on the team and returns true, or returns false
  /// without running anything when another thread's region holds it.
  bool TryRun(int64_t begin, int64_t end, int64_t grain, int64_t chunks,
              const std::function<void(int64_t, int64_t)>& fn) {
    std::unique_lock<std::mutex> dispatch(dispatch_mu_, std::try_to_lock);
    if (!dispatch.owns_lock()) return false;
    g_stat_pool_regions.fetch_add(1, std::memory_order_relaxed);
    g_stat_pool_chunks.fetch_add(chunks, std::memory_order_relaxed);
    ParallelTagObserver tag{g_tag_capture.load(std::memory_order_relaxed),
                            g_tag_enter.load(std::memory_order_relaxed),
                            g_tag_exit.load(std::memory_order_relaxed)};
    if (!tag.capture || !tag.enter || !tag.exit) tag = {};
    const void* token = tag.capture ? tag.capture() : nullptr;
    const bool timed = g_stat_timing.load(std::memory_order_relaxed);
    const int64_t wall_start = timed ? StatClockNs() : 0;
    const int helpers =
        static_cast<int>(std::min<int64_t>(chunks, width())) - 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      region_.fn = &fn;
      region_.begin = begin;
      region_.end = end;
      region_.grain = grain;
      region_.chunks = chunks;
      region_.tag = tag;
      region_.token = token;
      region_.timed = timed;
      region_.next.store(0, std::memory_order_relaxed);
      ++generation_;
      open_slots_ = helpers;
    }
    for (int i = 0; i < helpers; ++i) cv_work_.notify_one();
    RunChunks(region_);
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Every chunk is claimed: slots no worker took yet have nothing left.
      open_slots_ = 0;
      cv_done_.wait(lock, [this] { return joined_ == 0; });
    }
    if (timed) {
      g_stat_wall_ns.fetch_add(StatClockNs() - wall_start,
                               std::memory_order_relaxed);
    }
    return true;
  }

 private:
  void WorkerMain() {
    t_in_region = true;
    if (void (*hook)() = g_worker_start_hook.load(std::memory_order_acquire)) {
      hook();
    }
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_work_.wait(lock, [&] {
        return shutdown_ || (open_slots_ > 0 && generation_ != seen);
      });
      if (shutdown_) break;
      seen = generation_;
      --open_slots_;
      ++joined_;
      lock.unlock();
      RunChunks(region_);
      lock.lock();
      if (--joined_ == 0) cv_done_.notify_one();
    }
    lock.unlock();
    if (void (*hook)() = g_worker_exit_hook.load(std::memory_order_acquire)) {
      hook();
    }
  }

  std::mutex dispatch_mu_;  // held by the dispatching thread for a region
  std::mutex mu_;  // guards the counters below and the writes to region_
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;  // bumped once per region
  int open_slots_ = 0;       // join slots of this region not yet claimed
  int joined_ = 0;           // workers that joined and have not finished
  bool shutdown_ = false;
  Region region_;
  std::vector<std::thread> workers_;
};

std::mutex g_mu;
int g_requested = 0;     // 0 = resolve automatically
Team* g_team = nullptr;  // lazily built; width == TeamWidthLocked()

int ResolveLocked() {
  if (g_requested > 0) return g_requested;
  if (const char* env = std::getenv("GRAPHAUG_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Team width: the resolved thread count, capped at the core count with a
/// floor of two. More threads than cores add timeslicing, not throughput;
/// the floor keeps an oversubscribed narrow machine running regions
/// concurrently, which the determinism and sanitizer tests rely on.
int TeamWidthLocked() {
  static const int cap =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  return std::min(ResolveLocked(), cap);
}

/// Joins the team's workers when its width no longer matches.
void DropStaleTeamLocked() {
  if (g_team != nullptr && g_team->width() != TeamWidthLocked()) {
    delete g_team;
    g_team = nullptr;
  }
}

/// Returns the team, (re)building it to the current width; nullptr at
/// width 1 (pure serial mode, no workers at all).
Team* TeamLocked() {
  DropStaleTeamLocked();
  const int width = TeamWidthLocked();
  if (g_team == nullptr && width > 1) g_team = new Team(width);
  return g_team;
}

}  // namespace

int NumThreads() {
  std::lock_guard<std::mutex> lock(g_mu);
  return ResolveLocked();
}

void SetNumThreads(int n) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_requested = std::max(0, n);
  DropStaleTeamLocked();
}

void SetWorkerThreadHooks(void (*on_start)(), void (*on_exit)()) {
  g_worker_start_hook.store(on_start, std::memory_order_release);
  g_worker_exit_hook.store(on_exit, std::memory_order_release);
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
  s.declined_regions =
      g_stat_declined_regions.load(std::memory_order_relaxed);
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
  g_stat_declined_regions.store(0, std::memory_order_relaxed);
  g_stat_pool_chunks.store(0, std::memory_order_relaxed);
  g_stat_busy_ns.store(0, std::memory_order_relaxed);
  g_stat_wall_ns.store(0, std::memory_order_relaxed);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  Team* team = nullptr;
  if (n > grain && !t_in_region) {
    std::lock_guard<std::mutex> lock(g_mu);
    team = TeamLocked();
  }
  // Inline chunks need no observer: the caller's own scope is current.
  if (team == nullptr) {
    g_stat_serial_regions.fetch_add(1, std::memory_order_relaxed);
    for (int64_t b = begin; b < end; b += grain) {
      fn(b, std::min(end, b + grain));
    }
    return;
  }
  // Run chunk 0 here and time it. Only when the remaining chunks' estimated
  // work pays for waking helpers, and at least two remain to share, do they
  // go to the team; otherwise this thread walks them in chunk order. The
  // remaining range [begin + grain, end) has the same chunk boundaries.
  const int64_t chunks = (n + grain - 1) / grain;
  t_in_region = true;
  const int64_t t0 = StatClockNs();
  fn(begin, begin + grain);
  const int64_t chunk0_ns = StatClockNs() - t0;
  const double estimate_ns =
      static_cast<double>(chunk0_ns) * static_cast<double>(chunks - 1);
  const bool pays = chunks > 2 && estimate_ns >= kBreakEvenNs;
  if (pays && team->TryRun(begin + grain, end, grain, chunks - 1, fn)) {
    if (g_stat_timing.load(std::memory_order_relaxed)) {
      g_stat_busy_ns.fetch_add(chunk0_ns, std::memory_order_relaxed);
      g_stat_wall_ns.fetch_add(chunk0_ns, std::memory_order_relaxed);
    }
  } else {
    g_stat_serial_regions.fetch_add(1, std::memory_order_relaxed);
    if (!pays) g_stat_declined_regions.fetch_add(1, std::memory_order_relaxed);
    for (int64_t b = begin + grain; b < end; b += grain) {
      fn(b, std::min(end, b + grain));
    }
  }
  t_in_region = false;
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
