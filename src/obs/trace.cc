#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"

namespace graphaug::obs {
namespace {

/// Capacity of each per-thread ring. At one span per hot-kernel call
/// (coarse spans only) 64K events cover hours of training; older events
/// are overwritten and counted as dropped.
constexpr size_t kRingCapacity = size_t{1} << 16;

/// Per-thread ring buffer. Owned jointly by the writing thread (via a
/// thread_local shared_ptr) and the global registry, so buffers survive
/// thread exit (pool teardown on SetNumThreads) until export.
struct Ring {
  explicit Ring(int tid_in) : tid(tid_in) { events.reserve(1024); }

  std::mutex mu;  // uncontended in steady state (one writer)
  std::vector<TraceEvent> events;  // circular once events.size() == cap
  size_t next = 0;      // overwrite cursor once full
  int64_t total = 0;    // events ever recorded
  const int tid;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  int next_tid = 0;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}

Ring& ThreadRing() {
  thread_local std::shared_ptr<Ring> ring = [] {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto r = std::make_shared<Ring>(reg.next_tid++);
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

std::atomic<bool> g_trace_enabled{false};

}  // namespace

int64_t TraceClockNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

#if GRAPHAUG_OBS_ENABLED
bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}
#endif

void SetTraceEnabled(bool enabled) {
#if GRAPHAUG_OBS_ENABLED
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
#else
  (void)enabled;
#endif
}

void RecordTraceEvent(const char* name, int64_t ts_ns, int64_t dur_ns) {
  Ring& ring = ThreadRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  const TraceEvent ev{name, ts_ns, dur_ns, ring.tid};
  if (ring.events.size() < kRingCapacity) {
    ring.events.push_back(ev);
  } else {
    // Overwriting silently truncates the exported trace; surface it as a
    // counter so --metrics-out / --obs-report (and the --trace-out
    // warning in the CLI) make the loss visible.
    static Counter* dropped =
        MetricsRegistry::Get().GetCounter("trace.dropped_events");
    dropped->Inc();
    ring.events[ring.next] = ev;
    ring.next = (ring.next + 1) % kRingCapacity;
  }
  ++ring.total;
}

std::vector<TraceEvent> SnapshotTraceEvents() {
  std::vector<TraceEvent> out;
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    std::lock_guard<std::mutex> rlock(ring->mu);
    out.insert(out.end(), ring->events.begin(), ring->events.end());
  }
  return out;
}

int64_t TraceEventTotal() {
  int64_t total = 0;
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    std::lock_guard<std::mutex> rlock(ring->mu);
    total += ring->total;
  }
  return total;
}

int64_t TraceDroppedTotal() {
  int64_t dropped = 0;
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    std::lock_guard<std::mutex> rlock(ring->mu);
    dropped += ring->total - static_cast<int64_t>(ring->events.size());
  }
  return dropped;
}

std::string ChromeTraceJson() {
  std::vector<TraceEvent> events = SnapshotTraceEvents();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.tid < b.tid;
            });
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    os << (i ? ",\n" : "\n") << "  {\"name\": " << JsonString(e.name)
       << ", \"ph\": \"X\", \"pid\": 0, \"tid\": " << e.tid
       << ", \"ts\": " << JsonNumber(static_cast<double>(e.ts_ns) / 1e3)
       << ", \"dur\": " << JsonNumber(static_cast<double>(e.dur_ns) / 1e3)
       << "}";
  }
  os << (events.empty() ? "" : "\n") << "], \"displayTimeUnit\": \"ms\", "
     << "\"otherData\": {\"dropped_events\": " << TraceDroppedTotal()
     << "}}";
  return os.str();
}

bool WriteChromeTrace(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ChromeTraceJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void ResetTrace() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    std::lock_guard<std::mutex> rlock(ring->mu);
    ring->events.clear();
    ring->next = 0;
    ring->total = 0;
  }
}

}  // namespace graphaug::obs
