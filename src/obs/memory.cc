#include "obs/memory.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "obs/scope.h"

namespace graphaug::obs {
namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<int64_t> g_total_bytes{0};
std::atomic<int64_t> g_alloc_count{0};
std::atomic<int64_t> g_free_count{0};

struct TagTable {
  std::mutex mu;
  std::map<std::string, MemoryTagStats> tags;
};

TagTable& GetTagTable() {
  static TagTable* t = new TagTable();
  return *t;
}

}  // namespace

#if GRAPHAUG_OBS_ENABLED
void RecordAlloc(size_t bytes) {
  const int64_t b = static_cast<int64_t>(bytes);
  const int64_t live = g_live_bytes.fetch_add(b, std::memory_order_relaxed) + b;
  g_total_bytes.fetch_add(b, std::memory_order_relaxed);
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  if (Enabled()) {
    TagTable& table = GetTagTable();
    std::lock_guard<std::mutex> lock(table.mu);
    const char* tag = CurrentTag();
    MemoryTagStats& s = table.tags[tag != nullptr ? tag : "(untagged)"];
    s.bytes += b;
    s.count += 1;
  }
}

void RecordFree(size_t bytes) {
  g_live_bytes.fetch_sub(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
  g_free_count.fetch_add(1, std::memory_order_relaxed);
}
#endif

int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }
int64_t PeakBytes() { return g_peak_bytes.load(std::memory_order_relaxed); }
int64_t TotalAllocBytes() {
  return g_total_bytes.load(std::memory_order_relaxed);
}
int64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }
int64_t FreeCount() { return g_free_count.load(std::memory_order_relaxed); }

void ResetPeakBytes() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

std::map<std::string, MemoryTagStats> MemoryTagSnapshot() {
  TagTable& table = GetTagTable();
  std::lock_guard<std::mutex> lock(table.mu);
  return table.tags;
}

void ResetMemoryStats() {
  {
    TagTable& table = GetTagTable();
    std::lock_guard<std::mutex> lock(table.mu);
    table.tags.clear();
  }
  g_total_bytes.store(0, std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_free_count.store(0, std::memory_order_relaxed);
  ResetPeakBytes();
}

int64_t CurrentRssBytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long total = 0, resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
#else
  return 0;
#endif
}

int64_t PeakRssBytes() {
#if defined(__linux__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;  // ru_maxrss is in KiB
#elif defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<int64_t>(ru.ru_maxrss);  // already bytes on macOS
#else
  return 0;
#endif
}

ProcessUsage ReadProcessUsage() {
  ProcessUsage u;
#if defined(__linux__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return u;
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  u.minor_faults = static_cast<int64_t>(ru.ru_minflt);
  u.user_cpu_s = seconds(ru.ru_utime);
  u.sys_cpu_s = seconds(ru.ru_stime);
#endif
  return u;
}

// ------------------------------------------------------------ RssSampler

namespace {

struct SamplerState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread thread;
  bool stop = false;
  bool running = false;
  std::atomic<int64_t> peak{0};
  std::atomic<int64_t> samples{0};
};

SamplerState& GetSamplerState() {
  static SamplerState* s = new SamplerState();
  return *s;
}

}  // namespace

RssSampler& RssSampler::Get() {
  static RssSampler* sampler = new RssSampler();
  return *sampler;
}

void RssSampler::Start(int period_ms) {
  SamplerState& s = GetSamplerState();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.running) return;
  s.stop = false;
  s.running = true;
  s.thread = std::thread([&s, period_ms] {
    std::unique_lock<std::mutex> lock(s.mu);
    while (!s.stop) {
      lock.unlock();
      const int64_t rss = CurrentRssBytes();
      int64_t peak = s.peak.load(std::memory_order_relaxed);
      while (rss > peak && !s.peak.compare_exchange_weak(
                               peak, rss, std::memory_order_relaxed)) {
      }
      s.samples.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      s.cv.wait_for(lock, std::chrono::milliseconds(period_ms),
                    [&s] { return s.stop; });
    }
  });
}

void RssSampler::Stop() {
  SamplerState& s = GetSamplerState();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.running) return;
    s.stop = true;
  }
  s.cv.notify_all();
  s.thread.join();
  std::lock_guard<std::mutex> lock(s.mu);
  s.running = false;
}

bool RssSampler::running() const {
  SamplerState& s = GetSamplerState();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.running;
}

int64_t RssSampler::SampledPeakBytes() const {
  return GetSamplerState().peak.load(std::memory_order_relaxed);
}

int64_t RssSampler::SampleCount() const {
  return GetSamplerState().samples.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------- export

std::string MemoryJson() {
  const ProcessUsage usage = ReadProcessUsage();
  std::ostringstream os;
  os << "{\"live_bytes\": " << LiveBytes()
     << ", \"peak_bytes\": " << PeakBytes()
     << ", \"total_alloc_bytes\": " << TotalAllocBytes()
     << ", \"alloc_count\": " << AllocCount()
     << ", \"free_count\": " << FreeCount()
     << ", \"rss_bytes\": " << CurrentRssBytes()
     << ", \"rss_peak_bytes\": " << PeakRssBytes()
     << ", \"minor_faults\": " << usage.minor_faults
     << ", \"user_cpu_s\": " << JsonNumber(usage.user_cpu_s)
     << ", \"sys_cpu_s\": " << JsonNumber(usage.sys_cpu_s)
     << ", \"rss_sampled_peak_bytes\": "
     << RssSampler::Get().SampledPeakBytes() << ", \"tags\": {";
  bool first = true;
  for (const auto& [tag, s] : MemoryTagSnapshot()) {
    os << (first ? "" : ", ") << JsonString(tag) << ": {\"bytes\": " << s.bytes
       << ", \"count\": " << s.count << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace graphaug::obs
