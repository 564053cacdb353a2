#include "obs/perf_counters.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace graphaug::obs {

PerfCounts& PerfCounts::operator+=(const PerfCounts& o) {
  valid = valid && o.valid;
  cycles += o.cycles;
  instructions += o.instructions;
  cache_references += o.cache_references;
  cache_misses += o.cache_misses;
  branch_misses += o.branch_misses;
  // Duration-weighting needs per-region times we don't keep; the min is
  // a conservative summary of how multiplexed the estimates are.
  running_fraction = running_fraction > 0
                         ? std::min(running_fraction, o.running_fraction)
                         : o.running_fraction;
  return *this;
}

namespace {

/// Probe state: 0 = unknown, 1 = available, 2 = unavailable. Set once by
/// the first open attempt; later Begin() calls pay one relaxed load.
std::atomic<int> g_probe_state{0};

struct RegionTable {
  std::mutex mu;
  std::map<std::string, PerfCounts> regions;
};

RegionTable& GetRegionTable() {
  static RegionTable* t = new RegionTable();
  return *t;
}

#if defined(__linux__)

/// The five events, group order == read order. Leader is cycles.
constexpr uint64_t kEventConfigs[5] = {
    PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES};

int PerfOpen(uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}

#endif  // __linux__

}  // namespace

bool PerfCountersAvailable() {
  return g_probe_state.load(std::memory_order_relaxed) == 1;
}

bool PerfCountersProbeFailed() {
  return g_probe_state.load(std::memory_order_relaxed) == 2;
}

PerfCounterGroup::~PerfCounterGroup() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
#endif
}

bool PerfCounterGroup::Begin() {
#if defined(__linux__)
  if (open_failed_ ||
      g_probe_state.load(std::memory_order_relaxed) == 2) {
    return false;
  }
  if (!opened_) {
    for (size_t i = 0; i < 5; ++i) {
      fds_[i] = PerfOpen(kEventConfigs[i], i == 0 ? -1 : fds_[0]);
      if (fds_[i] < 0) {
        // All-or-nothing: a partial group (e.g. cache events missing on
        // some VMs) would silently skew the derived rates.
        for (size_t j = 0; j < i; ++j) {
          close(fds_[j]);
          fds_[j] = -1;
        }
        open_failed_ = true;
        g_probe_state.store(2, std::memory_order_relaxed);
        return false;
      }
    }
    opened_ = true;
    g_probe_state.store(1, std::memory_order_relaxed);
  }
  ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  return true;
#else
  g_probe_state.store(2, std::memory_order_relaxed);
  return false;
#endif
}

PerfCounts PerfCounterGroup::End() {
  PerfCounts out;
#if defined(__linux__)
  if (!opened_) return out;
  ioctl(fds_[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  // PERF_FORMAT_GROUP read layout:
  //   u64 nr; u64 time_enabled; u64 time_running; u64 values[nr];
  uint64_t buf[3 + 5] = {0};
  const ssize_t n = read(fds_[0], buf, sizeof(buf));
  if (n < static_cast<ssize_t>(sizeof(buf)) || buf[0] != 5) return out;
  const uint64_t enabled = buf[1], running = buf[2];
  if (running == 0) return out;  // never scheduled: no estimate possible
  const double scale =
      static_cast<double>(enabled) / static_cast<double>(running);
  auto scaled = [scale](uint64_t v) {
    return static_cast<int64_t>(static_cast<double>(v) * scale);
  };
  out.cycles = scaled(buf[3]);
  out.instructions = scaled(buf[4]);
  out.cache_references = scaled(buf[5]);
  out.cache_misses = scaled(buf[6]);
  out.branch_misses = scaled(buf[7]);
  out.running_fraction =
      static_cast<double>(running) / static_cast<double>(enabled);
  out.valid = true;
#endif
  return out;
}

// ------------------------------------------------------- region tracking

namespace {

/// Per-thread reusable group for region scopes (obs::Scope, kind
/// kRegion). The no-nesting rule lives in the scope chain.
thread_local PerfCounterGroup t_region_group;

}  // namespace

bool BeginRegionCounters() { return t_region_group.Begin(); }

void EndRegionCounters(const char* name) {
  const PerfCounts counts = t_region_group.End();
  if (!counts.valid) return;
  RegionTable& table = GetRegionTable();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.regions.find(name);
  if (it == table.regions.end()) {
    table.regions.emplace(name, counts);
  } else {
    it->second += counts;
  }
}

std::map<std::string, PerfCounts> PerfRegionSnapshot() {
  RegionTable& table = GetRegionTable();
  std::lock_guard<std::mutex> lock(table.mu);
  return table.regions;
}

void ResetPerfRegions() {
  RegionTable& table = GetRegionTable();
  std::lock_guard<std::mutex> lock(table.mu);
  table.regions.clear();
}

std::string PerfJson() {
  std::ostringstream os;
  os << "{\"available\": "
     << (PerfCountersAvailable() ? "true" : "false") << ", \"regions\": {";
  bool first = true;
  for (const auto& [name, c] : PerfRegionSnapshot()) {
    os << (first ? "" : ", ") << JsonString(name)
       << ": {\"cycles\": " << c.cycles
       << ", \"instructions\": " << c.instructions
       << ", \"cache_references\": " << c.cache_references
       << ", \"cache_misses\": " << c.cache_misses
       << ", \"branch_misses\": " << c.branch_misses
       << ", \"ipc\": " << JsonNumber(c.Ipc())
       << ", \"cache_miss_rate\": " << JsonNumber(c.CacheMissRate())
       << ", \"running_fraction\": " << JsonNumber(c.running_fraction)
       << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace graphaug::obs
