#include "obs/obs.h"

#include <atomic>
#include <cstdio>
#include <sstream>

#include "common/parallel.h"

namespace graphaug::obs {

#if GRAPHAUG_OBS_ENABLED
namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
  // Busy/wall timing in the parallel runtime rides the master switch,
  // and so does forwarding scopes into pool-worker chunks.
  SetParallelStatsEnabled(enabled);
  UpdateScopeForwarding();
}
#endif

namespace {

/// JSON object for the parallel runtime, plus a derived utilization
/// fraction (busy / (wall * threads)); only meaningful in timed mode.
std::string ParallelJson() {
  const ParallelStats s = GetParallelStats();
  const int threads = NumThreads();
  const double util =
      s.wall_ns > 0
          ? static_cast<double>(s.busy_ns) /
                (static_cast<double>(s.wall_ns) * static_cast<double>(threads))
          : 0.0;
  std::ostringstream os;
  os << "{\"threads\": " << threads
     << ", \"pool_regions\": " << s.pool_regions
     << ", \"serial_regions\": " << s.serial_regions
     << ", \"declined_regions\": " << s.declined_regions
     << ", \"pool_chunks\": " << s.pool_chunks
     << ", \"busy_ms\": " << JsonNumber(static_cast<double>(s.busy_ns) / 1e6)
     << ", \"wall_ms\": " << JsonNumber(static_cast<double>(s.wall_ns) / 1e6)
     << ", \"utilization\": " << JsonNumber(util) << "}";
  return os.str();
}

void RefreshParallelGauges() {
  const ParallelStats s = GetParallelStats();
  const int threads = NumThreads();
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.GetGauge("parallel.threads")->Set(static_cast<double>(threads));
  reg.GetGauge("parallel.declined_regions")
      ->Set(static_cast<double>(s.declined_regions));
  reg.GetGauge("parallel.utilization")
      ->Set(s.wall_ns > 0 ? static_cast<double>(s.busy_ns) /
                                (static_cast<double>(s.wall_ns) *
                                 static_cast<double>(threads))
                          : 0.0);
}

}  // namespace

std::string MetricsJson() {
  RefreshParallelGauges();
  std::ostringstream os;
  os << "{\n\"metrics\": " << MetricsRegistry::Get().ToJson()
     << ",\n\"autograd_ops\": " << AutogradProfiler::Get().ToJson()
     << ",\n\"epochs\": " << HealthTracker::Get().ToJson()
     << ",\n\"parallel\": " << ParallelJson()
     << ",\n\"memory\": " << MemoryJson()
     << ",\n\"perf\": " << PerfJson() << "\n}";
  return os.str();
}

bool WriteMetricsJson(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = MetricsJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

std::string AsciiReport() {
  RefreshParallelGauges();
  std::ostringstream os;
  const Table ops = AutogradProfiler::Get().ToTable();
  if (ops.NumRows() > 0) {
    os << "Autograd ops (sorted by total time)\n" << ops.ToString() << "\n";
  }
  const Table health = HealthTracker::Get().ToTable();
  if (health.NumRows() > 0) {
    os << "Training health\n" << health.ToString() << "\n";
  }
  os << "Metrics\n" << MetricsRegistry::Get().ToTable().ToString();
  const ParallelStats s = GetParallelStats();
  os << "Parallel runtime: " << NumThreads() << " threads, "
     << s.pool_regions << " pool regions (" << s.pool_chunks << " chunks), "
     << s.serial_regions << " serial regions (" << s.declined_regions
     << " declined below the break-even)";
  if (s.wall_ns > 0) {
    os << ", utilization "
       << FormatDouble(static_cast<double>(s.busy_ns) /
                           (static_cast<double>(s.wall_ns) * NumThreads()),
                       2);
  }
  os << "\n";
  const ProcessUsage usage = ReadProcessUsage();
  os << "Memory: live " << FormatDouble(LiveBytes() / (1024.0 * 1024.0), 2)
     << " MiB, peak " << FormatDouble(PeakBytes() / (1024.0 * 1024.0), 2)
     << " MiB tracked (" << AllocCount() << " allocs), rss "
     << FormatDouble(CurrentRssBytes() / (1024.0 * 1024.0), 2)
     << " MiB (peak " << FormatDouble(PeakRssBytes() / (1024.0 * 1024.0), 2)
     << " MiB), " << usage.minor_faults << " minor faults, cpu user "
     << FormatDouble(usage.user_cpu_s, 2) << " s sys "
     << FormatDouble(usage.sys_cpu_s, 2) << " s\n";
  if (PerfCountersProbeFailed()) {
    os << "Perf counters: unavailable (perf_event_open denied)\n";
  }
  if (ProfileSampleCount() > 0) {
    const ProfileSummary prof = SummarizeProfile();
    os << "Profiler: " << prof.samples << " samples @ " << ProfilerHz()
       << " Hz across " << prof.threads << " threads ("
       << prof.distinct_stacks << " stacks, " << prof.lost << " lost, "
       << FormatDouble(100.0 * prof.span_covered_frac, 1) << "% in a scope, "
       << FormatDouble(100.0 * prof.attributed_frac, 1)
       << "% with a symbolized leaf)\n";
  } else if (ProfilerProbeFailed()) {
    os << "Profiler: unavailable (per-thread timers/signals denied)\n";
  }
  const int64_t dropped = TraceDroppedTotal();
  if (dropped > 0) {
    os << "Trace: " << dropped << " events dropped (ring overflow)\n";
  }
  return os.str();
}

void ResetAll() {
  MetricsRegistry::Get().Reset();
  AutogradProfiler::Get().Reset();
  HealthTracker::Get().Reset();
  ResetTrace();
  ResetParallelStats();
  ResetMemoryStats();
  ResetPerfRegions();
  ResetProfile();
}

}  // namespace graphaug::obs
