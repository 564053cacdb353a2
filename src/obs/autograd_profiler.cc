#include "obs/autograd_profiler.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "obs/metrics.h"

namespace graphaug::obs {

AutogradProfiler& AutogradProfiler::Get() {
  static AutogradProfiler* profiler = new AutogradProfiler();
  return *profiler;
}

void AutogradProfiler::RecordForward(const char* op, int64_t ns, double flops,
                                     double bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  OpStats& s = stats_[op];
  ++s.fwd_calls;
  s.fwd_ns += ns;
  s.flops += flops;
  s.bytes += bytes;
}

void AutogradProfiler::RecordBackward(const char* op, int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  OpStats& s = stats_[op];
  ++s.bwd_calls;
  s.bwd_ns += ns;
}

std::map<std::string, OpStats> AutogradProfiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string AutogradProfiler::ToJson() const {
  const std::map<std::string, OpStats> snap = Snapshot();
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [op, s] : snap) {
    os << (first ? "\n" : ",\n") << "    " << JsonString(op) << ": {"
       << "\"fwd_calls\": " << s.fwd_calls
       << ", \"bwd_calls\": " << s.bwd_calls << ", \"fwd_ms\": "
       << JsonNumber(static_cast<double>(s.fwd_ns) / 1e6) << ", \"bwd_ms\": "
       << JsonNumber(static_cast<double>(s.bwd_ns) / 1e6)
       << ", \"flops\": " << JsonNumber(s.flops)
       << ", \"bytes\": " << JsonNumber(s.bytes) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}";
  return os.str();
}

Table AutogradProfiler::ToTable() const {
  const std::map<std::string, OpStats> snap = Snapshot();
  std::vector<std::pair<std::string, OpStats>> rows(snap.begin(), snap.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.fwd_ns + a.second.bwd_ns >
           b.second.fwd_ns + b.second.bwd_ns;
  });
  Table t({"Op", "calls", "fwd ms", "bwd ms", "GFLOP", "MB touched"});
  for (const auto& [op, s] : rows) {
    t.AddRow({op, std::to_string(s.fwd_calls),
              FormatDouble(static_cast<double>(s.fwd_ns) / 1e6, 2),
              FormatDouble(static_cast<double>(s.bwd_ns) / 1e6, 2),
              FormatDouble(s.flops / 1e9, 3),
              FormatDouble(s.bytes / (1024.0 * 1024.0), 1)});
  }
  return t;
}

void AutogradProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
}

}  // namespace graphaug::obs
