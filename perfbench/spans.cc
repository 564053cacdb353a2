#include "spans.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <sstream>

namespace perfbench {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int SpanRecorder::Begin(const std::string& name, int64_t start_ns) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id, int64_t end_ns, int64_t cpu_ns) {
  if (id < 0) return;
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = end_ns;
  s.cpu_ns = cpu_ns;
  // Spans are strictly nested (one caller thread), so the span being
  // closed is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<int64_t> SpanRecorder::ChildNs() const {
  // Spans are strictly nested, so children of one span never overlap and
  // their durations add up to the covered part of the parent's interval.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return child_ns;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Totals() const {
  const std::vector<int64_t> child_ns = ChildNs();
  std::map<std::string, NameTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    NameTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  return out;
}

std::string SpanRecorder::ToJson() const {
  const std::vector<int64_t> child_ns = ChildNs();
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream os;
  os << "{\"run_id\": \"" << std::hex << run_id_ << std::dec
     << "\", \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                  "\"end_ns\": %lld, \"parent\": %d, \"cpu_s\": %.9f, "
                  "\"self_s\": %.9f}",
                  i == 0 ? "" : ",", i, s.name.c_str(),
                  static_cast<long long>(s.start_ns - t0),
                  static_cast<long long>(s.end_ns - t0), s.parent,
                  static_cast<double>(s.cpu_ns) * 1e-9,
                  static_cast<double>(dur - child_ns[i]) * 1e-9);
    os << buf;
  }
  os << "]}";
  return os.str();
}

Timing ScopedSpan::Stop() {
  if (stopped_) return timing_;
  stopped_ = true;
  const int64_t wall1 = WallNs();
  const int64_t cpu = CpuNs() - cpu0_;
  rec_->End(id_, wall1, cpu);
  timing_.wall_s = static_cast<double>(wall1 - wall0_) * 1e-9;
  timing_.cpu_s = static_cast<double>(cpu) * 1e-9;
  return timing_;
}

}  // namespace perfbench
