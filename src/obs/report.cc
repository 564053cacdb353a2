#include "obs/report.h"

#include <sstream>

#include "obs/metrics.h"

namespace graphaug::obs {
namespace {

void AppendStringMap(std::ostringstream& oss, const char* key,
                     const std::map<std::string, std::string>& m) {
  oss << "," << JsonString(key) << ":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) oss << ",";
    first = false;
    oss << JsonString(k) << ":" << JsonString(v);
  }
  oss << "}";
}

}  // namespace

std::string ReportEpochJson(const ReportEpoch& e) {
  std::ostringstream oss;
  oss << "{\"type\":\"epoch\",\"epoch\":" << e.epoch
      << ",\"loss\":" << JsonNumber(e.loss);
  if (!e.loss_components.empty()) {
    oss << ",\"loss_components\":{";
    bool first = true;
    for (const auto& [k, v] : e.loss_components) {
      if (!first) oss << ",";
      first = false;
      oss << JsonString(k) << ":" << JsonNumber(v);
    }
    oss << "}";
  }
  oss << ",\"grad_norm\":" << JsonNumber(e.grad_norm)
      << ",\"param_norm\":" << JsonNumber(e.param_norm)
      << ",\"nonfinite\":" << e.nonfinite
      << ",\"epoch_seconds\":" << JsonNumber(e.epoch_seconds)
      << ",\"elapsed_seconds\":" << JsonNumber(e.elapsed_seconds);
  if (e.evaluated) {
    oss << ",\"recall20\":" << JsonNumber(e.recall20)
        << ",\"ndcg20\":" << JsonNumber(e.ndcg20);
  }
  oss << ",\"live_bytes\":" << e.live_bytes
      << ",\"peak_bytes\":" << e.peak_bytes
      << ",\"rss_bytes\":" << e.rss_bytes << "}";
  return oss.str();
}

std::string ReportFooterJson(const ReportFooter& f) {
  std::ostringstream oss;
  oss << "{\"type\":\"footer\"";
  AppendStringMap(oss, "env", f.env);
  AppendStringMap(oss, "config", f.config);
  oss << ",\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : f.metrics) {
    if (!first) oss << ",";
    first = false;
    oss << JsonString(k) << ":" << JsonNumber(v);
  }
  oss << "},\"best_epoch\":" << f.best_epoch
      << ",\"train_seconds\":" << JsonNumber(f.train_seconds)
      << ",\"peak_bytes\":" << f.peak_bytes
      << ",\"rss_peak_bytes\":" << f.rss_peak_bytes
      << ",\"minor_faults\":" << f.minor_faults
      << ",\"user_cpu_s\":" << JsonNumber(f.user_cpu_s)
      << ",\"sys_cpu_s\":" << JsonNumber(f.sys_cpu_s) << ",\"counters\":{";
  first = true;
  for (const auto& [k, v] : f.counters) {
    if (!first) oss << ",";
    first = false;
    oss << JsonString(k) << ":" << v;
  }
  oss << "}}";
  return oss.str();
}

RunReportWriter::~RunReportWriter() { Close(); }

bool RunReportWriter::Open(const std::string& path) {
  Close();
  f_ = std::fopen(path.c_str(), "w");
  ok_ = f_ != nullptr;
  path_ = path;
  return ok_;
}

bool RunReportWriter::WriteLine(const std::string& json) {
  if (f_ == nullptr) return false;
  if (std::fputs(json.c_str(), f_) == EOF || std::fputc('\n', f_) == EOF ||
      std::fflush(f_) != 0) {
    ok_ = false;
  }
  return ok_;
}

bool RunReportWriter::WriteEpoch(const ReportEpoch& e) {
  return WriteLine(ReportEpochJson(e));
}

bool RunReportWriter::WriteFooter(const ReportFooter& f) {
  return WriteLine(ReportFooterJson(f));
}

bool RunReportWriter::Close() {
  if (f_ != nullptr) {
    if (std::fclose(f_) != 0) ok_ = false;
    f_ = nullptr;
  }
  return ok_;
}

}  // namespace graphaug::obs
