#ifndef GRAPHAUG_OBS_REPORT_H_
#define GRAPHAUG_OBS_REPORT_H_

/// Persistent run reports: one JSONL file per training/bench run, one
/// record per line. Epoch records carry the loss breakdown, grad/param
/// norms, timing, and memory state at the end of the epoch; a single
/// footer record carries environment provenance (git SHA, hardware),
/// the run configuration, final eval metrics, and counter totals. The
/// format is append-only and line-delimited so a crashed run still
/// leaves every completed epoch on disk, and so tools/report_compare
/// can diff two runs record-by-record.
///
/// The writer is plain buffered I/O on the epoch boundary — nothing
/// here touches the training hot path, and the class stays functional
/// in GRAPHAUG_NO_OBS builds (memory/health fields simply read zero).

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "obs/config.h"

namespace graphaug::obs {

/// One epoch record ({"type": "epoch", ...}).
struct ReportEpoch {
  int epoch = 0;
  double loss = 0;
  std::map<std::string, double> loss_components;
  double grad_norm = 0;
  double param_norm = 0;
  int64_t nonfinite = 0;       ///< NaN/Inf grad entries + losses this epoch
  double epoch_seconds = 0;    ///< training time of this epoch (excl. eval)
  double elapsed_seconds = 0;  ///< wall time since the run started
  bool evaluated = false;      ///< eval ran this epoch (fields below valid)
  double recall20 = 0;
  double ndcg20 = 0;
  int64_t live_bytes = 0;  ///< tracked tensor bytes at epoch end
  int64_t peak_bytes = 0;  ///< tracked high-water mark so far
  int64_t rss_bytes = 0;   ///< process RSS at epoch end
};

/// The footer record ({"type": "footer", ...}), written once at the end.
struct ReportFooter {
  /// Environment/provenance fields (git_sha, timestamp_utc, ...). Values
  /// are written as JSON strings.
  std::map<std::string, std::string> env;
  /// Run configuration (model, dataset, epochs, dim, ...). Values are
  /// written as JSON strings.
  std::map<std::string, std::string> config;
  /// Final evaluation metrics (recall@20, ndcg@40, ...).
  std::map<std::string, double> metrics;
  int best_epoch = 0;
  double train_seconds = 0;
  int64_t peak_bytes = 0;      ///< tracked high-water mark of the run
  int64_t rss_peak_bytes = 0;  ///< OS-level peak RSS (getrusage / sampler)
  int64_t minor_faults = 0;    ///< process minor page faults (getrusage)
  double user_cpu_s = 0;       ///< process user CPU seconds (getrusage)
  double sys_cpu_s = 0;        ///< process system CPU seconds (getrusage)
  /// Totals of every registered obs counter at run end.
  std::map<std::string, int64_t> counters;
};

/// Serialize one record as a single-line JSON object (exposed for tests;
/// the writer appends a trailing newline).
std::string ReportEpochJson(const ReportEpoch& e);
std::string ReportFooterJson(const ReportFooter& f);

/// Append-only JSONL writer. Open() truncates; each Write* flushes the
/// line so completed epochs survive a crash. All methods return false
/// (and ok() latches false) on I/O failure.
class RunReportWriter {
 public:
  RunReportWriter() = default;
  ~RunReportWriter();

  RunReportWriter(const RunReportWriter&) = delete;
  RunReportWriter& operator=(const RunReportWriter&) = delete;

  bool Open(const std::string& path);
  bool is_open() const { return f_ != nullptr; }
  /// True while no write has failed since Open.
  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }

  bool WriteEpoch(const ReportEpoch& e);
  bool WriteFooter(const ReportFooter& f);

  /// Flushes and closes; returns the final ok() state.
  bool Close();

 private:
  bool WriteLine(const std::string& json);

  std::FILE* f_ = nullptr;
  bool ok_ = true;
  std::string path_;
};

}  // namespace graphaug::obs

#endif  // GRAPHAUG_OBS_REPORT_H_
