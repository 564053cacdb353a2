// Folds, diffs, and pretty-prints sampling profiles written by
// --profile-out (obs/profiler.h) in Brendan-Gregg collapsed-stack
// format: one `frame;frame;...;leaf COUNT` line per unique stack, root
// first, with the synthetic first frame `span:<tag>` carrying the
// trace-span / autograd-op attribution.
//
// Usage:
//   profile_report FILE.folded [MORE.folded...] [--top=N]
//       merge the inputs and print the top-N frames by self samples
//       (plus per-span shares); --merge-out=F also writes the merged
//       profile back out in folded format.
//   profile_report --baseline=a.folded --current=b.folded [--top=N]
//       diff two profiles by per-frame self-share, largest shifts first.
//   profile_report --selftest
//
// "self" counts samples whose leaf is the frame; "total" counts samples
// whose stack contains the frame (once per stack — recursion is not
// double-counted). Works on any folded file, including flamegraph.pl
// inputs produced elsewhere.
//
// Exit codes: 0 ok, 2 usage / parse error.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"

namespace graphaug {
namespace {

/// A merged profile: folded stack line (without the count) -> samples.
struct Profile {
  std::map<std::string, int64_t> stacks;
  int64_t samples = 0;
};

std::vector<std::string> SplitFrames(const std::string& stack) {
  std::vector<std::string> frames;
  size_t pos = 0;
  while (pos <= stack.size()) {
    const size_t semi = stack.find(';', pos);
    const size_t end = semi == std::string::npos ? stack.size() : semi;
    frames.push_back(stack.substr(pos, end - pos));
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  return frames;
}

/// Parses folded text into `out` (accumulating — callable once per input
/// file to merge). Blank lines are skipped; anything else malformed
/// (missing count, empty stack) is an error with a line number.
bool ParseFolded(const std::string& text, Profile* out, std::string* error) {
  size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    ++line_no;
    pos = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    const size_t space = line.find_last_of(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      *error = "line " + std::to_string(line_no) +
               ": expected 'stack;frames... COUNT'";
      return false;
    }
    const std::string count_str = line.substr(space + 1);
    if (count_str.find_first_not_of("0123456789") != std::string::npos) {
      *error = "line " + std::to_string(line_no) + ": count '" + count_str +
               "' is not a non-negative integer";
      return false;
    }
    const int64_t count = std::strtoll(count_str.c_str(), nullptr, 10);
    const std::string stack = line.substr(0, space);
    out->stacks[stack] += count;
    out->samples += count;
  }
  if (out->stacks.empty()) {
    *error = "no stacks";
    return false;
  }
  return true;
}

bool LoadFolded(const std::string& path, Profile* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "profile_report: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string error;
  if (!ParseFolded(ss.str(), out, &error)) {
    std::fprintf(stderr, "profile_report: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

std::string RenderFolded(const Profile& p) {
  std::string out;
  for (const auto& [stack, count] : p.stacks) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

struct FrameStat {
  int64_t self = 0;
  int64_t total = 0;
};

/// Per-frame self/total over every stack. The synthetic span root frames
/// ("span:...") are collected into `spans` (prefix stripped) instead of
/// the frame table.
std::map<std::string, FrameStat> FrameStats(
    const Profile& p, std::map<std::string, int64_t>* spans) {
  std::map<std::string, FrameStat> stats;
  for (const auto& [stack, count] : p.stacks) {
    std::vector<std::string> frames = SplitFrames(stack);
    if (!frames.empty() && frames.front().rfind("span:", 0) == 0) {
      if (spans != nullptr) (*spans)[frames.front().substr(5)] += count;
      frames.erase(frames.begin());
    }
    if (frames.empty()) continue;
    stats[frames.back()].self += count;
    std::sort(frames.begin(), frames.end());
    frames.erase(std::unique(frames.begin(), frames.end()), frames.end());
    for (const std::string& f : frames) stats[f].total += count;
  }
  return stats;
}

std::string Truncate(const std::string& s, size_t max) {
  if (s.size() <= max) return s;
  return s.substr(0, max - 3) + "...";
}

int PrintReport(const Profile& p, int top_n) {
  std::map<std::string, int64_t> spans;
  const std::map<std::string, FrameStat> stats = FrameStats(p, &spans);
  std::vector<std::pair<std::string, FrameStat>> rows(stats.begin(),
                                                      stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self != b.second.self ? a.second.self > b.second.self
                                          : a.first < b.first;
  });
  const double denom = p.samples > 0 ? static_cast<double>(p.samples) : 1.0;
  std::printf("%lld samples, %zu unique stacks, %zu unique frames\n",
              static_cast<long long>(p.samples), p.stacks.size(),
              stats.size());
  if (!spans.empty()) {
    std::vector<std::pair<std::string, int64_t>> span_rows(spans.begin(),
                                                           spans.end());
    std::sort(span_rows.begin(), span_rows.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    Table st({"span", "samples", "share%"});
    for (const auto& [name, count] : span_rows) {
      st.AddRow({name, std::to_string(count),
                 FormatDouble(100.0 * static_cast<double>(count) / denom, 1)});
    }
    std::printf("%s", st.ToString().c_str());
  }
  Table t({"self%", "total%", "self", "frame"});
  int printed = 0;
  for (const auto& [name, stat] : rows) {
    if (top_n >= 0 && printed >= top_n) break;
    t.AddRow({FormatDouble(100.0 * static_cast<double>(stat.self) / denom, 1),
              FormatDouble(100.0 * static_cast<double>(stat.total) / denom, 1),
              std::to_string(stat.self), Truncate(name, 76)});
    ++printed;
  }
  std::printf("%s", t.ToString().c_str());
  return 0;
}

int PrintDiff(const Profile& base, const Profile& cur, int top_n) {
  const std::map<std::string, FrameStat> bs = FrameStats(base, nullptr);
  const std::map<std::string, FrameStat> cs = FrameStats(cur, nullptr);
  const double bden =
      base.samples > 0 ? static_cast<double>(base.samples) : 1.0;
  const double cden = cur.samples > 0 ? static_cast<double>(cur.samples) : 1.0;
  struct DiffRow {
    std::string name;
    double base_pct = 0, cur_pct = 0;
  };
  std::vector<DiffRow> rows;
  for (const auto& [name, stat] : bs) {
    DiffRow r{name, 100.0 * static_cast<double>(stat.self) / bden, 0};
    const auto it = cs.find(name);
    if (it != cs.end()) {
      r.cur_pct = 100.0 * static_cast<double>(it->second.self) / cden;
    }
    rows.push_back(std::move(r));
  }
  for (const auto& [name, stat] : cs) {
    if (bs.find(name) == bs.end()) {
      rows.push_back(
          DiffRow{name, 0, 100.0 * static_cast<double>(stat.self) / cden});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const DiffRow& a, const DiffRow& b) {
    const double da = std::fabs(a.cur_pct - a.base_pct);
    const double db = std::fabs(b.cur_pct - b.base_pct);
    return da != db ? da > db : a.name < b.name;
  });
  std::printf("baseline %lld samples, current %lld samples; self-share "
              "shifts (percentage points):\n",
              static_cast<long long>(base.samples),
              static_cast<long long>(cur.samples));
  Table t({"base%", "cur%", "delta", "frame"});
  int printed = 0;
  for (const DiffRow& r : rows) {
    if (top_n >= 0 && printed >= top_n) break;
    char delta[32];
    std::snprintf(delta, sizeof(delta), "%+.1f", r.cur_pct - r.base_pct);
    t.AddRow({FormatDouble(r.base_pct, 1), FormatDouble(r.cur_pct, 1), delta,
              Truncate(r.name, 70)});
    ++printed;
  }
  std::printf("%s", t.ToString().c_str());
  return 0;
}

// --------------------------------------------------------------- selftest

int SelfTest() {
  const std::string folded =
      "span:gemm;main;pack_a;kernel_6x16 70\n"
      "span:gemm;main;kernel_6x16 20\n"
      "span:(none);main;recurse;recurse;leafy 6\n"
      "\n"
      "span:(none);main 4\n";
  Profile p;
  std::string error;
  if (!ParseFolded(folded, &p, &error)) {
    std::fprintf(stderr, "selftest: parse failed: %s\n", error.c_str());
    return 1;
  }
  if (p.samples != 100 || p.stacks.size() != 4) {
    std::fprintf(stderr, "selftest: wrong totals\n");
    return 1;
  }
  std::map<std::string, int64_t> spans;
  const std::map<std::string, FrameStat> stats = FrameStats(p, &spans);
  // self: leaf-frame samples only; total: once per containing stack.
  if (stats.at("kernel_6x16").self != 90 || stats.at("kernel_6x16").total != 90 ||
      stats.at("main").self != 4 || stats.at("main").total != 100 ||
      stats.at("pack_a").self != 0 || stats.at("pack_a").total != 70) {
    std::fprintf(stderr, "selftest: wrong self/total math\n");
    return 1;
  }
  // Recursive frames count once per stack in "total".
  if (stats.at("recurse").total != 6 || stats.at("recurse").self != 0) {
    std::fprintf(stderr, "selftest: recursion double-counted\n");
    return 1;
  }
  if (spans.at("gemm") != 90 || spans.at("(none)") != 10) {
    std::fprintf(stderr, "selftest: wrong span shares\n");
    return 1;
  }
  // Merging the profile into itself doubles every count; render/parse
  // round-trips.
  Profile merged = p;
  if (!ParseFolded(RenderFolded(p), &merged, &error) ||
      merged.samples != 200 ||
      merged.stacks.at("span:gemm;main;pack_a;kernel_6x16") != 140) {
    std::fprintf(stderr, "selftest: merge/round-trip failed\n");
    return 1;
  }
  // Diff path must run on disjoint profiles.
  Profile other;
  if (!ParseFolded("span:gemm;main;kernel_6x16 50\nspan:eval;main;rank 50\n",
                   &other, &error)) {
    std::fprintf(stderr, "selftest: second parse failed\n");
    return 1;
  }
  if (PrintDiff(p, other, 5) != 0 || PrintReport(p, 5) != 0) {
    std::fprintf(stderr, "selftest: print paths failed\n");
    return 1;
  }
  // Malformed lines are errors, not silent skips.
  Profile bad;
  if (ParseFolded("main;leaf notacount\n", &bad, &error) ||
      ParseFolded("justoneword\n", &bad, &error)) {
    std::fprintf(stderr, "selftest: malformed line must fail\n");
    return 1;
  }
  std::printf("profile_report selftest: ok\n");
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("selftest", false)) return SelfTest();
  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string current_path = flags.GetString("current", "");
  const int top_n = flags.GetInt32("top", 25);
  if (!baseline_path.empty() && !current_path.empty()) {
    Profile base, cur;
    if (!LoadFolded(baseline_path, &base) || !LoadFolded(current_path, &cur)) {
      return 2;
    }
    return PrintDiff(base, cur, top_n);
  }
  if (flags.positional().empty() || !baseline_path.empty() ||
      !current_path.empty()) {
    std::fprintf(
        stderr,
        "usage: profile_report FILE.folded [MORE.folded...] [--top=N]\n"
        "                      [--merge-out=FILE]\n"
        "       profile_report --baseline=a.folded --current=b.folded "
        "[--top=N]\n"
        "       profile_report --selftest\n");
    return 2;
  }
  Profile merged;
  for (const std::string& path : flags.positional()) {
    if (!LoadFolded(path, &merged)) return 2;
  }
  const std::string merge_out = flags.GetString("merge-out", "");
  if (!merge_out.empty()) {
    std::ofstream out(merge_out);
    out << RenderFolded(merged);
    if (!out) {
      std::fprintf(stderr, "profile_report: cannot write %s\n",
                   merge_out.c_str());
      return 2;
    }
    std::fprintf(stderr, "merged profile written to %s\n", merge_out.c_str());
  }
  return PrintReport(merged, top_n);
}

}  // namespace
}  // namespace graphaug

int main(int argc, char** argv) { return graphaug::Main(argc, argv); }
