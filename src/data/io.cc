#include "data/io.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string_view>

#include "common/string_util.h"

namespace graphaug {

bool SaveDatasetTsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "#name\t" << dataset.name << "\n";
  out << "#users\t" << dataset.num_users << "\n";
  out << "#items\t" << dataset.num_items << "\n";
  const bool has_flags =
      dataset.noise_flags.size() == dataset.train_edges.size();
  for (size_t i = 0; i < dataset.train_edges.size(); ++i) {
    const Edge& e = dataset.train_edges[i];
    out << e.user << "\t" << e.item << "\ttrain";
    if (has_flags) out << "\t" << (dataset.noise_flags[i] ? 1 : 0);
    out << "\n";
  }
  for (const Edge& e : dataset.test_edges) {
    out << e.user << "\t" << e.item << "\ttest\n";
  }
  return out.good();
}

namespace {

/// A field as quoted in an error message: at most 32 bytes, with
/// non-printable bytes shown as '?', so the message stays one line.
std::string Quote(std::string_view field) {
  std::string q = "'";
  for (char c : field.substr(0, 32)) q += c >= ' ' && c <= '~' ? c : '?';
  return q + (field.size() > 32 ? "...'" : "'");
}

/// Parses a whole field as a decimal int in [0, limit).
bool ParseId(std::string_view field, int32_t limit, int32_t* out) {
  const char* end = field.data() + field.size();
  const auto res = std::from_chars(field.data(), end, *out);
  return res.ec == std::errc() && res.ptr == end && *out >= 0 &&
         *out < limit;
}

}  // namespace

bool LoadDatasetTsv(const std::string& path, Dataset* dataset,
                    std::string* error) {
  int64_t line_no = 0;
  const auto fail = [&](const std::string& reason) {
    if (error != nullptr) {
      *error = path + (line_no > 0 ? ":" + std::to_string(line_no) : "") +
               ": " + reason;
    }
    return false;
  };
  std::ifstream in(path);
  if (!in) return fail("cannot open");
  *dataset = Dataset();
  bool have_users = false;
  bool have_items = false;
  constexpr int32_t kMaxCount = std::numeric_limits<int32_t>::max();
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      const auto f = SplitString(std::string_view(line).substr(1), "\t");
      if (f.size() < 2) return fail("bad header " + Quote(line));
      if (f[0] == "name") {
        dataset->name = f[1];
      } else if (f[0] == "users" || f[0] == "items") {
        int32_t count = 0;
        // A count of 0 is allowed; a row id then fails the range check.
        if (!ParseId(f[1], kMaxCount, &count)) {
          return fail("bad #" + f[0] + " count " + Quote(f[1]));
        }
        if (f[0] == "users") {
          dataset->num_users = count;
          have_users = true;
        } else {
          dataset->num_items = count;
          have_items = true;
        }
      }
      continue;
    }
    const auto f = SplitString(line, "\t");
    if (f.size() < 3) {
      return fail("short row (" + std::to_string(f.size()) +
                  " fields, want user, item, split)");
    }
    if (!have_users || !have_items) {
      return fail("row before the #users and #items headers");
    }
    Edge e{0, 0};
    if (!ParseId(f[0], dataset->num_users, &e.user)) {
      return fail("user id " + Quote(f[0]) + " is not an integer in [0, " +
                  std::to_string(dataset->num_users) + ")");
    }
    if (!ParseId(f[1], dataset->num_items, &e.item)) {
      return fail("item id " + Quote(f[1]) + " is not an integer in [0, " +
                  std::to_string(dataset->num_items) + ")");
    }
    if (f[2] == "train") {
      dataset->train_edges.push_back(e);
      if (f.size() >= 4) {
        if (f[3] != "0" && f[3] != "1") {
          return fail("bad noise flag " + Quote(f[3]) + " (want 0 or 1)");
        }
        dataset->noise_flags.push_back(f[3] == "1");
      }
    } else if (f[2] == "test") {
      dataset->test_edges.push_back(e);
    } else {
      return fail("bad split tag " + Quote(f[2]) + " (want train or test)");
    }
  }
  line_no = 0;  // the checks below concern the whole file, not a line
  if (in.bad()) return fail("read error");
  if (!have_users || !have_items) return fail("missing #users or #items header");
  if (dataset->train_edges.empty()) return fail("no train rows");
  if (dataset->noise_flags.size() != dataset->train_edges.size()) {
    dataset->noise_flags.clear();
  }
  return true;
}

}  // namespace graphaug
