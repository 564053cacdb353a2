#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/string_util.h"

namespace graphaug {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      // Bare switch. The space-separated `--key value` form is not
      // supported: it is ambiguous with a boolean switch followed by a
      // positional argument.
      values_[arg] = "true";
    }
  }
}

const std::string* FlagParser::Find(const std::string& name) const {
  read_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool FlagParser::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : *v;
}

namespace {

/// Reports a flag value that cannot be used and exits with the usage-error
/// status: a bad command line is the caller's mistake, not a crash.
[[noreturn]] void BadValue(const std::string& name, const char* expects,
                           const std::string& value) {
  std::fprintf(stderr, "flag --%s expects %s, got '%s'\n", name.c_str(),
               expects, value.c_str());
  std::exit(2);
}

/// Parses the whole of `s` as a base-10 integer in [lo, hi].
bool ParseInt(const std::string& s, int64_t lo, int64_t hi, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end == s.c_str() || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  const std::string* s = Find(name);
  if (s == nullptr) return default_value;
  int64_t v = 0;
  if (!ParseInt(*s, std::numeric_limits<int64_t>::min(),
                std::numeric_limits<int64_t>::max(), &v)) {
    BadValue(name, "an integer", *s);
  }
  return v;
}

int FlagParser::GetInt32(const std::string& name, int default_value) const {
  const std::string* s = Find(name);
  if (s == nullptr) return default_value;
  int64_t v = 0;
  if (!ParseInt(*s, std::numeric_limits<int>::min(),
                std::numeric_limits<int>::max(), &v)) {
    BadValue(name, "an integer in [-2147483648, 2147483647]", *s);
  }
  return static_cast<int>(v);
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const std::string* s = Find(name);
  if (s == nullptr) return default_value;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s->c_str(), &end);
  // ERANGE: the value overflows a double or underflows to a denormal/0.
  if (errno == ERANGE || end == s->c_str() || *end != '\0') {
    BadValue(name, "a number", *s);
  }
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const std::string* s = Find(name);
  if (s == nullptr) return default_value;
  const std::string v = AsciiToLower(*s);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  BadValue(name, "a boolean", *s);
}

std::vector<std::string> FlagParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (read_.find(name) == read_.end()) unused.push_back(name);
  }
  return unused;
}

}  // namespace graphaug
