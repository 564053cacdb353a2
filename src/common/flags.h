#ifndef GRAPHAUG_COMMON_FLAGS_H_
#define GRAPHAUG_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace graphaug {

/// Minimal command-line flag parser for the CLI tool and experiment
/// binaries. Supports `--key=value` and bare `--switch` (true) forms;
/// positional arguments are collected in order. The space-separated
/// `--key value` form is intentionally rejected (ambiguous with a switch
/// followed by a positional).
///
///   FlagParser flags(argc, argv);
///   int dim = flags.GetInt("dim", 32);
///   std::string dataset = flags.GetString("dataset", "gowalla-sim");
///   const auto& positional = flags.positional();
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  /// True if --name was supplied.
  bool Has(const std::string& name) const;

  /// Typed getters. A value that does not parse as a whole — empty,
  /// trailing junk, or out of the type's range — prints one line naming
  /// the flag to stderr and exits the process with status 2 (a usage
  /// error, like an unknown subcommand).
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  /// GetInt for values that must fit an int (counts, sizes, thread caps).
  int GetInt32(const std::string& name, int default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were supplied but never read by a Get* call — typo guard.
  std::vector<std::string> UnusedFlags() const;

 private:
  /// Marks `name` read; returns its value, or nullptr when not supplied.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace graphaug

#endif  // GRAPHAUG_COMMON_FLAGS_H_
