// cli.hpp — a minimal command-line option parser for the bench/example
// binaries. Supports `--name value`, `--name=value`, and boolean flags.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sfc::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Declare a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Declare a valued option with a default.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);

  /// Parse argv. Returns false (and fills error()) on unknown or malformed
  /// arguments. `--help` sets help_requested() and returns true.
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  std::string str(const std::string& name) const;
  std::int64_t i64(const std::string& name) const;
  /// i64() range-checked to [0, 2^32 - 1]: a value outside throws
  /// std::invalid_argument naming the flag, never wraps.
  std::uint32_t u32(const std::string& name) const;
  double f64(const std::string& name) const;

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }
  std::string usage() const;

 private:
  struct Spec {
    std::string help;
    std::string default_value;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  bool help_requested_ = false;
  std::string error_;
};

/// Run a command-line body, reporting an escaping exception (a flag out
/// of range surfaces as std::invalid_argument) like a malformed command
/// line: `error: <what>` on stderr and exit status 1, never an abort.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace sfc::util
