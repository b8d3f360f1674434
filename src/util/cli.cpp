#include "util/cli.hpp"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace sfc::util {

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  specs_[name] = Spec{help, "false", true};
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  specs_[name] = Spec{help, default_value, false};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      error_ = "unknown option: --" + arg;
      return false;
    }
    if (it->second.is_flag) {
      if (has_value) {
        error_ = "flag --" + arg + " does not take a value";
        return false;
      }
      values_[arg] = "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          error_ = "option --" + arg + " requires a value";
          return false;
        }
        value = argv[++i];
      }
      values_[arg] = value;
    }
  }
  return true;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return it->second == "true";
  const auto s = specs_.find(name);
  return s != specs_.end() && s->second.default_value == "true";
}

std::string ArgParser::str(const std::string& name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  const auto s = specs_.find(name);
  return s != specs_.end() ? s->second.default_value : std::string();
}

std::int64_t ArgParser::i64(const std::string& name) const {
  return std::strtoll(str(name).c_str(), nullptr, 10);
}

std::uint32_t ArgParser::u32(const std::string& name) const {
  const std::int64_t v = i64(name);
  if (v < 0 || v > std::int64_t{0xffffffff}) {
    throw std::invalid_argument("--" + name + " must be between 0 and " +
                                "4294967295 (got " + str(name) + ")");
  }
  return static_cast<std::uint32_t>(v);
}

double ArgParser::f64(const std::string& name) const {
  return std::strtod(str(name).c_str(), nullptr);
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.is_flag) os << " <value>";
    os << "\n      " << spec.help;
    if (!spec.is_flag) os << " (default: " << spec.default_value << ")";
    os << '\n';
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace sfc::util
