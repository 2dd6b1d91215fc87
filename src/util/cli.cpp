#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "util/assert.hpp"

namespace goc {

namespace {

/// Parses all of `text` as a double: false when `std::stod` throws or
/// stops before the end ("12abc" is not 12).
bool parse_double(const std::string& text, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  // std::from_chars takes no sign, whitespace or base prefix for an
  // unsigned type and reports overflow instead of wrapping.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

int run_main(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::cerr << (argc >= 1 ? argv[0] : "") << ": " << error.what() << "\n";
    return 2;
  }
}

Cli::Cli(int argc, const char* const* argv) {
  GOC_CHECK_ARG(argc >= 1 && argv != nullptr, "Cli requires argv[0]");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is itself an option or absent —
    // then it is a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::uint64_t Cli::get_u64(const std::string& name,
                           std::uint64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const auto value = parse_u64(it->second);
  if (!value) {
    throw std::invalid_argument("option --" + name + " expects an unsigned integer, got '" +
                   it->second + "'");
  }
  return *value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  double value = 0.0;
  if (!parse_double(it->second, value) || !std::isfinite(value)) {
    throw std::invalid_argument("option --" + name + " expects a finite number, got '" +
                   it->second + "'");
  }
  return value;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("option --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::string> Cli::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> stray;
  for (const auto& [name, _] : options_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      stray.push_back(name);
    }
  }
  return stray;
}

bool Cli::refuse_unknown(const std::vector<std::string>& known,
                         bool positional_ok) const {
  const std::vector<std::string> stray = unknown(known);
  if (stray.empty() && (positional_ok || positional_.empty())) return false;
  std::cerr << program_ << ": unknown option(s):";
  for (const auto& name : stray) std::cerr << " --" << name;
  if (!positional_ok) {
    for (const auto& arg : positional_) std::cerr << " " << arg;
  }
  std::cerr << "\n";
  return true;
}

}  // namespace goc
