#include "serve/request.hpp"

#include <stdexcept>

namespace goc::serve {

std::string echo(std::string_view text, std::size_t limit) {
  if (text.size() <= limit) return std::string(text);
  return std::string(text.substr(0, limit)) + "...(+" +
         std::to_string(text.size() - limit) + " bytes)";
}

std::vector<std::string> tokenize(const std::string& line) {
  std::string text = line;
  if (!text.empty() && text.back() == '\r') text.pop_back();
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t') ++j;
    if (j > i) tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

Cli cli_from_tokens(const std::string& program,
                    const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size() + 1);
  argv.push_back(program.c_str());
  for (const auto& arg : args) argv.push_back(arg.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

void reject_unknown(const Cli& cli, const std::vector<std::string>& known) {
  const std::vector<std::string> stray = cli.unknown(known);
  if (stray.empty() && cli.positional().empty()) return;
  std::string message = "unknown option(s) for " + cli.program() + ":";
  for (const auto& name : stray) message += " --" + echo(name);
  for (const auto& token : cli.positional()) message += " " + echo(token);
  throw std::invalid_argument(message);
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    std::string item = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) items.push_back(std::move(item));
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

std::vector<std::size_t> parse_size_list(const std::string& text,
                                         const std::string& what) {
  std::vector<std::size_t> values;
  for (const std::string& item : split_list(text)) {
    const auto value = parse_u64(item);
    if (!value) {
      throw std::invalid_argument(what + " expects a comma-separated " +
                                  "integer list, got '" + text + "'");
    }
    values.push_back(static_cast<std::size_t>(*value));
  }
  return values;
}

PowerShape power_shape_from_name(const std::string& name) {
  for (const PowerShape shape : {PowerShape::kEqual, PowerShape::kUniform,
                                 PowerShape::kZipf, PowerShape::kPareto}) {
    if (power_shape_name(shape) == name) return shape;
  }
  throw std::invalid_argument("unknown power shape '" + name +
                              "' (equal, uniform, zipf, pareto)");
}

RewardShape reward_shape_from_name(const std::string& name) {
  for (const RewardShape shape :
       {RewardShape::kEqual, RewardShape::kUniform, RewardShape::kMajors}) {
    if (reward_shape_name(shape) == name) return shape;
  }
  throw std::invalid_argument("unknown reward shape '" + name +
                              "' (equal, uniform, majors)");
}

SchedulerKind scheduler_kind_from_name(const std::string& name) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    if (scheduler_kind_name(kind) == name) return kind;
  }
  std::string valid;
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    if (!valid.empty()) valid += ", ";
    valid += scheduler_kind_name(kind);
  }
  throw std::invalid_argument("unknown scheduler '" + name + "' (" + valid +
                              ")");
}

}  // namespace goc::serve
