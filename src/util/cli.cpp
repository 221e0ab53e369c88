#include "util/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "util/parse.h"

namespace hbmrd::util {

namespace {

/// "--rows N": the flag with its value placeholder.
std::string synopsis(const Flag& flag) {
  constexpr const char* kPlaceholder[] = {"", " N", " X", " ARG"};  // by FlagKind
  return flag.name + kPlaceholder[static_cast<int>(flag.kind)];
}

}  // namespace

Cli::Cli(const std::vector<std::string>& args, std::vector<Flag> flags)
    : flags_(std::move(flags)) {
  flags_.insert(flags_.begin(),
                {"--help", FlagKind::kBool, "print this help and exit"});
  for (std::size_t i = 1; i < args.size(); ++i) {
    const auto& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      throw CliError("unexpected argument '" + arg + "'");
    }
    const auto eq = arg.find('=');
    const auto name = arg.substr(0, eq);
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) throw CliError("unknown flag " + name);
    std::string value;
    if (flag->kind == FlagKind::kBool) {
      if (eq != std::string::npos) throw CliError(name + " takes no value");
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      value = args[++i];
    }
    if (flag->kind != FlagKind::kBool && value.empty()) {
      throw CliError(name + " needs a value");
    }
    if (flag->kind == FlagKind::kInt && !parse_i64(value)) {
      throw CliError(name + " expects an integer, got '" + value + "'");
    }
    if (flag->kind == FlagKind::kDouble && !parse_double(value)) {
      throw CliError(name + " expects a number, got '" + value + "'");
    }
    values_[name] = std::move(value);
  }
}

Cli Cli::parse_or_exit(int argc, const char* const* argv,
                       std::vector<Flag> flags, const std::string& about) {
  try {
    Cli cli(std::vector<std::string>(argv, argv + argc), std::move(flags));
    if (!cli.has("--help")) return cli;
    std::cout << about << "\n\n";
    cli.print_flags(std::cout);
    std::exit(0);
  } catch (const CliError& error) {
    std::cerr << "error: " << error.what() << "\n";
    std::exit(2);
  }
}

bool Cli::has(const std::string& name) const { return values_.contains(name); }

// The values were checked against the flag's kind when parsed; value()
// throws only when a program reads a flag as a kind it did not declare.
std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_i64(it->second).value();
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_double(it->second).value();
}

std::string Cli::get_string(const std::string& name,
                            std::string fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second;
}

void Cli::print_flags(std::ostream& out) const {
  std::size_t width = 0;
  for (const auto& flag : flags_) {
    width = std::max(width, synopsis(flag).size());
  }
  out << "flags:\n";
  for (const auto& flag : flags_) {
    const auto text = synopsis(flag);
    out << "  " << text << std::string(width + 2 - text.size(), ' ')
        << flag.help << "\n";
  }
}

}  // namespace hbmrd::util
