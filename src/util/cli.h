// The one command-line flag parser. A program declares its flags once, as
// a table of (name, kind, one-line help): the table is both what the
// parser accepts and what `--help` prints. Supports `--name value`,
// `--name=value`, and boolean `--name` flags. An undeclared flag, a value
// flag with no value (`--rows --full`, `--rows=`) and a value that does
// not parse as its kind (`--jobs abc`) are rejected at parse time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace hbmrd::util {

enum class FlagKind { kBool, kInt, kDouble, kString };

struct Flag {
  std::string name;  // "--rows"
  FlagKind kind;
  std::string help;  // one line
};

/// A command line the table rejects; what() is one line naming the flag.
struct CliError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class Cli {
 public:
  /// Parses args[1..] against `flags` plus an implicit `--help`; throws
  /// CliError.
  Cli(const std::vector<std::string>& args, std::vector<Flag> flags);

  /// Parses argv, or prints "error: <what>" on stderr and exits 2. With
  /// --help, prints `about` and the table on stdout and exits 0.
  static Cli parse_or_exit(int argc, const char* const* argv,
                           std::vector<Flag> flags, const std::string& about);

  /// True if the flag was passed.
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback) const;

  /// The declared table, one flag a line, as --help prints it.
  void print_flags(std::ostream& out) const;

 private:
  std::vector<Flag> flags_;
  std::map<std::string, std::string> values_;  // name -> value ("" if none)
};

}  // namespace hbmrd::util
