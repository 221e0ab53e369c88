#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/cli.h"
#include "util/table.h"

namespace hbmrd::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.row().cell("alpha").cell(42);
  table.row().cell("b").cell(3.5, 1);
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name  |"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("3.5"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RejectsMismatchedRows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

std::vector<Flag> test_flags() {
  return {{"--rows", FlagKind::kInt, "rows"},
          {"--full", FlagKind::kBool, "paper scale"},
          {"--name", FlagKind::kString, "a name"},
          {"--d", FlagKind::kDouble, "a number"}};
}

/// The CliError message the command line `args` (after the program name)
/// is rejected with; empty when it parses.
std::string rejection(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  try {
    const Cli cli(args, test_flags());
  } catch (const CliError& error) {
    return error.what();
  }
  return "";
}

TEST(Cli, ParsesFlagForms) {
  const Cli cli({"prog", "--rows", "128", "--full", "--name=x", "--d",
                 "-2.5"},
                test_flags());
  EXPECT_EQ(cli.get_int("--rows", 0), 128);
  EXPECT_TRUE(cli.has("--full"));
  EXPECT_EQ(cli.get_string("--name", ""), "x");
  EXPECT_DOUBLE_EQ(cli.get_double("--d", 0.0), -2.5);
}

TEST(Cli, DefaultsAndErrors) {
  const Cli cli({"prog", "--d", "2.5"}, test_flags());
  EXPECT_FALSE(cli.has("--rows"));
  EXPECT_EQ(cli.get_int("--rows", 7), 7);
  EXPECT_EQ(cli.get_string("--name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cli.get_double("--d", 0.0), 2.5);
  // Reading a flag as a kind it was not declared with is a bug in the
  // program, not in its command line.
  EXPECT_THROW((void)cli.get_int("--d", 0), std::bad_optional_access);
}

TEST(Cli, RejectsUndeclaredFlag) {
  EXPECT_EQ(rejection({"--bogus-flag", "3"}), "unknown flag --bogus-flag");
  EXPECT_EQ(rejection({"--bogus=3"}), "unknown flag --bogus");
  EXPECT_EQ(rejection({"stray"}), "unexpected argument 'stray'");
}

TEST(Cli, RejectsMissingValue) {
  EXPECT_EQ(rejection({"--rows", "--full"}), "--rows needs a value");
  EXPECT_EQ(rejection({"--rows"}), "--rows needs a value");
  EXPECT_EQ(rejection({"--full=1"}), "--full takes no value");
}

TEST(Cli, RejectsEmptyEqualsValue) {
  EXPECT_EQ(rejection({"--rows="}), "--rows needs a value");
  EXPECT_EQ(rejection({"--name="}), "--name needs a value");
}

TEST(Cli, RejectsValueOfTheWrongKind) {
  EXPECT_EQ(rejection({"--rows", "abc"}),
            "--rows expects an integer, got 'abc'");
  EXPECT_EQ(rejection({"--rows=12x"}), "--rows expects an integer, got '12x'");
  EXPECT_EQ(rejection({"--d", "x"}), "--d expects a number, got 'x'");
  EXPECT_EQ(rejection({"--rows", "-3", "--d", "1e-3"}), "");
}

TEST(Cli, HelpListsTheDeclaredTable) {
  const Cli cli({"prog", "--help"}, test_flags());
  EXPECT_TRUE(cli.has("--help"));
  std::ostringstream out;
  cli.print_flags(out);
  EXPECT_EQ(out.str(),
            "flags:\n"
            "  --help      print this help and exit\n"
            "  --rows N    rows\n"
            "  --full      paper scale\n"
            "  --name ARG  a name\n"
            "  --d X       a number\n");
}

}  // namespace
}  // namespace hbmrd::util
