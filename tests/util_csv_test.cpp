#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "runner/worker.h"
#include "scratch.h"

namespace hbmrd::util {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct TempCsv {
  std::string path = scratch_path("csv_test.csv");
  ~TempCsv() { std::remove(path.c_str()); }
};

TEST(CsvWriter, WritesHeaderAndRows) {
  TempCsv temp;
  {
    CsvWriter csv(temp.path, {"a", "b"});
    csv.add().cell(1).cell(2.5);
    csv.add().cell("x").cell("y");
  }
  EXPECT_EQ(slurp(temp.path), "a,b\n1,2.5\nx,y\n");
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  TempCsv temp;
  {
    CsvWriter csv(temp.path, {"c"});
    csv.add().cell("has,comma");
    csv.add().cell("has\"quote");
  }
  EXPECT_EQ(slurp(temp.path), "c\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(CsvWriter, ValidatesShape) {
  TempCsv temp;
  CsvWriter csv(temp.path, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

TEST(SplitCsvLine, SplitsPlainAndEmptyCells) {
  EXPECT_EQ(split_csv_line("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv_line("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split_csv_line(","), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(split_csv_line("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_TRUE(split_csv_line("").empty());
}

TEST(SplitCsvLine, UnquotesEmbeddedCommasAndQuotes) {
  EXPECT_EQ(split_csv_line("\"has,comma\",plain"),
            (std::vector<std::string>{"has,comma", "plain"}));
  EXPECT_EQ(split_csv_line("\"has\"\"quote\""),
            (std::vector<std::string>{"has\"quote"}));
  EXPECT_EQ(split_csv_line("\"a,\"\"b\"\",c\",d"),
            (std::vector<std::string>{"a,\"b\",c", "d"}));
}

TEST(SplitCsvLine, RoundTripsWriterEscaping) {
  for (const std::string cell :
       {"plain", "with,comma", "with\"quote", "\"leading", "a,\"b\",c"}) {
    const auto cells = split_csv_line(CsvWriter::serialize({cell, "x"}));
    ASSERT_EQ(cells.size(), 2u) << cell;
    EXPECT_EQ(cells[0], cell);
  }
}

TEST(SplitCsvLine, ToleratesCrlfLineEndings) {
  EXPECT_EQ(split_csv_line("a,b\r"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_csv_line("\r"), std::vector<std::string>{});
  // A CR that is not a line terminator is data, not formatting.
  EXPECT_EQ(split_csv_line("a\rb,c"),
            (std::vector<std::string>{"a\rb", "c"}));
}

TEST(ValidateCsvCell, RejectsCellsThatWouldBreakKeyLookup) {
  // Trial keys and result cells are matched by string comparison on
  // resume, so the runner refuses cells whose escaped form would differ
  // from their raw form.
  EXPECT_NO_THROW(runner::validate_csv_cell("row64", "trial key"));
  EXPECT_NO_THROW(runner::validate_csv_cell("", "result cell"));
  EXPECT_NO_THROW(runner::validate_csv_cell("a b:c-d_e", "result cell"));
  for (const std::string bad : {"has,comma", "has\"quote", "has\nnewline"}) {
    try {
      runner::validate_csv_cell(bad, "trial key");
      FAIL() << "accepted: " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("trial key"),
                std::string::npos);
    }
  }
}

TEST(VerifyCsvRowCrc, AcceptsTrailedRowsRejectsEverythingElse) {
  TempCsv temp;
  {
    CsvWriter csv(temp.path, {"k", "v"},
                  CsvWriter::Options{CsvWriter::Mode::kTruncate, true,
                                     nullptr});
    csv.row({"key,with,commas", "17"});
  }
  const auto text = slurp(temp.path);
  const auto header_end = text.find('\n');
  const auto line = text.substr(header_end + 1,
                                text.find('\n', header_end + 1) -
                                    header_end - 1);
  std::string_view payload;
  ASSERT_TRUE(verify_csv_row_crc(line, &payload));
  EXPECT_EQ(payload, "\"key,with,commas\",17");
  // CRLF tolerated, same payload.
  EXPECT_TRUE(verify_csv_row_crc(line + "\r"));

  EXPECT_FALSE(verify_csv_row_crc(""));
  EXPECT_FALSE(verify_csv_row_crc("no-comma"));
  EXPECT_FALSE(verify_csv_row_crc("payload,notahexcrc"));
  std::string flipped = line;
  flipped[0] ^= 1;
  EXPECT_FALSE(verify_csv_row_crc(flipped));
}

}  // namespace
}  // namespace hbmrd::util
