// Parser hardening: corrupt artifact text must never terminate recovery
// via an uncaught parse exception.
//
// Two layers under test:
//
//   * util::parse — exception-free, full-token numeric parsing (the only
//     numeric path artifact readers are allowed to use);
//   * the recovery readers themselves — Manifest::parse and the
//     checkpoint/journal resume path, fuzzed cell by cell with the
//     classic corruption shapes (truncation, non-digits, overflow, empty
//     cells, flipped bytes). The only exception allowed out of a resume is
//     CheckpointMismatchError, the actionable "this checkpoint does not
//     belong to this campaign" diagnostic.
#include "util/parse.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "runner/checkpoint.h"
#include "runner/runner.h"
#include "scratch.h"
#include "util/crc32c.h"
#include "util/csv.h"
#include "util/store.h"

namespace hbmrd {
namespace {

// ---------------------------------------------------------------- util ---

TEST(ParseU64, AcceptsFullDecimalTokensOnly) {
  EXPECT_EQ(util::parse_u64("0"), 0u);
  EXPECT_EQ(util::parse_u64("18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(util::parse_u64(""), std::nullopt);
  EXPECT_EQ(util::parse_u64("12x"), std::nullopt);
  EXPECT_EQ(util::parse_u64(" 12"), std::nullopt);
  EXPECT_EQ(util::parse_u64("12 "), std::nullopt);
  EXPECT_EQ(util::parse_u64("-1"), std::nullopt);
  EXPECT_EQ(util::parse_u64("18446744073709551616"), std::nullopt);  // 2^64
  EXPECT_EQ(util::parse_u64("99999999999999999999999"), std::nullopt);
  EXPECT_EQ(util::parse_u64("0x10"), std::nullopt);  // base 10: no prefixes
}

TEST(ParseU64, BaseZeroAutoDetectsRadix) {
  EXPECT_EQ(util::parse_u64("0x1f", 0), 31u);
  EXPECT_EQ(util::parse_u64("0X1F", 0), 31u);
  EXPECT_EQ(util::parse_u64("017", 0), 15u);  // octal
  EXPECT_EQ(util::parse_u64("17", 0), 17u);
  EXPECT_EQ(util::parse_u64("0", 0), 0u);
  EXPECT_EQ(util::parse_u64("0x", 0), std::nullopt);
  EXPECT_EQ(util::parse_u64("019", 0), std::nullopt);  // 9 is not octal
}

TEST(ParseI64, HandlesSignsAndRange) {
  EXPECT_EQ(util::parse_i64("-42"), -42);
  EXPECT_EQ(util::parse_i64("+42"), 42);
  EXPECT_EQ(util::parse_i64("9223372036854775807"),
            9223372036854775807ll);
  EXPECT_EQ(util::parse_i64("9223372036854775808"), std::nullopt);
  EXPECT_EQ(util::parse_i64("--1"), std::nullopt);
  EXPECT_EQ(util::parse_i64("-0x10", 0), -16);
  EXPECT_EQ(util::parse_i64(""), std::nullopt);
  EXPECT_EQ(util::parse_i64("-"), std::nullopt);
}

TEST(ParseDouble, FullTokenFiniteFormats) {
  EXPECT_EQ(util::parse_double("1.5"), 1.5);
  EXPECT_EQ(util::parse_double("-3e-4"), -3e-4);
  EXPECT_EQ(util::parse_double("+2"), 2.0);
  EXPECT_EQ(util::parse_double(""), std::nullopt);
  EXPECT_EQ(util::parse_double("1.5x"), std::nullopt);
  EXPECT_EQ(util::parse_double("1.5 "), std::nullopt);
  EXPECT_EQ(util::parse_double("one"), std::nullopt);
}

// ------------------------------------------------------------ manifest ---

/// Rebuilds a CRC-valid manifest line from (possibly corrupted) cells, the
/// way Manifest::serialize would: the corruption the CRC trailer canNOT
/// catch is exactly what Manifest::parse has to survive by itself.
std::string manifest_line(const std::vector<std::string>& cells) {
  std::string payload;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) payload += ',';
    payload += cells[i];
  }
  return payload + ',' + util::crc32c_hex(util::crc32c(payload)) + '\n';
}

TEST(ManifestParse, SurvivesEveryCellMutation) {
  runner::Manifest reference;
  reference.header_crc = 0x12345678;
  reference.fault_seed = 42;
  reference.trial_count = 7;
  reference.trials_crc = 0x9abcdef0;
  const auto serialized = reference.serialize();
  ASSERT_TRUE(runner::Manifest::parse(serialized).has_value());

  auto cells = util::split_csv_line(serialized.substr(
      0, serialized.find('\n')));
  ASSERT_EQ(cells.size(), 7u);  // 6 payload cells + CRC trailer
  cells.pop_back();  // drop the CRC cell; manifest_line recomputes it

  const std::vector<std::string> mutations = {
      "",                                   // empty cell
      "x",                                  // non-digit
      "12x",                                // trailing garbage
      "99999999999999999999999",            // overflow
      "-1",                                 // sign where none belongs
      "1e9",                                // float where int belongs
      std::string(300, '9'),                // absurd length
  };
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    for (const auto& mutation : mutations) {
      auto fuzzed = cells;
      fuzzed[cell] = mutation;
      std::optional<runner::Manifest> parsed;
      EXPECT_NO_THROW(parsed = runner::Manifest::parse(manifest_line(fuzzed)))
          << "cell " << cell << " <- '" << mutation << "'";
      // A digit-cell mutation must read as "not a manifest", never as a
      // half-parsed one.
      EXPECT_FALSE(parsed.has_value())
          << "cell " << cell << " <- '" << mutation << "'";
    }
    // Truncating a cell (and everything after it) must also parse to
    // nullopt, not throw.
    auto truncated = std::vector<std::string>(cells.begin(),
                                              cells.begin() + cell);
    EXPECT_NO_THROW(
        EXPECT_FALSE(runner::Manifest::parse(manifest_line(truncated))));
  }
  EXPECT_NO_THROW(EXPECT_FALSE(runner::Manifest::parse("")));
  EXPECT_NO_THROW(EXPECT_FALSE(runner::Manifest::parse("garbage\n")));
}

// ------------------------------------------------- resume under fuzzing ---

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

bender::HbmChip fresh_chip() {
  return bender::HbmChip(dram::chip_profiles()[2]);
}

std::vector<runner::CampaignRunner::Trial> make_trials(int n) {
  std::vector<runner::CampaignRunner::Trial> trials;
  for (int t = 0; t < n; ++t) {
    const int row = 64 + 8 * t;
    trials.push_back(
        {"row" + std::to_string(row),
         [row](bender::ChipSession& session) -> std::vector<std::string> {
           const dram::RowAddress victim{{0, 0, 0}, row};
           session.write_row(victim, dram::RowBits::filled(0x5A));
           const auto bits = session.read_row(victim);
           return {std::to_string(bits.count_diff(
               dram::RowBits::filled(0x5A)))};
         }});
  }
  return trials;
}

/// Runs a --resume against (possibly corrupted) artifacts. The contract:
/// the ONLY exception a resume may surface is CheckpointMismatchError.
/// Returns true when the resume completed.
bool resume_survives(const std::string& csv, const std::string& journal,
                     int n_trials) {
  auto chip = fresh_chip();
  runner::RunnerConfig config;
  config.result_columns = {"flips"};
  config.results_path = csv;
  config.journal_path = journal;
  config.resume = true;
  runner::CampaignRunner campaign(chip, config);
  try {
    const auto report = campaign.run(make_trials(n_trials));
    EXPECT_EQ(report.records.size(), static_cast<std::size_t>(n_trials));
    return true;
  } catch (const runner::CheckpointMismatchError&) {
    return false;  // the actionable diagnostic: allowed
  }
  // Anything else (invalid_argument, out_of_range, ...) escapes to the
  // test harness and fails the test — which is the point.
}

struct Artifacts {
  std::string csv;
  std::string journal;
  std::string manifest;
};

Artifacts committed_campaign(const std::string& tag, int n_trials) {
  Artifacts art;
  art.csv = scratch_path(tag + ".csv");
  art.journal = scratch_path(tag + ".jsonl");
  art.manifest = runner::Manifest::path_for(art.csv);
  auto store = util::default_store();
  store->remove(art.csv);
  store->remove(art.journal);
  store->remove(art.manifest);
  auto chip = fresh_chip();
  runner::RunnerConfig config;
  config.result_columns = {"flips"};
  config.results_path = art.csv;
  config.journal_path = art.journal;
  runner::CampaignRunner campaign(chip, config);
  const auto report = campaign.run(make_trials(n_trials));
  EXPECT_FALSE(report.aborted);
  return art;
}

TEST(ResumeHardening, GarbageManifestIsActionableNeverARawThrow) {
  const std::vector<std::string> garbage = {
      "",                            // rolled back to zero bytes
      "hbmrd-manifest",              // truncated mid-header
      "hbmrd-manifest,v1,zz,NOTANUMBER,7,zz,1,deadbeef\n",  // bad digits+crc
      manifest_line({"hbmrd-manifest", "v1", "zzzzzzzz",
                     "99999999999999999999999", "x", "oops", "-3"}),
      std::string(4096, '\xff'),     // binary noise
  };
  auto store = util::default_store();
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    const auto art =
        committed_campaign("manifest_" + std::to_string(i), 4);
    store->atomic_replace(art.manifest, garbage[i]);
    // Must either resume cleanly (manifest treated as missing/foreign) or
    // fail with CheckpointMismatchError; resume_survives asserts that no
    // other exception escapes.
    (void)resume_survives(art.csv, art.journal, 4);
  }
}

TEST(ResumeHardening, CheckpointCellFuzzNeverEscapesRecovery) {
  const auto reference = committed_campaign("cells_ref", 5);
  const auto csv_bytes = slurp(reference.csv);
  ASSERT_FALSE(csv_bytes.empty());

  // Split into lines; line 0 is the header, the rest are records.
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < csv_bytes.size()) {
    const auto end = csv_bytes.find('\n', begin);
    if (end == std::string::npos) break;
    lines.push_back(csv_bytes.substr(begin, end - begin));
    begin = end + 1;
  }
  ASSERT_GE(lines.size(), 4u);

  const std::vector<std::string> mutations = {
      "", "x", "12x", "99999999999999999999999", std::string(200, 'A')};
  auto store = util::default_store();
  const auto record_cells = util::split_csv_line(lines[2]);
  int variant = 0;
  for (std::size_t cell = 0; cell + 1 < record_cells.size(); ++cell) {
    for (const auto& mutation : mutations) {
      // Rebuild record 2 with one fuzzed cell and a RECOMPUTED CRC, so the
      // corruption gets past the CRC check and into the cell parsers.
      auto cells = record_cells;
      cells.pop_back();  // old CRC
      cells[cell] = mutation;
      std::string payload;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i != 0) payload += ',';
        payload += cells[i];
      }
      payload += ',' + util::crc32c_hex(util::crc32c(payload));

      const auto art = committed_campaign(
          "cells_" + std::to_string(variant++), 5);
      auto fuzzed_lines = lines;
      fuzzed_lines[2] = payload;
      std::string fuzzed;
      for (const auto& line : fuzzed_lines) fuzzed += line + '\n';
      store->atomic_replace(art.csv, fuzzed);
      (void)resume_survives(art.csv, art.journal, 5);
    }
  }
}

TEST(ResumeHardening, TornAndBitFlippedArtifactsRecover) {
  auto store = util::default_store();
  // Torn checkpoint tail (mid-record truncation).
  {
    const auto art = committed_campaign("torn_csv", 5);
    const auto bytes = slurp(art.csv);
    store->atomic_replace(art.csv, bytes.substr(0, bytes.size() - 7));
    EXPECT_TRUE(resume_survives(art.csv, art.journal, 5));
  }
  // Bit flips sprayed through the journal.
  {
    const auto art = committed_campaign("flipped_journal", 5);
    auto bytes = slurp(art.journal);
    ASSERT_FALSE(bytes.empty());
    for (std::size_t i = 11; i < bytes.size(); i += 97) {
      bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    }
    store->atomic_replace(art.journal, bytes);
    (void)resume_survives(art.csv, art.journal, 5);
  }
  // Checkpoint replaced by binary noise.
  {
    const auto art = committed_campaign("noise_csv", 5);
    store->atomic_replace(art.csv, std::string(512, '\xee'));
    (void)resume_survives(art.csv, art.journal, 5);
  }
}

}  // namespace
}  // namespace hbmrd
