// Storage layer: CRC32C, the Store abstraction, fault injection, and the
// record-level integrity helpers the crash-consistency protocol rests on.
//
// These are the unit-level guarantees: CRC32C matches the published test
// vector (so trailers are cross-checkable by standard tools), PosixStore's
// primitives do what their durability contract says, FaultyStore tears and
// crashes deterministically from its seed, and every record format
// (checkpoint row, journal line, manifest) round-trips and rejects
// corruption. The end-to-end crash/resume properties build on these in
// crash_consistency_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fault/faulty_store.h"
#include "runner/checkpoint.h"
#include "runner/journal.h"
#include "scratch.h"
#include "util/crc32c.h"
#include "util/csv.h"
#include "util/store.h"

namespace hbmrd {
namespace {

struct TempFile {
  explicit TempFile(const std::string& name) : path(scratch_path(name)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---------------------------------------------------------------- crc32c

TEST(Crc32c, MatchesPublishedTestVector) {
  // The canonical CRC32C check value (RFC 3720 / "123456789").
  EXPECT_EQ(util::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(util::crc32c(""), 0u);
}

TEST(Crc32c, ChainsIncrementally) {
  const auto whole = util::crc32c("hello world");
  const auto chained = util::crc32c(" world", util::crc32c("hello"));
  EXPECT_EQ(whole, chained);
}

TEST(Crc32c, HexRoundTripsAndRejectsMalformedInput) {
  const std::uint32_t crc = util::crc32c("payload");
  const auto hex = util::crc32c_hex(crc);
  EXPECT_EQ(hex.size(), 8u);
  std::uint32_t parsed = 0;
  ASSERT_TRUE(util::parse_crc32c_hex(hex, &parsed));
  EXPECT_EQ(parsed, crc);

  std::uint32_t out = 0;
  EXPECT_FALSE(util::parse_crc32c_hex("1234567", &out));    // short
  EXPECT_FALSE(util::parse_crc32c_hex("123456789", &out));  // long
  EXPECT_FALSE(util::parse_crc32c_hex("1234567G", &out));   // non-hex
  EXPECT_FALSE(util::parse_crc32c_hex("1234567F", &out));   // upper-case
}

// ------------------------------------------------------------ PosixStore

TEST(PosixStore, AppendReadTruncateRemoveRoundTrip) {
  TempFile temp("posix_roundtrip");
  util::PosixStore store;
  EXPECT_FALSE(store.read(temp.path).has_value());
  {
    auto file = store.open(temp.path, true);
    file->append("alpha\n");
    file->append("beta\n");
    file->sync();
  }
  EXPECT_EQ(store.read(temp.path).value(), "alpha\nbeta\n");

  // Re-open without truncation appends.
  store.open(temp.path, false)->append("gamma\n");
  EXPECT_EQ(store.read(temp.path).value(), "alpha\nbeta\ngamma\n");

  store.truncate(temp.path, 6);
  EXPECT_EQ(store.read(temp.path).value(), "alpha\n");

  EXPECT_TRUE(store.remove(temp.path));
  EXPECT_FALSE(store.remove(temp.path));
  EXPECT_FALSE(store.read(temp.path).has_value());
}

TEST(PosixStore, AtomicReplaceSwapsWholeContent) {
  TempFile temp("posix_replace");
  util::PosixStore store;
  store.atomic_replace(temp.path, "first version\n");
  EXPECT_EQ(store.read(temp.path).value(), "first version\n");
  store.atomic_replace(temp.path, "second\n");
  EXPECT_EQ(store.read(temp.path).value(), "second\n");
  // No temp-file droppings left behind.
  EXPECT_FALSE(store.read(temp.path + ".tmp").has_value());
}

TEST(PosixStore, OpenFailureIsDiagnosed) {
  util::PosixStore store;
  try {
    store.open("/nonexistent-dir/x", true);
    FAIL() << "expected StoreError";
  } catch (const util::StoreError& error) {
    EXPECT_EQ(error.op(), "open");
    EXPECT_NE(std::string(error.what()).find("/nonexistent-dir/x"),
              std::string::npos);
  }
}

// ------------------------------------------------------------ FaultyStore

fault::StoreFaultConfig crash_at_write(std::uint64_t n) {
  fault::StoreFaultConfig config;
  config.crash_at_write = n;
  return config;
}

TEST(FaultyStore, FaultFreePassThroughCountsOperations) {
  TempFile temp("faulty_clean");
  fault::FaultyStore store(util::default_store(), 1, {});
  auto file = store.open(temp.path, true);
  file->append("row\n");
  file->sync();
  store.atomic_replace(temp.path, "replaced\n");
  EXPECT_EQ(store.read(temp.path).value(), "replaced\n");
  EXPECT_EQ(store.stats().writes, 2u);  // append + replace
  EXPECT_EQ(store.stats().fsyncs, 2u);
  EXPECT_EQ(store.stats().replaces, 1u);
  EXPECT_EQ(store.stats().crashed, 0u);
}

TEST(FaultyStore, CrashRollsBackOnlyUnsyncedBytes) {
  TempFile temp("faulty_rollback");
  fault::FaultyStore store(util::default_store(), 7, crash_at_write(3));
  auto file = store.open(temp.path, true);
  file->append("durable-part\n");
  file->sync();  // fsynced: survives the power cut below
  file->append("at-risk\n");
  EXPECT_THROW(file->append("in-flight\n"), fault::StoreCrashError);
  EXPECT_TRUE(store.dead());
  EXPECT_EQ(store.stats().crashed, 1u);

  // The fsynced prefix survives intact; the un-synced tail tears at a
  // seeded byte offset somewhere in [0, tail length].
  const auto after = util::default_store()->read(temp.path).value();
  EXPECT_EQ(after.substr(0, 13), "durable-part\n");
  EXPECT_LE(after.size(), std::string("durable-part\nat-risk\nin-flight\n")
                              .size());
}

TEST(FaultyStore, CrashRollbackIsDeterministicPerSeed) {
  auto surviving = [](std::uint64_t seed) {
    TempFile temp("faulty_det");
    fault::FaultyStore store(util::default_store(), seed, crash_at_write(2));
    auto file = store.open(temp.path, true);
    file->append("0123456789\n");
    EXPECT_THROW(file->append("abcdefghij\n"), fault::StoreCrashError);
    return util::default_store()->read(temp.path).value();
  };
  EXPECT_EQ(surviving(42), surviving(42));
}

TEST(FaultyStore, DeadStoreRefusesEveryOperation) {
  TempFile temp("faulty_dead");
  auto store = std::make_shared<fault::FaultyStore>(util::default_store(), 3,
                                                    crash_at_write(1));
  auto file = store->open(temp.path, true);
  EXPECT_THROW(file->append("x"), fault::StoreCrashError);
  EXPECT_THROW(file->append("y"), fault::StoreCrashError);
  EXPECT_THROW(file->sync(), fault::StoreCrashError);
  EXPECT_THROW((void)store->open(temp.path, false), fault::StoreCrashError);
  EXPECT_THROW((void)store->read(temp.path), fault::StoreCrashError);
  EXPECT_THROW(store->atomic_replace(temp.path, "z"),
               fault::StoreCrashError);
  EXPECT_THROW((void)store->remove(temp.path), fault::StoreCrashError);
}

TEST(FaultyStore, WriteErrorsTearAtMostAPrefix) {
  TempFile temp("faulty_errors");
  fault::StoreFaultConfig config;
  config.write_error_rate = 1.0;  // every append draws a fault
  fault::FaultyStore store(util::default_store(), 11, config);
  auto file = store.open(temp.path, true);
  const std::string payload = "one-full-record\n";
  for (int i = 0; i < 8; ++i) {
    EXPECT_THROW(file->append(payload), fault::StoreFaultError);
  }
  EXPECT_EQ(store.stats().write_errors, 8u);
  EXPECT_FALSE(store.dead());  // I/O errors are survivable, crashes are not

  // Whatever landed is a concatenation of strict prefixes — never more
  // bytes than were offered.
  const auto landed = util::default_store()->read(temp.path).value();
  EXPECT_LT(landed.size(), payload.size() * 8);
}

TEST(FaultyStore, CrashDuringAtomicReplaceKeepsOldFile) {
  TempFile temp("faulty_replace_crash");
  util::default_store()->atomic_replace(temp.path, "old content\n");
  fault::StoreFaultConfig config;
  config.crash_at_fsync = 1;  // dies fsyncing the temp file
  fault::FaultyStore store(util::default_store(), 5, config);
  EXPECT_THROW(store.atomic_replace(temp.path, "new content\n"),
               fault::StoreCrashError);
  EXPECT_EQ(util::default_store()->read(temp.path).value(), "old content\n");
}

// ------------------------------------------- CRC-trailed record formats

TEST(CsvWriterCrc, DataRowsCarryVerifiableTrailers) {
  TempFile temp("csv_crc");
  {
    util::CsvWriter csv(temp.path, {"trial", "value"},
                        util::CsvWriter::Options{
                            util::CsvWriter::Mode::kTruncate, true, nullptr});
    csv.row({"row64", "17"});
    csv.row({"row72", "0"});
  }
  const auto text = util::default_store()->read(temp.path).value();
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const auto end = text.find('\n', at);
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  // The header names the crc column but is not itself trailed (its
  // integrity is covered by the manifest digest).
  EXPECT_EQ(lines[0], "trial,value,crc");
  EXPECT_FALSE(util::verify_csv_row_crc(lines[0]));
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string_view payload;
    EXPECT_TRUE(util::verify_csv_row_crc(lines[i], &payload));
    EXPECT_EQ(payload.substr(0, 5), i == 1 ? "row64" : "row72");
    // Any single-byte flip must be detected.
    std::string bad = lines[i];
    bad[2] ^= 1;
    EXPECT_FALSE(util::verify_csv_row_crc(bad));
  }
}

TEST(JournalCrc, EventLinesVerifyAndExposeFields) {
  TempFile temp("journal_crc");
  {
    runner::Journal journal(temp.path, false);
    journal.event("trial-ok").field("trial", "row64").field("attempts", 2);
    journal.flush();
  }
  const auto text = util::default_store()->read(temp.path).value();
  ASSERT_FALSE(text.empty());
  const std::string_view line(text.data(), text.find('\n'));
  std::string_view payload;
  EXPECT_TRUE(runner::verify_journal_line(line, &payload));
  EXPECT_EQ(runner::journal_line_field(line, "event"), "trial-ok");
  EXPECT_EQ(runner::journal_line_field(line, "trial"), "row64");
  EXPECT_EQ(runner::journal_line_field(line, "missing"), "");

  std::string bad(line);
  bad[bad.find("row64")] = 'X';
  EXPECT_FALSE(runner::verify_journal_line(bad));
  EXPECT_FALSE(runner::verify_journal_line("not json at all"));
  EXPECT_FALSE(runner::verify_journal_line(""));
}

TEST(Manifest, RoundTripsAndRejectsCorruption) {
  runner::Manifest manifest;
  manifest.header_crc = util::crc32c("trial,value,crc");
  manifest.fault_seed = 0xDEADBEEFu;
  manifest.trial_count = 12;
  manifest.trials_crc = util::crc32c("a\nb");

  const auto text = manifest.serialize();
  EXPECT_EQ(text.back(), '\n');
  const auto parsed = runner::Manifest::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header_crc, manifest.header_crc);
  EXPECT_EQ(parsed->fault_seed, manifest.fault_seed);
  EXPECT_EQ(parsed->trial_count, manifest.trial_count);
  EXPECT_EQ(parsed->trials_crc, manifest.trials_crc);

  // A corrupt manifest is treated as missing, never trusted.
  std::string bad = text;
  bad[bad.size() / 2] ^= 0x20;
  EXPECT_FALSE(runner::Manifest::parse(bad).has_value());
  EXPECT_FALSE(runner::Manifest::parse("").has_value());
  EXPECT_FALSE(runner::Manifest::parse("garbage\n").has_value());

  EXPECT_EQ(runner::Manifest::path_for("results.csv"),
            "results.csv.manifest");
}

// --------------------------------------------------- checkpoint scanning

TEST(LoadCheckpoint, QuarantinesMidFileCorruptionTruncatesTornTail) {
  TempFile temp("scan_checkpoint");
  const auto row = [](const std::string& key, const std::string& value) {
    std::string line = key + "," + value;
    return line + "," + util::crc32c_hex(util::crc32c(line)) + "\n";
  };
  std::string text = "trial,value,crc\n";
  text += row("a", "1");
  std::string corrupt = row("b", "2");
  corrupt[2] ^= 1;  // mid-file bit rot
  text += corrupt;
  text += row("c", "3");
  text += row("d", "4").substr(0, 5);  // torn tail: partial final record
  util::default_store()->atomic_replace(temp.path, text);

  util::PosixStore store;
  const auto scan = runner::load_checkpoint(store, temp.path, 3);
  EXPECT_TRUE(scan.existed);
  EXPECT_EQ(scan.found_header, "trial,value,crc");
  ASSERT_EQ(scan.keys.size(), 2u);
  EXPECT_EQ(scan.keys[0], "a");
  EXPECT_EQ(scan.keys[1], "c");
  EXPECT_EQ(scan.corrupt_rows, 1u);
  ASSERT_EQ(scan.corrupt_keys.size(), 1u);
  EXPECT_TRUE(scan.tail_truncated);
}

TEST(ScanJournal, TruncatesAtFirstInvalidLine) {
  TempFile temp("scan_journal");
  {
    runner::Journal journal(temp.path, false);
    journal.event("campaign-begin").field("trials", 2);
    journal.event("trial-ok").field("trial", "a");
    journal.event("trial-ok").field("trial", "b");
    journal.flush();
  }
  // Corrupt the middle line: the journal is a sequence of blocks, so
  // everything after the first bad line is dropped.
  auto text = util::default_store()->read(temp.path).value();
  text[text.find("\"trial\":\"a\"") + 9] = 'Z';
  util::default_store()->atomic_replace(temp.path, text);

  util::PosixStore store;
  const auto scan = runner::scan_journal(store, temp.path);
  EXPECT_TRUE(scan.existed);
  ASSERT_EQ(scan.lines.size(), 1u);
  EXPECT_EQ(scan.events[0], "campaign-begin");
  EXPECT_TRUE(scan.has_begin);
  EXPECT_EQ(scan.dropped, 2u);
}

TEST(ScanJournal, EmptyFileExistsButMissingFileDoesNot) {
  TempFile temp("scan_empty");
  util::PosixStore store;
  EXPECT_FALSE(runner::scan_journal(store, temp.path).existed);
  // A power cut can roll a journal back to zero bytes; recovery must still
  // see "a journal existed" and distrust checkpoint rows without blocks.
  store.atomic_replace(temp.path, "");
  EXPECT_TRUE(runner::scan_journal(store, temp.path).existed);
}

}  // namespace
}  // namespace hbmrd
