// Checkpoint recovery and the campaign manifest.
//
// A campaign persists three artifacts: the checkpoint CSV (one CRC-trailed
// row per committed trial), the JSONL journal (CRC-trailed event lines) and
// a manifest describing the configuration that produced them. Resume has to
// answer two very different questions from those bytes:
//
//   * "which committed state survived?" — answered record-by-record from
//     the CRC trailers: a torn tail truncates at the exact record boundary,
//     a corrupt mid-file row is quarantined (skipped, reported, never
//     silently re-used) while later intact rows stay trusted;
//   * "is this even the same campaign?" — answered by the manifest: header
//     digest, fault-plan seed and trial-list hash. A mismatch is a config
//     error (stale --resume target, changed column set, different seed) and
//     raises CheckpointMismatchError with an actionable message instead of
//     poisoning the sweep with rows from another experiment. Conversely, a
//     checkpoint whose on-disk header is damaged but whose manifest matches
//     the expected config is disk corruption, and the header is rebuilt.
//
// The asymmetry between the two artifacts is deliberate: checkpoint rows
// are independent records, so recovery skips bad ones; journal lines form
// per-trial blocks, so recovery truncates at the first bad line — a block
// after a hole cannot be interpreted.
//
// Which of the surviving rows count as committed is decided in one place,
// trusted_state(): --resume, `campaign_fsck --repair` and the supervisor's
// repair of a dead worker's shard store all apply that rule and rewrite
// the artifacts with write_trusted_state(), so they cannot disagree about
// which trials rerun.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "runner/store.h"

namespace hbmrd::runner {

enum class TrialStatus {
  kOk,           // completed this run
  kOkResumed,    // found committed in the checkpoint, skipped
  kQuarantined,  // persistent fault or retries exhausted; reported
  kNotRun,       // campaign aborted before reaching this trial
};

/// The on-disk status cell: "ok" (for kOk and kOkResumed), "quarantined"
/// or "not-run".
[[nodiscard]] const char* to_string(TrialStatus status);

struct TrialRecord {
  std::string key;
  TrialStatus status = TrialStatus::kNotRun;
  int attempts = 0;
  /// Result payload (one cell per configured result column); empty when
  /// quarantined.
  std::vector<std::string> cells;
  std::string quarantine_reason;
};

/// The --resume target was produced by a different campaign configuration.
/// The message names the file, what was expected vs found, and the likely
/// cause; it is a user error, not corruption, so nothing is modified.
class CheckpointMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One line of campaign identity, stored next to the checkpoint
/// (`<results>.manifest`) and rewritten atomically on every run.
struct Manifest {
  static constexpr int kVersion = 1;

  std::uint32_t header_crc = 0;   // CRC32C of the checkpoint header line
  std::uint64_t fault_seed = 0;   // fault-plan seed the rows were drawn with
  std::uint64_t trial_count = 0;  // number of trials in the campaign list
  std::uint32_t trials_crc = 0;   // CRC32C over trial keys joined with '\n'
  std::uint64_t incarnations = 0; // how many runs have opened this campaign

  /// Single self-CRC'd line (newline-terminated).
  [[nodiscard]] std::string serialize() const;
  /// nullopt on any syntax or CRC failure — a corrupt manifest is treated
  /// as missing, never trusted.
  [[nodiscard]] static std::optional<Manifest> parse(std::string_view text);
  [[nodiscard]] static std::string path_for(const std::string& results_path);
};

/// What survived in the checkpoint CSV, record by record.
struct RecoveredCheckpoint {
  bool existed = false;         // file was present and non-empty
  std::string found_header;     // raw first line ("" when !existed)
  /// CRC-valid data lines in file order, exactly as on disk (with their
  /// CRC trailer), paired with the trial key (first cell) of each.
  std::vector<std::string> lines;
  std::vector<std::string> keys;
  /// Mid-file rows that failed their CRC (or width) check: quarantined.
  /// Keys are best-effort (first cell of the damaged line; may be empty).
  std::uint64_t corrupt_rows = 0;
  std::vector<std::string> corrupt_keys;
  /// The final line was partial or CRC-invalid — the signature of a torn
  /// tail from a kill/power cut; it is truncated, not quarantined.
  bool tail_truncated = false;
  /// The damaged bytes verbatim: every corrupt row and the torn tail, each
  /// newline-terminated (fsck keeps them in its quarantine sidecar).
  std::string damaged;
};

/// Scans the checkpoint at `path`. `expected_width` is the full on-disk
/// cell count including the CRC trailer; rows of any other width are
/// treated as corrupt even if self-consistent. Never throws on content —
/// header validation against the manifest is the caller's decision.
[[nodiscard]] RecoveredCheckpoint load_checkpoint(Store& store,
                                                  const std::string& path,
                                                  std::size_t expected_width);

/// What survived in the journal: the longest CRC-valid line prefix.
struct JournalScan {
  bool existed = false;
  /// Valid lines in file order, without trailing newlines.
  std::vector<std::string> lines;
  /// Per-line "event" type and "trial" key ("" = campaign-level event).
  std::vector<std::string> events;
  std::vector<std::string> keys;
  bool has_begin = false;     // a campaign-begin line survived
  std::uint64_t dropped = 0;  // lines discarded at the torn/corrupt tail
};

[[nodiscard]] JournalScan scan_journal(Store& store, const std::string& path);

/// Decodes one CRC-valid checkpoint row: the key, the status ("ok" reads
/// as kOkResumed, "quarantined" as kQuarantined, anything else as
/// kNotRun) and the payload cells between the status and the CRC trailer.
[[nodiscard]] TrialRecord decode_checkpoint_row(std::string_view line);

/// The verdict on one CRC-valid checkpoint row.
enum class RowTrust {
  kTrusted,
  kDuplicate,        // an earlier row already holds this trial's key
  kNoTerminalEvent,  // the journal has no trial-ok / quarantine for it
  kStatusMismatch,   // its status differs from the journal's outcome
};

/// What a checkpoint + journal pair commits, and the bytes it is rewritten
/// to. A row is trusted only when it is CRC-valid, the first row of its
/// key, and — when the journal exists — its trial's terminal journal event
/// (trial-ok / quarantine) records the row's status. The journal is the
/// write-ahead log, but a power cut rolls each file back independently, so
/// either can be ahead of the other; only rows both vouch for are kept.
/// Without a journal file (the campaign never journaled) every first row
/// is trusted.
struct TrustedState {
  /// One verdict per RecoveredCheckpoint::lines entry.
  std::vector<RowTrust> verdicts;
  /// The trusted rows, decoded, by trial key.
  std::unordered_map<std::string, TrialRecord> committed;
  /// Per trial with a terminal journal event, the status it records
  /// ("ok" / "quarantined"). Empty when there is no journal.
  std::unordered_map<std::string, std::string> terminal;
  /// The trusted rows as on disk, newline-terminated, in file order.
  std::string rows;
  /// The trusted journal: its first campaign-begin line, then the keyed
  /// lines of trusted trials. Keyless control lines (stop / abort / end,
  /// checkpoint quarantines) and the blocks of untrusted rows are dropped:
  /// the run that continues the campaign writes them afresh.
  std::string journal;
  bool has_journal = false;        // the scan found a journal file
  bool journal_has_begin = false;  // `journal` kept a campaign-begin line
};

[[nodiscard]] TrustedState trusted_state(const RecoveredCheckpoint& checkpoint,
                                         const JournalScan& journal);

/// Rewrites both artifacts down to `state`, one atomic replace each (a
/// crash mid-rewrite leaves the previous file whole): the checkpoint to
/// `header_line` plus the trusted rows (skipped when `results_path` is
/// empty), then the journal (skipped when the scan found none).
void write_trusted_state(Store& store, const TrustedState& state,
                         const std::string& results_path,
                         const std::string& header_line,
                         const std::string& journal_path);

}  // namespace hbmrd::runner
