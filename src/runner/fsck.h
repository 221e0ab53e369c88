// Offline verifier/repairer for campaign artifacts (tools/campaign_fsck).
//
// Replays the record-level checks the runner's --resume path applies —
// CRC-trailed checkpoint rows, CRC-trailed journal lines, the manifest's
// config digests — and then applies the very rule resume applies to
// decide which rows are committed (trusted_state() in runner/checkpoint.h:
// a CRC-valid, first-of-its-key row whose terminal trial-ok / quarantine
// journal event records its status). Every row that rule distrusts, and
// every complete journal block without a row, is reported, so a clean
// fsck certifies that resuming cannot silently drop or duplicate a trial.
//
// With `repair`, the artifacts are rewritten (atomically) by the same code
// resume uses, write_trusted_state(): torn tails truncated at the record
// boundary, untrusted rows and their journal blocks dropped so the next
// resume reruns those trials. Fsck adds only its `<results>.quarantine`
// sidecar, which keeps every distrusted or damaged row (never deleted).
// The supervisor repairs a dead worker's shard store through this path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/store.h"

namespace hbmrd::runner {

struct FsckOptions {
  /// Checkpoint CSV (required).
  std::string results_path;
  /// JSONL journal ("" = skip journal and cross-replay checks).
  std::string journal_path;
  /// Rewrite the artifacts down to the verified state.
  bool repair = false;
  /// Storage backend; null = the shared PosixStore.
  std::shared_ptr<Store> store;
};

struct FsckIssue {
  std::string file;
  std::string what;
};

struct FsckReport {
  /// The checkpoint is unreadable or not a campaign artifact at all;
  /// nothing else was checked (and repair refuses to touch it).
  bool fatal = false;
  std::vector<FsckIssue> issues;
  std::uint64_t checkpoint_rows = 0;  // CRC-valid rows found
  std::uint64_t journal_lines = 0;    // CRC-valid journal lines found
  std::uint64_t trusted_rows = 0;     // rows a resume would actually keep
  bool repaired = false;              // repair ran and rewrote artifacts

  [[nodiscard]] bool clean() const { return !fatal && issues.empty(); }
};

[[nodiscard]] FsckReport campaign_fsck(const FsckOptions& options);

}  // namespace hbmrd::runner
