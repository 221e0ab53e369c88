// Deterministic merge of per-shard campaign artifacts.
//
// A sharded campaign leaves one store per shard (`<results>.shard<id>` +
// optional `<journal>.shard<id>`, each with its own manifest) plus the
// shard index (`<results>.shards`). merge_shards() folds them into the
// canonical results CSV + journal, byte-identical to what the unsharded
// `--jobs N` run writes:
//
//   * CSV — the shared header line, then every shard's CRC-valid rows
//     concatenated in ascending shard order. Shards are contiguous global
//     index ranges and each worker commits in canonical order, so the
//     concatenation IS the canonical row order;
//   * journal — the campaign-begin line (identical bytes in every shard:
//     it carries campaign totals, not shard state), then each shard's
//     keyed per-trial blocks in order, then a campaign-end line
//     synthesized through the same Journal serializer with totals
//     recomputed from the merged rows. Keyless control lines in shard
//     journals (shard-local stop/end events) are dropped, exactly as a
//     resume drops superseded control lines;
//   * manifest — the shards' common identity digests, which is exactly
//     what the unsharded run writes (a manifest records no run history).
//
// The merge refuses (reports issues, writes nothing) unless every shard is
// complete and clean: shards tiling [0, trial_count) (ShardSet::
// tiling_error), no torn tails, agreeing manifests, and every row one a
// resume would trust (trusted_state() in runner/checkpoint.h). All writes
// are atomic replaces and the inputs are never modified, so the merge is
// idempotent — killed mid-merge (the power-cut-during-merge case), a rerun
// produces the identical bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runner/store.h"

namespace hbmrd::runner {

struct MergeReport;

struct MergeOptions {
  /// Canonical results CSV to produce; the shard index and shard stores
  /// are found next to it.
  std::string results_path;
  /// Canonical journal to produce ("" = the campaign never journaled).
  std::string journal_path;
  /// Storage backend; null = the shared PosixStore.
  std::shared_ptr<Store> store;
  /// Post-merge hook, invoked once after the canonical artifacts were
  /// written and verified (report.ok) — the seam downstream consumers use
  /// to derive artifacts from the merged CSV without re-reading shards
  /// (e.g. serve::export_campaign_index builds a .hbmidx query index; see
  /// docs/SERVING.md). Exceptions propagate to the merge caller.
  std::function<void(const MergeReport&)> on_merged;
};

struct MergeIssue {
  std::string file;
  std::string what;
};

struct MergeReport {
  /// Everything verified and the canonical artifacts were written.
  bool ok = false;
  std::vector<MergeIssue> issues;
  std::uint64_t shards = 0;
  std::uint64_t rows = 0;           // merged CSV data rows
  std::uint64_t journal_lines = 0;  // merged journal lines
  std::uint64_t completed = 0;      // rows with status ok
  std::uint64_t quarantined = 0;    // rows with status quarantined
};

[[nodiscard]] MergeReport merge_shards(const MergeOptions& options);

}  // namespace hbmrd::runner
