// campaign_fsck: verify (and optionally repair) campaign artifacts, and
// merge sharded campaign stores into the canonical artifacts.
//
//   campaign_fsck --results sweep.csv [--journal sweep.jsonl] [--repair]
//                 [--metrics-out metrics.json]
//   campaign_fsck --merge-shards --results sweep.csv [--journal sweep.jsonl]
//
// Exit status (scriptable, see --help): 0 = verified clean / merge ok,
// 1 = issues found and repaired (artifacts now clean), 2 = unrepairable
// (issues without --repair, repair left the artifacts dirty, not a
// campaign checkpoint, merge refused, or a usage error). See
// src/runner/fsck.h and src/runner/merge.h for the checks;
// docs/RESILIENCE.md for the recovery model and docs/OBSERVABILITY.md for
// the metrics snapshot.
#include <cstdio>
#include <exception>

#include "obs/metrics.h"
#include "runner/fsck.h"
#include "runner/merge.h"
#include "util/cli.h"
#include "util/store.h"

namespace {

constexpr const char* kHelp =
    "usage: campaign_fsck --results <csv> [--journal <jsonl>] [--repair]\n"
    "                     [--metrics-out <json>]\n"
    "       campaign_fsck --merge-shards --results <csv> [--journal <jsonl>]\n"
    "\n"
    "Verifies a campaign checkpoint the way --resume would: CRC-trailed\n"
    "rows, CRC-trailed journal lines, manifest digests, and the\n"
    "cross-replay between checkpoint and journal. With --repair, rewrites\n"
    "the artifacts down to the verified state (untrusted rows move to\n"
    "<csv>.quarantine; nothing is deleted), then re-verifies.\n"
    "\n"
    "With --merge-shards, folds a sharded campaign's per-shard stores\n"
    "(<csv>.shard<id>, indexed by <csv>.shards) into the canonical CSV +\n"
    "journal, byte-identical to the unsharded run. The merge refuses\n"
    "unless every shard is complete and clean; it never modifies the\n"
    "shard stores, so a failed or killed merge can simply be rerun.\n"
    "\n"
    "exit status:\n"
    "  0  artifacts verified clean (or merge succeeded)\n"
    "  1  issues found and repaired; the artifacts are now clean\n"
    "  2  unrepairable: issues without --repair, repair left the\n"
    "     artifacts dirty, not a campaign checkpoint, merge refused,\n"
    "     or a usage error";

int run_merge(const hbmrd::runner::FsckOptions& options) {
  hbmrd::runner::MergeOptions merge;
  merge.results_path = options.results_path;
  merge.journal_path = options.journal_path;
  hbmrd::runner::MergeReport report;
  try {
    report = hbmrd::runner::merge_shards(merge);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "campaign_fsck: %s\n", error.what());
    return 2;
  }
  for (const auto& issue : report.issues) {
    std::fprintf(stderr, "%s: %s\n", issue.file.c_str(), issue.what.c_str());
  }
  std::printf("%s: merged %llu shard(s), %llu row(s) (%llu ok, %llu "
              "quarantined), %llu journal line(s)%s\n",
              options.results_path.c_str(),
              static_cast<unsigned long long>(report.shards),
              static_cast<unsigned long long>(report.rows),
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.quarantined),
              static_cast<unsigned long long>(report.journal_lines),
              report.ok ? "" : " [refused]");
  return report.ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using hbmrd::util::FlagKind;
  const auto cli = hbmrd::util::Cli::parse_or_exit(
      argc, argv,
      {{"--results", FlagKind::kString, "campaign results CSV (required)"},
       {"--journal", FlagKind::kString, "the campaign's JSONL journal"},
       {"--repair", FlagKind::kBool,
        "rewrite the artifacts down to the verified state"},
       {"--merge-shards", FlagKind::kBool,
        "merge the shard stores into the canonical artifacts"},
       {"--metrics-out", FlagKind::kString,
        "write the fsck.* counters as a JSON snapshot"}},
      kHelp);
  if (!cli.has("--results")) {
    std::fputs("error: --results is required (see --help)\n", stderr);
    return 2;
  }
  hbmrd::runner::FsckOptions options;
  options.results_path = cli.get_string("--results", "");
  options.journal_path = cli.get_string("--journal", "");
  options.repair = cli.has("--repair");
  const auto metrics_out = cli.get_string("--metrics-out", "");

  if (cli.has("--merge-shards")) return run_merge(options);

  hbmrd::runner::FsckReport report;
  try {
    report = hbmrd::runner::campaign_fsck(options);
    if (report.repaired) {
      // Re-verify so the exit code certifies the post-repair state: 1
      // only if the artifacts are now actually clean.
      auto verify = options;
      verify.repair = false;
      const auto recheck = hbmrd::runner::campaign_fsck(verify);
      report.fatal = recheck.fatal;
      report.issues.insert(report.issues.end(), recheck.issues.begin(),
                           recheck.issues.end());
      report.trusted_rows = recheck.trusted_rows;
      if (!recheck.clean()) report.repaired = false;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "campaign_fsck: %s\n", error.what());
    return 2;
  }

  for (const auto& issue : report.issues) {
    std::fprintf(stderr, "%s: %s\n", issue.file.c_str(), issue.what.c_str());
  }
  std::printf(
      "%s: %llu checkpoint row(s), %llu journal line(s), %llu trusted, "
      "%zu issue(s)%s\n",
      options.results_path.c_str(),
      static_cast<unsigned long long>(report.checkpoint_rows),
      static_cast<unsigned long long>(report.journal_lines),
      static_cast<unsigned long long>(report.trusted_rows),
      report.issues.size(), report.repaired ? " [repaired]" : "");

  if (!metrics_out.empty()) {
    hbmrd::obs::MetricsRegistry metrics;
    metrics.add("fsck.checkpoint_rows", report.checkpoint_rows);
    metrics.add("fsck.journal_lines", report.journal_lines);
    metrics.add("fsck.trusted_rows", report.trusted_rows);
    metrics.add("fsck.issues", report.issues.size());
    metrics.add("fsck.fatal", report.fatal ? 1 : 0);
    metrics.add("fsck.repaired", report.repaired ? 1 : 0);
    try {
      metrics.write_snapshot(*hbmrd::util::default_store(), metrics_out,
                             nullptr);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "campaign_fsck: cannot write %s: %s\n",
                   metrics_out.c_str(), error.what());
      return 2;
    }
  }

  if (report.fatal) return 2;
  if (report.clean()) return 0;
  return report.repaired ? 1 : 2;
}
