#include "runner/merge.h"

#include <algorithm>
#include <optional>

#include "runner/checkpoint.h"
#include "runner/journal.h"
#include "runner/shard.h"
#include "util/csv.h"

namespace hbmrd::runner {

namespace {

void add(MergeReport& report, const std::string& file, std::string what) {
  report.issues.push_back({file, std::move(what)});
}

}  // namespace

MergeReport merge_shards(const MergeOptions& options) {
  MergeReport report;
  auto store = options.store ? options.store : util::default_store();

  // -- Shard index: the partition the supervisor committed to.
  const auto index_path = shard_index_path(options.results_path);
  const auto index_text = store->read(index_path);
  if (!index_text) {
    add(report, index_path, "shard index missing or unreadable");
    return report;
  }
  const auto set = ShardSet::parse(*index_text);
  if (!set) {
    add(report, index_path, "shard index corrupt (CRC or syntax)");
    return report;
  }
  if (auto why = set->tiling_error(); !why.empty()) {
    add(report, index_path, std::move(why));
    return report;
  }
  auto shards = set->shards;
  std::sort(shards.begin(), shards.end(),
            [](const ShardSpec& a, const ShardSpec& b) { return a.lo < b.lo; });
  report.shards = shards.size();

  // -- Shard manifests: every shard must carry the same campaign identity.
  std::optional<Manifest> identity;
  for (const auto& shard : shards) {
    const auto csv_path = shard_artifact_path(options.results_path, shard.id);
    const auto manifest_path = Manifest::path_for(csv_path);
    std::optional<Manifest> manifest;
    if (const auto text = store->read(manifest_path)) {
      manifest = Manifest::parse(*text);
    }
    if (!manifest) {
      add(report, manifest_path, "shard manifest missing or corrupt");
      continue;
    }
    if (!identity) {
      identity = *manifest;
      continue;
    }
    if (manifest->header_crc != identity->header_crc ||
        manifest->fault_seed != identity->fault_seed ||
        manifest->trial_count != identity->trial_count ||
        manifest->trials_crc != identity->trials_crc) {
      add(report, manifest_path,
          "shard manifest disagrees with shard " +
              std::to_string(shards.front().id) +
              " (different campaign identity)");
    }
  }
  if (!report.issues.empty()) return report;
  if (identity && identity->trial_count != set->trial_count) {
    add(report, index_path,
        "shard manifests record " + std::to_string(identity->trial_count) +
            " trials, the index records " +
            std::to_string(set->trial_count));
    return report;
  }

  // -- Shard stores: complete, clean, sharing one header and one
  // campaign-begin line, and holding only rows a resume would trust.
  std::string header_line;
  std::size_t disk_width = 0;
  std::string csv_content;
  std::string begin_line;
  std::string blocks;
  for (const auto& shard : shards) {
    const auto csv_path = shard_artifact_path(options.results_path, shard.id);
    const auto contents = store->read(csv_path);
    if (!contents || contents->empty()) {
      add(report, csv_path, "shard checkpoint missing or empty");
      continue;
    }
    const auto found_header = contents->substr(0, contents->find('\n'));
    if (header_line.empty()) {
      header_line = found_header;
      disk_width = util::split_csv_line(header_line).size();
      csv_content = header_line + "\n";
    } else if (found_header != header_line) {
      add(report, csv_path, "shard checkpoint header differs");
      continue;
    }
    const auto cp = load_checkpoint(*store, csv_path, disk_width);
    if (cp.corrupt_rows != 0 || cp.tail_truncated) {
      add(report, csv_path,
          "shard checkpoint not clean (" + std::to_string(cp.corrupt_rows) +
              " corrupt row(s)" +
              (cp.tail_truncated ? ", torn tail" : std::string()) +
              "); resume the shard worker or run fsck --repair first");
      continue;
    }
    if (cp.lines.size() != shard.size()) {
      add(report, csv_path,
          "shard incomplete: " + std::to_string(cp.lines.size()) + " of " +
              std::to_string(shard.size()) + " rows committed");
      continue;
    }

    JournalScan js;
    if (!options.journal_path.empty()) {
      const auto jsonl_path =
          shard_artifact_path(options.journal_path, shard.id);
      js = scan_journal(*store, jsonl_path);
      if (!js.existed) {
        add(report, jsonl_path, "shard journal missing");
        continue;
      }
      if (js.dropped != 0) {
        add(report, jsonl_path,
            "shard journal not clean (" + std::to_string(js.dropped) +
                " torn/corrupt line(s) at the tail)");
        continue;
      }
      if (!js.has_begin) {
        add(report, jsonl_path, "shard journal has no campaign-begin line");
        continue;
      }
      for (std::size_t i = 0; i < js.lines.size(); ++i) {
        if (js.events[i] == "campaign-begin") {
          // Identical bytes in every shard: the begin line carries the
          // campaign totals and the fault plan, never shard state.
          if (begin_line.empty()) begin_line = js.lines[i];
          if (js.lines[i] != begin_line) {
            add(report, jsonl_path,
                "campaign-begin line differs across shards");
          }
          continue;
        }
        // Keyed lines are per-trial blocks, already in canonical order
        // within the shard. Keyless control lines (shard-local stop /
        // abort / end events) are superseded by the merge, exactly as a
        // resume supersedes them.
        if (js.keys[i].empty()) continue;
        blocks += js.lines[i];
        blocks += '\n';
      }
    }
    const auto state = trusted_state(cp, js);
    if (state.committed.size() != cp.lines.size()) {
      add(report, csv_path,
          "shard checkpoint holds rows its journal does not vouch for; run "
          "fsck --repair and resume the shard worker first");
      continue;
    }

    for (const auto& line : cp.lines) {
      if (decode_checkpoint_row(line).status == TrialStatus::kQuarantined) {
        ++report.quarantined;
      } else {
        ++report.completed;
      }
      csv_content += line;
      csv_content += '\n';
      ++report.rows;
    }
  }
  if (!report.issues.empty()) return report;

  std::string journal_content;
  if (!options.journal_path.empty()) {
    journal_content = begin_line + "\n" + blocks;
    {
      auto end_event = Journal::buffered(&journal_content, "campaign-end");
      end_event.field("trials", set->trial_count)
          .field("completed", report.completed)
          .field("quarantined", report.quarantined);
    }
    report.journal_lines =
        static_cast<std::uint64_t>(std::count(journal_content.begin(),
                                              journal_content.end(), '\n'));
  }

  // -- Publish. Atomic replaces, inputs untouched: rerunnable after any
  // partial failure, producing the identical bytes. The manifest is the
  // shards' common campaign identity: the one the unsharded run writes.
  store->atomic_replace(options.results_path, csv_content);
  if (!options.journal_path.empty()) {
    store->atomic_replace(options.journal_path, journal_content);
  }
  if (identity) {
    store->atomic_replace(Manifest::path_for(options.results_path),
                          identity->serialize());
  }
  report.ok = true;
  if (options.on_merged) options.on_merged(report);
  return report;
}

}  // namespace hbmrd::runner
