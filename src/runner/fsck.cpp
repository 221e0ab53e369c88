#include "runner/fsck.h"

#include <optional>
#include <unordered_set>

#include "runner/checkpoint.h"
#include "runner/journal.h"
#include "util/crc32c.h"
#include "util/csv.h"

namespace hbmrd::runner {

namespace {

void add(FsckReport& report, const std::string& file, std::string what) {
  report.issues.push_back({file, std::move(what)});
}

}  // namespace

FsckReport campaign_fsck(const FsckOptions& options) {
  FsckReport report;
  auto store = options.store ? options.store : util::default_store();
  const auto& csv_path = options.results_path;

  // -- Checkpoint: structure first.
  const auto contents = store->read(csv_path);
  if (!contents) {
    report.fatal = true;
    add(report, csv_path, "checkpoint missing or unreadable");
    return report;
  }
  const std::string found_header = contents->substr(0, contents->find('\n'));
  const auto header_cells = util::split_csv_line(found_header);
  const bool header_shape =
      header_cells.size() >= 3 && header_cells.front() == "trial" &&
      header_cells[1] == "status" &&
      header_cells.back() == util::CsvWriter::kCrcColumn;
  if (!header_shape) {
    report.fatal = true;
    add(report, csv_path,
        "first line is not a campaign checkpoint header "
        "(expected trial,status,...,crc): " +
            found_header);
    return report;
  }

  const auto cp = load_checkpoint(*store, csv_path, header_cells.size());
  report.checkpoint_rows = cp.lines.size();
  if (cp.tail_truncated) {
    add(report, csv_path, "torn trailing record (truncated write)");
  }
  for (const auto& key : cp.corrupt_keys) {
    add(report, csv_path,
        "mid-file row failed its CRC check" +
            (key.empty() ? std::string() : " (key '" + key + "')"));
  }

  // -- Manifest.
  const auto manifest_path = Manifest::path_for(csv_path);
  std::optional<Manifest> manifest;
  if (const auto text = store->read(manifest_path)) {
    manifest = Manifest::parse(*text);
    if (!manifest) {
      add(report, manifest_path, "manifest present but corrupt");
    } else if (manifest->header_crc != util::crc32c(found_header)) {
      add(report, manifest_path,
          "manifest header digest " + util::crc32c_hex(manifest->header_crc) +
              " does not match the checkpoint header (" +
              util::crc32c_hex(util::crc32c(found_header)) + ")");
    }
  } else {
    add(report, manifest_path, "manifest missing (resume cannot verify "
                               "campaign identity)");
  }

  // -- Journal.
  JournalScan js;
  if (!options.journal_path.empty()) {
    js = scan_journal(*store, options.journal_path);
    report.journal_lines = js.lines.size();
    if (!js.existed) {
      add(report, options.journal_path, "journal missing");
    }
    if (js.dropped != 0) {
      add(report, options.journal_path,
          std::to_string(js.dropped) +
              " journal line(s) failed their CRC check (torn tail)");
    }
    if (!js.has_begin && !js.lines.empty()) {
      add(report, options.journal_path, "no campaign-begin line survived");
    }
  }

  // -- Cross-replay: the rule a resume applies, with one issue per row it
  // would not trust and per journal block without a row.
  const auto state = trusted_state(cp, js);
  report.trusted_rows = state.committed.size();
  std::string distrusted;  // verbatim, for the quarantine sidecar
  for (std::size_t i = 0; i < cp.lines.size(); ++i) {
    const auto& key = cp.keys[i];
    switch (state.verdicts[i]) {
      case RowTrust::kTrusted:
        continue;
      case RowTrust::kDuplicate:
        add(report, csv_path, "duplicate row for trial '" + key + "'");
        break;
      case RowTrust::kNoTerminalEvent:
        add(report, csv_path,
            "row '" + key + "' has no terminal journal event (the row "
            "outran the journal; a resume would rerun it)");
        break;
      case RowTrust::kStatusMismatch:
        add(report, csv_path,
            "row '" + key + "' contradicts the journal, which records '" +
                state.terminal.at(key) + "'");
        break;
    }
    distrusted += cp.lines[i];
    distrusted += '\n';
  }
  const std::unordered_set<std::string> row_keys(cp.keys.begin(),
                                                 cp.keys.end());
  for (const auto& [key, status] : state.terminal) {
    if (row_keys.count(key) == 0) {
      add(report, options.journal_path,
          "journal block for '" + key + "' has no committed checkpoint row");
    }
  }

  // -- Repair: rewrite down to what a resume would trust, keeping every
  // distrusted and damaged byte in the quarantine sidecar.
  if (options.repair && !report.clean()) {
    if (!distrusted.empty() || !cp.damaged.empty()) {
      store->atomic_replace(csv_path + ".quarantine", distrusted + cp.damaged);
    }
    write_trusted_state(*store, state, csv_path, found_header,
                        options.journal_path);
    report.repaired = true;
  }
  return report;
}

}  // namespace hbmrd::runner
