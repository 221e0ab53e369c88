#include "runner/checkpoint.h"

#include <unordered_set>

#include "runner/journal.h"
#include "util/crc32c.h"
#include "util/csv.h"
#include "util/parse.h"

namespace hbmrd::runner {

namespace {

/// Splits `text` into complete (newline-terminated) lines; a trailing
/// piece without its newline is returned via `partial_tail` ("" if none).
std::vector<std::string_view> complete_lines(std::string_view text,
                                             std::string_view* partial_tail) {
  std::vector<std::string_view> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const auto end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      *partial_tail = text.substr(begin);
      return lines;
    }
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  *partial_tail = {};
  return lines;
}

void append_line(std::string& out, std::string_view line) {
  out += line;
  out += '\n';
}

/// The manifest's format-version cell, "v<kVersion>".
std::string version_cell() {
  std::string cell = "v";
  cell += std::to_string(Manifest::kVersion);
  return cell;
}

}  // namespace

const char* to_string(TrialStatus status) {
  switch (status) {
    case TrialStatus::kOk: return "ok";
    case TrialStatus::kOkResumed: return "ok";  // same on-disk status
    case TrialStatus::kQuarantined: return "quarantined";
    case TrialStatus::kNotRun: return "not-run";
  }
  return "unknown";
}

std::string Manifest::serialize() const {
  std::string line = "hbmrd-manifest,";
  line += version_cell();
  line += ',' + util::crc32c_hex(header_crc);
  line += ',' + std::to_string(fault_seed);
  line += ',' + std::to_string(trial_count);
  line += ',' + util::crc32c_hex(trials_crc);
  line += ',' + std::to_string(incarnations);
  line += ',' + util::crc32c_hex(util::crc32c(line));
  line += '\n';
  return line;
}

std::optional<Manifest> Manifest::parse(std::string_view text) {
  const auto newline = text.find('\n');
  if (newline != std::string_view::npos) text = text.substr(0, newline);
  std::string_view payload;
  if (!util::verify_csv_row_crc(text, &payload)) return std::nullopt;
  const auto cells = util::split_csv_line(payload);
  if (cells.size() != 7 || cells[0] != "hbmrd-manifest" ||
      cells[1] != version_cell()) {
    return std::nullopt;
  }
  // Exception-free cell parsing: a corrupt digit cell must resolve to "not
  // a manifest" (treated as missing), never to a throw out of recovery.
  Manifest m;
  if (!util::parse_crc32c_hex(cells[2], &m.header_crc)) return std::nullopt;
  const auto fault_seed = util::parse_u64(cells[3]);
  const auto trial_count = util::parse_u64(cells[4]);
  if (!fault_seed || !trial_count) return std::nullopt;
  m.fault_seed = *fault_seed;
  m.trial_count = *trial_count;
  if (!util::parse_crc32c_hex(cells[5], &m.trials_crc)) return std::nullopt;
  const auto incarnations = util::parse_u64(cells[6]);
  if (!incarnations) return std::nullopt;
  m.incarnations = *incarnations;
  return m;
}

std::string Manifest::path_for(const std::string& results_path) {
  return results_path + ".manifest";
}

RecoveredCheckpoint load_checkpoint(Store& store, const std::string& path,
                                    std::size_t expected_width) {
  RecoveredCheckpoint out;
  const auto contents = store.read(path);
  if (!contents || contents->empty()) return out;
  out.existed = true;

  std::string_view partial_tail;
  const auto lines = complete_lines(*contents, &partial_tail);
  out.tail_truncated = !partial_tail.empty();
  if (lines.empty()) return out;
  out.found_header = std::string(lines.front());

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = lines[i];
    std::string_view payload;
    bool valid = util::verify_csv_row_crc(line, &payload);
    std::vector<std::string> cells;
    if (valid) {
      cells = util::split_csv_line(line);
      valid = cells.size() == expected_width;
    }
    if (valid) {
      out.lines.emplace_back(line);
      out.keys.push_back(cells.front());
      continue;
    }
    append_line(out.damaged, line);
    if (i + 1 == lines.size()) {
      // A damaged final record is the signature of a torn append, not of
      // mid-file corruption: truncate instead of quarantining.
      out.tail_truncated = true;
    } else {
      ++out.corrupt_rows;
      const auto damaged = util::split_csv_line(line);
      out.corrupt_keys.push_back(damaged.empty() ? std::string()
                                                 : damaged.front());
    }
  }
  if (!partial_tail.empty()) append_line(out.damaged, partial_tail);
  return out;
}

JournalScan scan_journal(Store& store, const std::string& path) {
  JournalScan out;
  const auto contents = store.read(path);
  if (!contents) return out;
  // An empty-but-present journal still "exists": a power loss can roll the
  // file back to zero bytes, and recovery must then distrust checkpoint
  // rows rather than treat the journal as never-configured.
  out.existed = true;
  if (contents->empty()) return out;

  std::string_view partial_tail;
  const auto lines = complete_lines(*contents, &partial_tail);
  if (!partial_tail.empty()) ++out.dropped;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!verify_journal_line(lines[i])) {
      // Journal lines form per-trial blocks: nothing after the first bad
      // line can be trusted to sit on a block boundary.
      out.dropped += lines.size() - i;
      break;
    }
    out.lines.emplace_back(lines[i]);
    out.events.emplace_back(journal_line_field(lines[i], "event"));
    out.keys.emplace_back(journal_line_field(lines[i], "trial"));
    if (out.events.back() == "campaign-begin") out.has_begin = true;
  }
  return out;
}

TrialRecord decode_checkpoint_row(std::string_view line) {
  const auto cells = util::split_csv_line(line);
  TrialRecord record;
  if (cells.empty()) return record;
  record.key = cells.front();
  if (cells.size() < 3) return record;
  if (cells[1] == to_string(TrialStatus::kOk)) {
    record.status = TrialStatus::kOkResumed;
  } else if (cells[1] == to_string(TrialStatus::kQuarantined)) {
    record.status = TrialStatus::kQuarantined;
  }
  record.cells.assign(cells.begin() + 2, cells.end() - 1);
  return record;
}

TrustedState trusted_state(const RecoveredCheckpoint& checkpoint,
                           const JournalScan& journal) {
  TrustedState state;
  state.has_journal = journal.existed;
  for (std::size_t i = 0; i < journal.lines.size(); ++i) {
    if (journal.events[i] == "trial-ok") {
      state.terminal[journal.keys[i]] = to_string(TrialStatus::kOk);
    } else if (journal.events[i] == "quarantine") {
      state.terminal[journal.keys[i]] = to_string(TrialStatus::kQuarantined);
    }
  }

  std::unordered_set<std::string> seen;
  state.verdicts.reserve(checkpoint.lines.size());
  for (const auto& line : checkpoint.lines) {
    auto record = decode_checkpoint_row(line);
    auto verdict = RowTrust::kTrusted;
    if (!seen.insert(record.key).second) {
      verdict = RowTrust::kDuplicate;
    } else if (state.has_journal) {
      const auto it = state.terminal.find(record.key);
      if (it == state.terminal.end()) {
        verdict = RowTrust::kNoTerminalEvent;
      } else if (it->second != to_string(record.status)) {
        verdict = RowTrust::kStatusMismatch;
      }
    }
    state.verdicts.push_back(verdict);
    if (verdict != RowTrust::kTrusted) continue;
    append_line(state.rows, line);
    auto key = record.key;
    state.committed.emplace(std::move(key), std::move(record));
  }

  for (std::size_t i = 0; i < journal.lines.size(); ++i) {
    if (journal.events[i] == "campaign-begin") {
      if (state.journal_has_begin) continue;  // keep the first only
      state.journal_has_begin = true;
    } else if (journal.keys[i].empty() ||
               state.committed.find(journal.keys[i]) ==
                   state.committed.end()) {
      continue;  // keyless control line, or an untrusted trial's block
    }
    append_line(state.journal, journal.lines[i]);
  }
  return state;
}

void write_trusted_state(Store& store, const TrustedState& state,
                         const std::string& results_path,
                         const std::string& header_line,
                         const std::string& journal_path) {
  if (!results_path.empty()) {
    std::string csv = header_line;
    csv += '\n';
    csv += state.rows;
    store.atomic_replace(results_path, csv);
  }
  if (state.has_journal) store.atomic_replace(journal_path, state.journal);
}

}  // namespace hbmrd::runner
