#include "runner/runner.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "fault/faulty_store.h"
#include "obs/instrumented_store.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "runner/checkpoint.h"
#include "runner/parallel.h"
#include "runner/worker.h"
#include "util/crc32c.h"
#include "util/csv.h"

namespace hbmrd::runner {

namespace {

/// Everything the resume scan recovers before the campaign continues.
struct Recovery {
  std::unordered_map<std::string, TrialRecord> committed;
  bool journal_has_begin = false;
};

/// The runner's own deterministic counters, pre-registered at campaign
/// start with the counter structs' (obs::preregister) so every snapshot
/// carries the full catalogue. docs/OBSERVABILITY.md documents each.
constexpr const char* kDeterministicCatalog[] = {
    "campaign.trials",        "campaign.completed",
    "campaign.resumed",       "campaign.quarantined",
    "campaign.retries",       "campaign.guard_blocks",
    "campaign.aborts",        "recovery.corrupt_rows",
    "recovery.rolled_back_rows", "recovery.tail_truncations",
    "recovery.header_rebuilds",  "cache.lookups",
};

std::string hex32(std::uint32_t value) { return util::crc32c_hex(value); }

/// Does the checkpoint at config.results_path belong to this campaign?
/// Returns its manifest (nullopt = missing or corrupt: treated as missing,
/// never trusted); throws CheckpointMismatchError when the manifest
/// records a different campaign configuration.
std::optional<Manifest> verified_manifest(Store& store,
                                          const RunnerConfig& config,
                                          const Manifest& expect) {
  std::optional<Manifest> manifest;
  if (const auto text = store.read(Manifest::path_for(config.results_path))) {
    manifest = Manifest::parse(*text);
  }
  if (manifest) {
    if (manifest->header_crc != expect.header_crc) {
      throw CheckpointMismatchError(
          "checkpoint mismatch in " + config.results_path +
          ": the manifest records a different result-column set (header "
          "digest " + hex32(manifest->header_crc) + ", this campaign " +
          hex32(expect.header_crc) +
          ")\nlikely cause: --resume points at a checkpoint from a "
          "different sweep (stale --results target); move the file aside "
          "or use a fresh --results path");
    }
    if (manifest->fault_seed != expect.fault_seed) {
      throw CheckpointMismatchError(
          "checkpoint mismatch in " + config.results_path +
          ": the manifest records fault seed " +
          std::to_string(manifest->fault_seed) + ", this run uses " +
          std::to_string(expect.fault_seed) +
          "; resuming would draw an inconsistent fault sequence\nlikely "
          "cause: --fault-seed changed between runs; pass --fault-seed " +
          std::to_string(manifest->fault_seed) +
          " or use a fresh --results path");
    }
    if (manifest->trial_count != expect.trial_count ||
        manifest->trials_crc != expect.trials_crc) {
      throw CheckpointMismatchError(
          "checkpoint mismatch in " + config.results_path +
          ": the manifest records " +
          std::to_string(manifest->trial_count) + " trials (list digest " +
          hex32(manifest->trials_crc) + "), this run supplies " +
          std::to_string(expect.trial_count) + " (digest " +
          hex32(expect.trials_crc) +
          "); the trial list must be identical across resumes\nlikely "
          "cause: sweep parameters changed since the checkpoint was "
          "written; use a fresh --results path");
    }
  }
  return manifest;
}

/// Scans checkpoint + journal + manifest, decides which trials are
/// committed (trusted_state(): a CRC-valid row whose terminal journal event
/// records its status), and atomically rewrites both artifacts down to
/// exactly that trusted state. Keeping only what both artifacts vouch for
/// is what keeps the final artifacts byte-identical to an uninterrupted
/// run no matter where a crash tore them, in either direction. Throws
/// CheckpointMismatchError when the artifacts belong to a different
/// campaign configuration.
Recovery recover(Store& store, const RunnerConfig& config,
                 const std::string& header_line, std::size_t disk_width,
                 const Manifest& expect, CampaignReport& report) {
  Recovery rec;
  RecoveredCheckpoint cp;
  // Without a checkpoint nothing is committed: a pre-existing journal is
  // cut back to its begin line so the rerun cannot duplicate trial blocks.
  if (!config.results_path.empty()) {
    const auto manifest = verified_manifest(store, config, expect);
    cp = load_checkpoint(store, config.results_path, disk_width);
    if (cp.existed && cp.found_header != header_line) {
      if (manifest) {
        // The manifest vouches for this campaign's configuration, so the
        // damaged header is disk corruption: rebuild it from the config.
        report.checkpoint_header_rebuilt = true;
      } else {
        throw CheckpointMismatchError(
            "checkpoint mismatch in " + config.results_path +
            ": header does not match this campaign's columns\n  expected: " +
            header_line + "\n  found:    " + cp.found_header +
            "\nlikely cause: --resume points at a checkpoint from a "
            "different sweep (stale --results target); move the file aside "
            "or use a fresh --results path");
      }
    }
    report.checkpoint_corrupt_rows = cp.corrupt_rows;
    report.checkpoint_corrupt_keys = cp.corrupt_keys;
    report.checkpoint_tail_truncated = cp.tail_truncated;
  }

  // The journal cross-check applies only when the journal file exists —
  // absent means the campaign never journaled (a config choice, not data
  // loss).
  JournalScan js;
  if (!config.journal_path.empty()) {
    js = scan_journal(store, config.journal_path);
  }
  auto state = trusted_state(cp, js);
  report.checkpoint_rolled_back =
      state.verdicts.size() - state.committed.size();
  write_trusted_state(store, state, config.results_path, header_line,
                      config.journal_path);
  rec.committed = std::move(state.committed);
  rec.journal_has_begin = state.journal_has_begin;
  return rec;
}

}  // namespace

double CampaignReport::completion_rate() const {
  const auto attempted = completed + resumed + quarantined;
  if (attempted == 0) return 1.0;
  return static_cast<double>(completed + resumed) /
         static_cast<double>(attempted);
}

std::vector<std::string> CampaignReport::quarantined_keys() const {
  std::vector<std::string> keys;
  for (const auto& record : records) {
    if (record.status == TrialStatus::kQuarantined) keys.push_back(record.key);
  }
  return keys;
}

CampaignRunner::CampaignRunner(bender::HbmChip& chip, RunnerConfig config)
    : chip_(chip),
      config_(std::move(config)),
      faulty_(chip, fault::FaultPlan(config_.faults)) {}

CampaignReport CampaignRunner::run(const std::vector<Trial>& trials) {
  const auto width = config_.result_columns.size();
  std::vector<std::string> header = {"trial", "status"};
  header.insert(header.end(), config_.result_columns.begin(),
                config_.result_columns.end());
  for (const auto& trial : trials) validate_csv_cell(trial.key, "trial key");

  // The header as it sits on disk: the CRC trailer column is part of the
  // checkpoint format (the header row itself carries no trailer).
  auto header_cells = header;
  header_cells.emplace_back(util::CsvWriter::kCrcColumn);
  const auto header_line = util::CsvWriter::serialize(header_cells);
  const auto disk_width = header_cells.size();

  // Every byte of campaign state goes through one Store, so the whole
  // persistence path can be crash-tested through fault::FaultyStore.
  auto store = config_.store ? config_.store : util::default_store();
  if (config_.faults.store.any()) {
    store = std::make_shared<fault::FaultyStore>(store, config_.faults.seed,
                                                 config_.faults.store);
  }
  obs::MetricsRegistry* metrics = config_.metrics;
  if (metrics != nullptr) {
    // Instrument OUTSIDE the fault injector: injected failures still count
    // as attempted operations. All store I/O runs on this (sequencer)
    // thread in a jobs-independent sequence, so store.* counters are
    // deterministic.
    store = std::make_shared<obs::InstrumentedStore>(store, metrics);
    for (const char* name : kDeterministicCatalog) metrics->add(name, 0);
    obs::preregister<bender::ExecutorCounters>(*metrics);
    obs::preregister<dram::BankCounters>(*metrics);
    obs::preregister<disturb::ThresholdCacheStats>(*metrics);
    obs::preregister<bender::ProbeCounters>(*metrics);
    obs::preregister<fault::FaultyChip::Stats>(*metrics);
    metrics->add("campaign.trials",
                 static_cast<std::uint64_t>(trials.size()));
  }
  obs::SpanTimer campaign_span(config_.trace, "campaign");

  // Campaign identity: what the manifest must match for --resume.
  Manifest expect;
  expect.header_crc = util::crc32c(header_line);
  expect.fault_seed = config_.faults.seed;
  expect.trial_count = trials.size();
  {
    std::string keys;
    for (const auto& trial : trials) {
      keys += trial.key;
      keys += '\n';
    }
    expect.trials_crc = util::crc32c(keys);
  }

  CampaignReport report;
  Recovery rec;
  const bool have_csv = !config_.results_path.empty();
  if (config_.resume) {
    obs::SpanTimer recover_span(config_.trace, "campaign/recover");
    rec = recover(*store, config_, header_line, disk_width, expect, report);
  }
  const auto& committed = rec.committed;
  if (metrics != nullptr) {
    metrics->add("recovery.corrupt_rows", report.checkpoint_corrupt_rows);
    metrics->add("recovery.rolled_back_rows", report.checkpoint_rolled_back);
    metrics->add("recovery.tail_truncations",
                 report.checkpoint_tail_truncated ? 1 : 0);
    metrics->add("recovery.header_rebuilds",
                 report.checkpoint_header_rebuilt ? 1 : 0);
  }

  if (have_csv) {
    // Rewritten even on resume: a missing or damaged manifest is restored.
    store->atomic_replace(Manifest::path_for(config_.results_path),
                          expect.serialize());
  }

  std::unique_ptr<util::CsvWriter> csv;
  if (have_csv) {
    util::CsvWriter::Options options;
    options.mode = config_.resume ? util::CsvWriter::Mode::kAppend
                                  : util::CsvWriter::Mode::kTruncate;
    options.row_crc = true;
    options.store = store;
    csv = std::make_unique<util::CsvWriter>(config_.results_path, header,
                                            options);
  }

  Journal journal(config_.journal_path, config_.resume, store);
  const auto& faults = config_.faults;
  if (!rec.journal_has_begin) {
    // Written at most once per campaign artifact: resumes keep the
    // original begin line, so a finished journal is a pure function of
    // (trials, plan, config) — independent of how often it crashed.
    journal.event("campaign-begin")
        .field("trials", static_cast<std::uint64_t>(trials.size()))
        .field("committed", static_cast<std::uint64_t>(committed.size()))
        .field("seed", faults.seed)
        .field("transient_rate", faults.transient_rate, 4)
        .field("thermal_rate", faults.thermal_rate, 4)
        .field("persistent_rate", faults.persistent_rate, 4)
        .field("fatal_rate", faults.fatal_rate, 4)
        .field("setpoint_c", chip_.profile().setpoint_c(), 1)
        .field("band_c", chip_.profile().guard_band_c(), 2);
  }
  // Surface recovery findings before the campaign continues; these are
  // campaign-level lines ("key", not "trial") and a later resume drops
  // them along with the other superseded control events.
  for (const auto& key : report.checkpoint_corrupt_keys) {
    journal.event("checkpoint-quarantine")
        .field("key", key)
        .field("reason", "crc-mismatch");
  }
  journal.flush();

  // Campaign incarnation: how many rows were already committed when this
  // run started. Keys the fatal-fault draw so a crash does not deadlock
  // the resumed campaign on the same trial (transient/persistent/thermal
  // draws stay incarnation-independent, keeping results bit-identical).
  const auto incarnation = static_cast<std::uint64_t>(committed.size());
  faulty_.set_incarnation(incarnation);

  // -- Shard mode: restrict the sequencer to the worker's global index
  // range. Everything else — fault-plan keys, journal bytes, CSV rows — is
  // computed exactly as the unsharded campaign computes it, which is what
  // makes the supervisor's merge byte-identical by construction.
  const bool shard_mode = config_.shard.enabled;
  const auto range_begin =
      shard_mode ? std::min<std::size_t>(config_.shard.lo, trials.size())
                 : std::size_t{0};
  const auto range_end =
      shard_mode ? std::min<std::size_t>(config_.shard.hi, trials.size())
                 : trials.size();
  HeartbeatEmitter heartbeat(shard_mode ? config_.shard.heartbeat_fd : -1);
  heartbeat.hello();
  // Injected worker-process faults fire only in shard mode and only while
  // the shard's restart count is below the repeat gate — the restarted
  // incarnation recovers, exactly like the fatal-fault incarnation key.
  const auto& worker_faults = config_.faults.worker;
  const bool worker_faults_armed =
      shard_mode && worker_faults.any() &&
      config_.shard.incarnation < worker_faults.repeat_incarnations;
  // A muted heartbeat emulates a wedged reporting path: the worker keeps
  // committing but the supervisor goes blind and must watchdog-kill it, so
  // instead of exiting cleanly the worker wedges at its exit point.
  bool heartbeat_muted = false;
  const auto wedge_forever = [] {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  };

  // -- Canonical-order list of trials the checkpoint does not satisfy,
  // truncated to the stop-after budget: exactly the trials this run will
  // execute, in the order the sequencer commits them.
  std::vector<std::size_t> pending;
  pending.reserve(range_end - range_begin);
  for (std::size_t i = range_begin; i < range_end; ++i) {
    if (committed.find(trials[i].key) == committed.end()) pending.push_back(i);
  }
  if (config_.stop_after_trials != 0 &&
      pending.size() > config_.stop_after_trials) {
    pending.resize(static_cast<std::size_t>(config_.stop_after_trials));
  }

  // -- Worker pool: each worker owns a private chip session and executes
  // whole trials; the reorder window keeps at most max(16, 2*jobs) finished
  // trials buffered ahead of the sequencer. All store I/O stays on this
  // thread, so the write/fsync operation sequence — and with it every
  // injected storage fault — is identical for any --jobs value.
  const auto jobs =
      static_cast<std::size_t>(config_.jobs < 1 ? 1 : config_.jobs);
  const std::size_t window = std::max<std::size_t>(16, 2 * jobs);
  const bool journal_enabled = journal.enabled();
  OrderedShardPool<TrialOutcome> pool(pending.size(), jobs, window);

  std::mutex stats_mu;
  fault::FaultyChip::Stats worker_stats;
  pool.start([&](OrderedShardPool<TrialOutcome>& p) {
    TrialWorker worker(chip_.profile(), config_, incarnation,
                       journal_enabled);
    std::size_t k = 0;
    while (p.claim(k)) {
      TrialOutcome out;
      try {
        out = worker.run(trials[pending[k]],
                         static_cast<std::uint64_t>(pending[k]));
      } catch (...) {
        out.error = std::current_exception();
      }
      p.submit(k, std::move(out));
    }
    std::lock_guard lock(stats_mu);
    worker_stats.merge(worker.stats());
  });

  // Winds the pool down (normal completion or early abort) and folds the
  // worker sessions' fault statistics into the facade session, where
  // callers read them (campaign.session().stats()). After a fatal abort the
  // totals can include faults from in-flight trials whose outcomes were
  // discarded — same information a crashed physical campaign leaves behind.
  const auto finish = [&] {
    pool.abort();
    pool.join();
    std::lock_guard lock(stats_mu);
    faulty_.absorb_stats(worker_stats);
    worker_stats = {};
  };

  // Durable mode: batched fsync at trial-commit boundaries, journal first —
  // a CSV row that survives power loss implies its journal block does too.
  std::uint64_t commits_since_sync = 0;
  const auto make_durable = [&] {
    if (config_.fsync_every_trials == 0) return;
    journal.durable();
    if (csv) csv->durable();
    commits_since_sync = 0;
  };

  std::uint64_t processed = 0;
  std::size_t next_shard = 0;
  std::vector<std::string> row;
  row.reserve(2 + width);

  obs::ProgressReporter* progress = config_.progress;
  if (progress != nullptr) {
    progress->set_total(static_cast<std::uint64_t>(trials.size()));
  }
  const auto report_progress = [&] {
    if (progress == nullptr) return;
    progress->update(report.completed + report.resumed + report.quarantined,
                     report.device_counters.bitflips_materialized,
                     report.retries);
  };
  // Folds one committed (or fatally aborted) trial's deltas into the
  // registry. Runs on the sequencer thread in canonical trial order, which
  // is what makes every kDeterministic counter byte-equal across --jobs N:
  // each delta is a pure function of (profile, trial index, fault plan,
  // incarnation), and the accumulation order is the canonical one.
  const auto meter_trial = [&](const TrialOutcome& out) {
    if (config_.trace != nullptr) {
      config_.trace->record("campaign/trial", out.wall_s);
    }
    if (metrics == nullptr) return;
    metrics->add("campaign.retries", out.retries);
    metrics->add("campaign.guard_blocks", out.guard_blocks);
    obs::add_counters(*metrics, out.exec);
    obs::add_counters(*metrics, out.device);
    metrics->add("cache.lookups", out.cache.lookups());
    obs::add_counters(*metrics, out.cache);
    obs::add_counters(*metrics, out.probes);
    obs::add_counters(*metrics, out.fault_delta);
    metrics->observe("trial.wall_s", out.wall_s);
  };
  // Run-level gauges (telemetry): simulated totals plus the wall clock.
  const auto finish_observability = [&] {
    campaign_span.stop();
    if (metrics != nullptr) {
      metrics->set_gauge("campaign.sim_seconds", report.campaign_seconds);
      metrics->set_gauge("campaign.guard_wait_s", report.guard_wait_s);
      metrics->set_gauge("campaign.backoff_wait_s", report.backoff_wait_s);
      if (config_.trace != nullptr) {
        metrics->set_gauge("campaign.wall_s",
                           config_.trace->span("campaign").total_s);
      }
    }
    if (progress != nullptr) progress->finish();
  };

  // -- Sequencer: walk the campaign in canonical order, committing each
  // trial's journal block and CSV row exactly as the serial loop did.
  for (std::size_t i = range_begin; i < range_end; ++i) {
    // The global 1-based trial number the worker-fault schedule keys on.
    const auto trial_no = static_cast<std::uint64_t>(i) + 1;
    if (worker_faults_armed &&
        worker_faults.drop_heartbeats_after != 0 &&
        trial_no > worker_faults.drop_heartbeats_after) {
      heartbeat_muted = true;
    }
    const auto& trial = trials[i];
    const auto it = committed.find(trial.key);
    // An injected hang wedges the worker as it reaches the trial, even
    // with a stop pending: only the supervisor's watchdog ends it.
    if (worker_faults_armed && worker_faults.hang_at_trial == trial_no &&
        it == committed.end()) {
      wedge_forever();
    }
    if (graceful_stop_requested()) {
      // Operator SIGTERM/SIGINT (or a supervisor reclaiming the shard):
      // stop at this commit boundary with the artifacts flushed — the
      // resume then reproduces the uninterrupted bytes, no repair needed.
      report.aborted = true;
      report.abort_reason = "signal";
      journal.event("campaign-stop")
          .field("reason", report.abort_reason)
          .field("processed", processed);
      break;
    }
    if (it != committed.end()) {
      TrialRecord record;
      record.key = trial.key;
      record.status = it->second.status;
      record.cells = it->second.cells;
      ++report.resumed;
      if (metrics != nullptr) metrics->add("campaign.resumed", 1);
      report_progress();
      report.records.push_back(std::move(record));
      // Re-beat resumed trials: the supervisor's progress count per
      // incarnation is then simply "committed rows in range".
      if (!heartbeat_muted) heartbeat.progress(static_cast<std::uint64_t>(i));
      continue;
    }
    if (next_shard >= pending.size()) {
      // The stop-after budget truncated `pending` exactly here.
      report.aborted = true;
      report.abort_reason = "stop-after-trials";
      journal.event("campaign-stop")
          .field("reason", report.abort_reason)
          .field("processed", processed);
      break;
    }
    ++processed;

    TrialOutcome out = pool.take(next_shard++);
    if (out.error) {
      journal.flush();
      if (csv) csv->flush();
      finish();
      std::rethrow_exception(out.error);
    }
    journal.append(out.journal);
    report.retries += out.retries;
    report.guard_blocks += out.guard_blocks;
    report.guard_wait_s += out.guard_wait_s;
    report.backoff_wait_s += out.backoff_wait_s;
    report.campaign_seconds += out.trial_s;
    util::fold_counters(report.device_counters, out.device);
    meter_trial(out);

    if (out.fatal) {
      report.aborted = true;
      report.abort_reason = out.fatal_kind;
      journal.event("campaign-abort")
          .field("trial", trial.key)
          .field("reason", out.fatal_kind)
          .field("trial_s", out.trial_s, 1);
      journal.flush();
      if (csv) csv->flush();
      make_durable();
      finish();
      if (metrics != nullptr) metrics->add("campaign.aborts", 1);
      finish_observability();
      return report;
    }

    // -- Commit: the trial's journal block lands strictly before its CSV
    // row (write-ahead discipline; recovery's cross-check depends on it).
    if (out.record.status == TrialStatus::kQuarantined) {
      ++report.quarantined;
      if (metrics != nullptr) metrics->add("campaign.quarantined", 1);
    } else {
      ++report.completed;
      if (metrics != nullptr) metrics->add("campaign.completed", 1);
    }
    {
      obs::SpanTimer commit_span(config_.trace, "campaign/commit");
      journal.flush();
      if (worker_faults_armed && worker_faults.crash_at_trial == trial_no) {
        // The nastiest crash point the write-ahead discipline allows: the
        // trial's journal block is in the OS buffer, its CSV row is not.
        // Recovery's intersection drops the orphan block and reruns the
        // trial, byte-identically. SIGKILL: no unwind, no flush.
        std::raise(SIGKILL);
      }
      if (csv) {
        row.clear();
        row.emplace_back(out.record.key);
        row.emplace_back(to_string(out.record.status));
        row.insert(row.end(), out.record.cells.begin(),
                   out.record.cells.end());
        row.resize(2 + width);  // quarantined rows: empty payload cells
        csv->row(row);
        csv->flush();
      }
      if (++commits_since_sync >= config_.fsync_every_trials &&
          config_.fsync_every_trials != 0) {
        make_durable();
      }
    }
    if (!heartbeat_muted) heartbeat.progress(static_cast<std::uint64_t>(i));
    report_progress();
    report.records.push_back(std::move(out.record));
  }

  finish();
  // The end event carries only campaign-state totals, never run-local
  // telemetry (retries, waits, this run's fault counts): those depend on
  // how often the campaign crashed and resumed, and the journal must be a
  // pure function of (trials, plan, config). Per-trial telemetry is in the
  // trial blocks; run-local summaries go to the CampaignReport.
  std::uint64_t ok_total = 0, quarantined_total = 0;
  for (const auto& record : report.records) {
    if (record.status == TrialStatus::kQuarantined) {
      ++quarantined_total;
    } else {
      ++ok_total;
    }
  }
  journal.event("campaign-end")
      .field("trials", static_cast<std::uint64_t>(trials.size()))
      .field("completed", ok_total)
      .field("quarantined", quarantined_total);
  journal.flush();
  make_durable();
  if (metrics != nullptr && report.aborted) metrics->add("campaign.aborts", 1);
  finish_observability();
  // A worker whose heartbeat path wedged never reports completion either —
  // the watchdog must reap it; its committed rows survive for the handoff.
  if (heartbeat_muted) wedge_forever();
  if (!report.aborted) heartbeat.done();
  return report;
}

}  // namespace hbmrd::runner
