#include "runner/worker.h"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/trace.h"
#include "runner/journal.h"
#include "runner/retry_policy.h"

namespace hbmrd::runner {

namespace {

/// Pseudo-fault label for a guard band that never recovered in time.
constexpr const char* kGuardTimeout = "guard-band-timeout";
/// Idle step between guard polls (simulated seconds).
constexpr double kGuardPollS = 2.0;
/// Give up waiting for the band after this long; the attempt counts as
/// faulted.
constexpr double kGuardMaxWaitS = 900.0;
/// Transient faults retry up to 5 attempts per trial, backing off from
/// 0.5 s up to 60 s.
constexpr RetryPolicy kRetry{5, 0.5, 60.0};

}  // namespace

void validate_csv_cell(const std::string& cell, const char* what) {
  if (cell.find_first_of(",\"\n") != std::string::npos) {
    throw std::invalid_argument(
        std::string("CampaignRunner: ") + what +
        " must not contain commas, quotes, or newlines: " + cell);
  }
}

TrialWorker::TrialWorker(const dram::ChipProfile& profile,
                         const RunnerConfig& config,
                         std::uint64_t incarnation, bool journal_enabled)
    : config_(config),
      chip_(profile),
      rig0_(chip_.rig()),
      faulty_(chip_, fault::FaultPlan(config.faults)),
      journal_enabled_(journal_enabled) {
  faulty_.set_incarnation(incarnation);
}

bool TrialWorker::wait_for_guard_band(TrialOutcome& out, std::string* sink,
                                      const std::string& key, int attempt) {
  if (!config_.guard_band) return true;
  double waited = 0.0;
  while (true) {
    // Read the physical rig sensor, not the (possibly pinned) device view.
    const double measured = chip_.rig().temperature_c();
    if (std::abs(measured - chip_.profile().setpoint_c()) <=
        chip_.profile().guard_band_c()) {
      if (waited > 0.0) {
        ++out.guard_blocks;
        out.guard_wait_s += waited;
        Journal::buffered(sink, "guard-wait")
            .field("trial", key)
            .field("attempt", attempt)
            .field("waited_s", waited, 1)
            .field("measured_c", measured, 2);
      }
      return true;
    }
    if (waited >= kGuardMaxWaitS) {
      Journal::buffered(sink, "guard-timeout")
          .field("trial", key)
          .field("attempt", attempt)
          .field("waited_s", waited, 1)
          .field("measured_c", measured, 2);
      out.guard_wait_s += waited;
      ++out.guard_blocks;
      return false;
    }
    chip_.idle(kGuardPollS);
    waited += kGuardPollS;
  }
}

TrialOutcome TrialWorker::run(const CampaignRunner::Trial& trial,
                              std::uint64_t index) {
  TrialOutcome out;
  out.record.key = trial.key;
  std::string* sink = journal_enabled_ ? &out.journal : nullptr;
  const double wall_t0 = obs::monotonic_seconds();
  const auto cache0 = chip_.threshold_cache_stats();
  const auto faults0 = faulty_.stats();
  const auto probes0 = faulty_.probe_counters();
  // Everything this helper fills is a per-trial delta; both return paths
  // below must go through it.
  const auto finalize = [&] {
    out.trial_s = chip_.rig().time_s() - trial_t0_;
    out.device = chip_.stack().total_counters();
    out.exec = chip_.executor_counters();
    out.cache = util::counter_delta(chip_.threshold_cache_stats(), cache0);
    out.fault_delta = util::counter_delta(faulty_.stats(), faults0);
    out.probes = util::counter_delta(faulty_.probe_counters(), probes0);
    out.wall_s = obs::monotonic_seconds() - wall_t0;
  };

  // Canonical session state: same rig snapshot, same power-on stack for
  // every trial, so the outcome cannot depend on execution order.
  chip_.restore_canonical(rig0_);
  trial_t0_ = chip_.rig().time_s();
  const auto width = config_.result_columns.size();

  for (int attempt = 1; attempt <= kRetry.max_attempts; ++attempt) {
    out.record.attempts = attempt;
    faulty_.begin_attempt(index, attempt);
    std::string fault_kind;
    fault::FaultClass fault_cls = fault::FaultClass::kTransient;

    if (!wait_for_guard_band(out, sink, trial.key, attempt)) {
      fault_kind = kGuardTimeout;
    } else {
      chip_.pin_temperature(chip_.profile().setpoint_c());
      try {
        auto cells = trial.body(faulty_);
        chip_.pin_temperature(std::nullopt);
        if (cells.size() != width) {
          throw std::logic_error(
              "CampaignRunner: trial '" + trial.key + "' returned " +
              std::to_string(cells.size()) + " cells, expected " +
              std::to_string(width));
        }
        for (const auto& cell : cells) validate_csv_cell(cell, "result cell");
        out.record.status = TrialStatus::kOk;
        out.record.cells = std::move(cells);
      } catch (const fault::FaultError& error) {
        chip_.pin_temperature(std::nullopt);
        fault_kind = fault::to_string(error.kind());
        fault_cls = error.fault_class();
        Journal::buffered(sink, "fault")
            .field("trial", trial.key)
            .field("attempt", attempt)
            .field("kind", fault_kind)
            .field("class", fault::to_string(fault_cls));
      } catch (...) {
        // Not a fault: a trial-body or validation bug. Hand it to the
        // sequencer, which rethrows at this trial's commit point.
        out.error = std::current_exception();
        finalize();
        return out;
      }
    }

    if (out.record.status == TrialStatus::kOk) {
      Journal::buffered(sink, "trial-ok")
          .field("trial", trial.key)
          .field("attempts", attempt)
          .field("trial_s", chip_.rig().time_s() - trial_t0_, 1);
      break;
    }
    if (fault_cls == fault::FaultClass::kFatal) {
      out.fatal = true;
      out.fatal_kind = fault_kind;
      break;
    }
    if (fault_cls == fault::FaultClass::kPersistent ||
        attempt == kRetry.max_attempts) {
      out.record.status = TrialStatus::kQuarantined;
      out.record.quarantine_reason = fault_kind;
      break;
    }
    const double delay = kRetry.backoff_s(config_.faults.seed, index, attempt);
    ++out.retries;
    out.backoff_wait_s += delay;
    Journal::buffered(sink, "retry")
        .field("trial", trial.key)
        .field("attempt", attempt)
        .field("backoff_s", delay, 3);
    chip_.idle(delay);
  }

  if (!out.fatal && out.record.status == TrialStatus::kQuarantined) {
    Journal::buffered(sink, "quarantine")
        .field("trial", trial.key)
        .field("attempts", out.record.attempts)
        .field("reason", out.record.quarantine_reason);
  }
  finalize();
  return out;
}

}  // namespace hbmrd::runner
