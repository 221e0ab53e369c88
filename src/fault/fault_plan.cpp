#include "fault/fault_plan.h"

#include "util/rng.h"

namespace hbmrd::fault {

namespace {

// Salts keep the independent draws of one (trial, attempt) uncorrelated.
constexpr std::uint64_t kSaltPersistent = 0xfa17'0001;
constexpr std::uint64_t kSaltFatal = 0xfa17'0002;
constexpr std::uint64_t kSaltThermal = 0xfa17'0003;
constexpr std::uint64_t kSaltThermalSign = 0xfa17'0004;
constexpr std::uint64_t kSaltTransient = 0xfa17'0005;
constexpr std::uint64_t kSaltKind = 0xfa17'0006;

/// Magnitude of injected thermal excursions (sign drawn per trial).
constexpr double kExcursionDeltaC = 6.0;

constexpr FaultKind kTransientKinds[] = {
    FaultKind::kReadoutBitCorrupt, FaultKind::kReadoutWordCorrupt,
    FaultKind::kReadoutTruncation, FaultKind::kCommandTimeout,
    FaultKind::kSessionReset};

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kReadoutBitCorrupt: return "readout-bit-corrupt";
    case FaultKind::kReadoutWordCorrupt: return "readout-word-corrupt";
    case FaultKind::kReadoutTruncation: return "readout-truncation";
    case FaultKind::kCommandTimeout: return "command-timeout";
    case FaultKind::kSessionReset: return "session-reset";
    case FaultKind::kStuckReadout: return "stuck-readout";
    case FaultKind::kHostCrash: return "host-crash";
  }
  return "unknown";
}

const char* to_string(FaultClass cls) {
  switch (cls) {
    case FaultClass::kTransient: return "transient";
    case FaultClass::kPersistent: return "persistent";
    case FaultClass::kFatal: return "fatal";
  }
  return "unknown";
}

FaultClass fault_class(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckReadout:
      return FaultClass::kPersistent;
    case FaultKind::kHostCrash:
      return FaultClass::kFatal;
    default:
      return FaultClass::kTransient;
  }
}

FaultPlan::AttemptSchedule FaultPlan::attempt(
    std::uint64_t trial, int attempt, std::uint64_t incarnation) const {
  AttemptSchedule schedule;
  if (config_.fault_free()) return schedule;
  const auto seed = config_.seed;

  // Per-trial draws: persistent and fatal faults stick to the trial (they
  // fire on every attempt / on the first attempt), thermal excursions hit
  // once when the trial starts.
  if (util::uniform(seed, trial, kSaltPersistent) < config_.persistent_rate) {
    schedule.kind = FaultKind::kStuckReadout;
    return schedule;
  }
  if (attempt == 1 &&
      util::uniform(seed, trial, incarnation, kSaltFatal) <
          config_.fatal_rate) {
    schedule.kind = FaultKind::kHostCrash;
    return schedule;
  }
  if (attempt == 1 &&
      util::uniform(seed, trial, kSaltThermal) < config_.thermal_rate) {
    const bool hot = util::uniform(seed, trial, kSaltThermalSign) < 0.5;
    schedule.excursion_c = hot ? kExcursionDeltaC : -kExcursionDeltaC;
  }

  // Per-attempt draw: transient faults are independent across retries.
  if (util::uniform(seed, trial, static_cast<std::uint64_t>(attempt),
                    kSaltTransient) < config_.transient_rate) {
    const auto pick = util::hash_key(seed, trial,
                                     static_cast<std::uint64_t>(attempt),
                                     kSaltKind) %
                      std::size(kTransientKinds);
    schedule.kind = kTransientKinds[pick];
  }
  return schedule;
}

}  // namespace hbmrd::fault
