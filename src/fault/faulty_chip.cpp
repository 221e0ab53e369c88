#include "fault/faulty_chip.h"

#include "util/rng.h"

namespace hbmrd::fault {

namespace {

constexpr std::uint64_t kSaltCorrupt = 0xfa17'0101;
/// Simulated time a hung session burns before the watchdog kills it.
constexpr double kWatchdogS = 30.0;

[[nodiscard]] bool needs_readout(FaultKind kind) {
  switch (kind) {
    case FaultKind::kReadoutBitCorrupt:
    case FaultKind::kReadoutWordCorrupt:
    case FaultKind::kReadoutTruncation:
    case FaultKind::kStuckReadout:
      return true;
    default:
      return false;
  }
}

}  // namespace

FaultyChip::FaultyChip(bender::HbmChip& chip, FaultPlan plan)
    : chip_(chip), plan_(plan) {}

void FaultyChip::begin_attempt(std::uint64_t trial, int attempt) {
  trial_ = trial;
  attempt_ = attempt;
  schedule_ = plan_.attempt(trial, attempt, incarnation_);
  armed_ = schedule_.kind != FaultKind::kNone;
  if (schedule_.excursion_c != 0.0) {
    chip_.rig().inject_disturbance(schedule_.excursion_c);
    ++stats_.thermal_excursions;
  }
}

void FaultyChip::inject(FaultKind kind, bender::ExecutionResult* readout) {
  armed_ = false;
  ++stats_.injected_total;
  ++stats_.by_kind[static_cast<std::size_t>(kind)];
  const auto key = [&](std::uint64_t i, std::uint64_t j) {
    return util::hash_key(plan_.config().seed, trial_,
                          static_cast<std::uint64_t>(attempt_), kSaltCorrupt,
                          i, j);
  };
  switch (kind) {
    case FaultKind::kCommandTimeout:
      // The session hangs mid-program; the host watchdog burns its budget,
      // then kills and restarts the session (the board comes back with
      // power-on DRAM contents, like a real DRAM Bender reconnect).
      chip_.idle(kWatchdogS);
      chip_.reset();
      break;
    case FaultKind::kSessionReset:
      // The board power-cycles before the program lands.
      chip_.power_cycle();
      break;
    case FaultKind::kHostCrash:
      break;
    case FaultKind::kReadoutBitCorrupt:
    case FaultKind::kStuckReadout: {
      // Flip 1..8 bits of the payload the host received; the link CRC
      // flags the transfer, so the data never reaches the study code.
      const auto n = 1 + key(0, 0) % 8;
      for (std::uint64_t i = 0; i < n; ++i) {
        auto& word = readout->readout[key(i, 1) % readout->readout.size()];
        word ^= 1ull << (key(i, 2) % 64);
      }
      break;
    }
    case FaultKind::kReadoutWordCorrupt: {
      const auto n = 1 + key(0, 0) % 4;
      for (std::uint64_t i = 0; i < n; ++i) {
        readout->readout[key(i, 1) % readout->readout.size()] = key(i, 3);
      }
      break;
    }
    case FaultKind::kReadoutTruncation:
      readout->readout.resize(key(0, 0) % readout->readout.size());
      break;
    case FaultKind::kNone:
      break;
  }
  throw FaultError(kind);
}

bender::ExecutionResult FaultyChip::run(const bender::Program& program) {
  if (armed_ && !needs_readout(schedule_.kind)) {
    // Command-path faults (hang, reset, crash) preempt the program: it
    // never executes on the device.
    inject(schedule_.kind, nullptr);
  }
  auto result = chip_.run(program);
  if (armed_ && needs_readout(schedule_.kind) && !result.readout.empty()) {
    // Readout faults hit on the way back: the device did the work, the
    // host lost the data.
    inject(schedule_.kind, &result);
  }
  return result;
}

}  // namespace hbmrd::fault
