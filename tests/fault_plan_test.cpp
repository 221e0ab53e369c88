// Fault-injection layer: the plan is a pure function of
// (seed, trial, attempt), the FaultyChip injects exactly what the plan
// schedules, and the HbmChip recovery entry points (power_cycle, pinning)
// behave the way the campaign runner depends on.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include "bender/platform.h"
#include "fault/faulty_chip.h"

namespace hbmrd::fault {
namespace {

FaultPlanConfig noisy_config() {
  FaultPlanConfig config;
  config.transient_rate = 0.5;
  config.thermal_rate = 0.3;
  config.persistent_rate = 0.1;
  config.fatal_rate = 0.05;
  return config;
}

TEST(FaultClassOf, MatchesTaxonomy) {
  EXPECT_EQ(fault_class(FaultKind::kReadoutBitCorrupt),
            FaultClass::kTransient);
  EXPECT_EQ(fault_class(FaultKind::kReadoutWordCorrupt),
            FaultClass::kTransient);
  EXPECT_EQ(fault_class(FaultKind::kReadoutTruncation),
            FaultClass::kTransient);
  EXPECT_EQ(fault_class(FaultKind::kCommandTimeout), FaultClass::kTransient);
  EXPECT_EQ(fault_class(FaultKind::kSessionReset), FaultClass::kTransient);
  EXPECT_EQ(fault_class(FaultKind::kStuckReadout), FaultClass::kPersistent);
  EXPECT_EQ(fault_class(FaultKind::kHostCrash), FaultClass::kFatal);
}

TEST(FaultPlan, FaultFreeByDefault) {
  const FaultPlan plan;
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const auto schedule = plan.attempt(trial, attempt);
      EXPECT_EQ(schedule.kind, FaultKind::kNone);
      EXPECT_EQ(schedule.excursion_c, 0.0);
    }
  }
}

TEST(FaultPlan, ScheduleIsAPureFunctionOfSeedTrialAttempt) {
  const FaultPlan a(noisy_config());
  const FaultPlan b(noisy_config());
  auto other = noisy_config();
  other.seed ^= 1;
  const FaultPlan c(other);

  bool any_difference_to_c = false;
  for (std::uint64_t trial = 0; trial < 256; ++trial) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const auto sa = a.attempt(trial, attempt);
      const auto sb = b.attempt(trial, attempt);
      EXPECT_EQ(sa.kind, sb.kind) << trial << ":" << attempt;
      EXPECT_EQ(sa.excursion_c, sb.excursion_c);
      const auto sc = c.attempt(trial, attempt);
      if (sc.kind != sa.kind || sc.excursion_c != sa.excursion_c) {
        any_difference_to_c = true;
      }
    }
  }
  EXPECT_TRUE(any_difference_to_c) << "seed has no effect on the schedule";
}

TEST(FaultPlan, TransientRateOneFaultsEveryAttempt) {
  FaultPlanConfig config;
  config.transient_rate = 1.0;
  const FaultPlan plan(config);
  bool saw_multiple_kinds = false;
  FaultKind first = plan.attempt(0, 1).kind;
  for (std::uint64_t trial = 0; trial < 128; ++trial) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const auto schedule = plan.attempt(trial, attempt);
      EXPECT_EQ(fault_class(schedule.kind), FaultClass::kTransient);
      if (schedule.kind != first) saw_multiple_kinds = true;
    }
  }
  EXPECT_TRUE(saw_multiple_kinds) << "transient kind draw is degenerate";
}

TEST(FaultPlan, TransientRateIsApproximatelyHonored) {
  FaultPlanConfig config;
  config.transient_rate = 0.25;
  const FaultPlan plan(config);
  int faulted = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (plan.attempt(static_cast<std::uint64_t>(i), 1).kind !=
        FaultKind::kNone) {
      ++faulted;
    }
  }
  EXPECT_GT(faulted, n / 4 - n / 10);
  EXPECT_LT(faulted, n / 4 + n / 10);
}

TEST(FaultPlan, PersistentFaultSticksAcrossAllAttemptsOfATrial) {
  FaultPlanConfig config;
  config.persistent_rate = 1.0;
  config.transient_rate = 0.5;  // persistent must win over transients
  const FaultPlan plan(config);
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    for (int attempt = 1; attempt <= 6; ++attempt) {
      EXPECT_EQ(plan.attempt(trial, attempt).kind, FaultKind::kStuckReadout);
    }
  }
}

TEST(FaultPlan, ThermalExcursionOnlyOnFirstAttempt) {
  FaultPlanConfig config;
  config.thermal_rate = 1.0;
  const FaultPlan plan(config);
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    EXPECT_EQ(std::abs(plan.attempt(trial, 1).excursion_c), 6.0);
    EXPECT_EQ(plan.attempt(trial, 2).excursion_c, 0.0);
    EXPECT_EQ(plan.attempt(trial, 3).excursion_c, 0.0);
  }
}

TEST(FaultPlan, IncarnationKeysOnlyTheFatalDraw) {
  // Non-fatal draws must be incarnation-independent (that is what keeps
  // resumed results bit-identical)...
  auto config = noisy_config();
  config.fatal_rate = 0.0;
  const FaultPlan plan(config);
  for (std::uint64_t trial = 0; trial < 128; ++trial) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const auto s0 = plan.attempt(trial, attempt, 0);
      const auto s7 = plan.attempt(trial, attempt, 7);
      EXPECT_EQ(s0.kind, s7.kind);
      EXPECT_EQ(s0.excursion_c, s7.excursion_c);
    }
  }
  // ...while the fatal draw must move with the incarnation, so a resumed
  // campaign does not crash deterministically on the same trial forever.
  FaultPlanConfig fatal_config;
  fatal_config.fatal_rate = 0.5;
  const FaultPlan fatal_plan(fatal_config);
  bool fatal_draw_moved = false;
  for (std::uint64_t trial = 0; trial < 64 && !fatal_draw_moved; ++trial) {
    const bool crash0 =
        fatal_plan.attempt(trial, 1, 0).kind == FaultKind::kHostCrash;
    const bool crash1 =
        fatal_plan.attempt(trial, 1, 1).kind == FaultKind::kHostCrash;
    fatal_draw_moved = crash0 != crash1;
  }
  EXPECT_TRUE(fatal_draw_moved);
}

TEST(FaultyChip, TransparentPassThroughWhenFaultFree) {
  const auto profile = dram::chip_profiles()[2];
  bender::HbmChip chip(profile);
  FaultyChip faulty(chip);
  const dram::RowAddress addr{{0, 0, 0}, 42};
  faulty.write_row(addr, dram::RowBits::filled(0xC3));
  EXPECT_EQ(faulty.read_row(addr), dram::RowBits::filled(0xC3));
  EXPECT_EQ(faulty.stats().injected_total, 0u);
  // Armed with a fault-free plan, still transparent.
  faulty.begin_attempt(0, 1);
  EXPECT_EQ(faulty.read_row(addr), dram::RowBits::filled(0xC3));
  EXPECT_EQ(faulty.stats().injected_total, 0u);
}

TEST(FaultyChip, InjectionIsDeterministicAcrossIdenticalSessions) {
  const auto profile = dram::chip_profiles()[2];
  FaultPlanConfig config;
  config.transient_rate = 0.6;

  const auto observe = [&](std::uint64_t trial, int attempt) -> std::string {
    bender::HbmChip chip(profile);
    FaultyChip faulty(chip, FaultPlan(config));
    const dram::RowAddress addr{{0, 0, 0}, 7};
    faulty.begin_attempt(trial, attempt);
    try {
      faulty.write_row(addr, dram::RowBits::filled(0x55));
      (void)faulty.read_row(addr);
      return "clean";
    } catch (const FaultError& error) {
      return to_string(error.kind());
    }
  };

  bool saw_clean = false, saw_fault = false;
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const auto first = observe(trial, attempt);
      EXPECT_EQ(first, observe(trial, attempt)) << trial << ":" << attempt;
      (first == "clean" ? saw_clean : saw_fault) = true;
    }
  }
  EXPECT_TRUE(saw_clean);
  EXPECT_TRUE(saw_fault);
}

TEST(FaultyChip, FaultsSurfaceAsErrorsNeverAsSilentCorruption) {
  // The corrupted readout is detected (modeled as the link CRC) and thrown;
  // a subsequent clean attempt reads the true DRAM contents.
  const auto profile = dram::chip_profiles()[2];
  bender::HbmChip chip(profile);
  FaultPlanConfig config;
  config.transient_rate = 1.0;
  FaultyChip faulty(chip, FaultPlan(config));
  const dram::RowAddress addr{{0, 0, 0}, 9};
  chip.write_row(addr, dram::RowBits::filled(0x3C));

  int faults = 0;
  for (std::uint64_t trial = 0; trial < 16; ++trial) {
    faulty.begin_attempt(trial, 1);
    try {
      (void)faulty.read_row(addr);
    } catch (const FaultError&) {
      ++faults;
    }
  }
  EXPECT_GT(faults, 0);
  EXPECT_EQ(faulty.stats().injected_total, static_cast<std::uint64_t>(faults));
  // A session reset wipes DRAM, so only re-write then read: the value must
  // round-trip exactly — no fault leaves residue in a committed readout.
  FaultyChip clean(chip);
  clean.write_row(addr, dram::RowBits::filled(0x3C));
  EXPECT_EQ(clean.read_row(addr), dram::RowBits::filled(0x3C));
}

TEST(FaultyChip, ThermalExcursionIsPushedIntoTheRig) {
  const auto profile = dram::chip_profiles()[2];
  bender::HbmChip chip(profile);
  FaultPlanConfig config;
  config.thermal_rate = 1.0;
  FaultyChip faulty(chip, FaultPlan(config));
  const double before = chip.rig().temperature_c();
  faulty.begin_attempt(0, 1);
  const double after = chip.rig().temperature_c();
  EXPECT_NEAR(std::abs(after - before), 6.0, 1.0);
  EXPECT_EQ(faulty.stats().thermal_excursions, 1u);
}

TEST(HbmChip, PowerCycleRestoresPowerOnContentsAndClock) {
  const auto profile = dram::chip_profiles()[3];
  bender::HbmChip chip(profile);
  const dram::RowAddress addr{{1, 0, 2}, 1234};
  const auto power_on = chip.read_row(addr);

  chip.write_row(addr, dram::RowBits::filled(0xFF));
  ASSERT_NE(chip.read_row(addr), power_on);
  ASSERT_GT(chip.now(), 0u);

  chip.power_cycle();
  EXPECT_EQ(chip.now(), 0u);
  EXPECT_EQ(chip.read_row(addr), power_on)
      << "power-on contents must be deterministic (same silicon lottery)";

  // reset() is the same recovery entry point.
  chip.write_row(addr, dram::RowBits::filled(0x0F));
  chip.reset();
  EXPECT_EQ(chip.read_row(addr), power_on);
}

TEST(HbmChip, PowerCycleKeepsTheRigRunning) {
  const auto profile = dram::chip_profiles()[2];
  bender::HbmChip chip(profile);
  chip.idle(100.0);
  const double rig_time = chip.rig().time_s();
  chip.power_cycle();
  EXPECT_GE(chip.rig().time_s(), rig_time)
      << "the rig is physically independent of the board's power rail";
}

TEST(HbmChip, PinTemperatureFixesTheDeviceView) {
  const auto profile = dram::chip_profiles()[1];  // ambient chip, ~55 C
  bender::HbmChip chip(profile);
  chip.pin_temperature(82.0);
  EXPECT_EQ(chip.temperature_c(), 82.0);
  chip.idle(500.0);  // rig drifts underneath; the device view must not
  EXPECT_EQ(chip.temperature_c(), 82.0);
  ASSERT_TRUE(chip.pinned_temperature().has_value());

  chip.pin_temperature(std::nullopt);
  EXPECT_FALSE(chip.pinned_temperature().has_value());
  EXPECT_NEAR(chip.temperature_c(), profile.ambient_temperature_c, 5.0);
}

}  // namespace
}  // namespace hbmrd::fault
