// Ablation: fault injection vs campaign resilience.
//
// Sweeps the per-attempt transient-fault rate (plus a thermal-excursion and
// a persistent-fault scenario) over the same HC_first + BER campaign and
// reports, per rate: campaign completion, retry/quarantine counts, injected
// faults, simulated campaign time — and result fidelity against the
// fault-free baseline. The demonstration this harness exists for: injected
// faults change the wall-clock and retry statistics, but the committed
// scientific outputs stay bit-identical, because every fault is detected at
// the session boundary and the trial re-measures under the pinned,
// guard-banded environment.
//
// A second table ablates the storage layer: campaigns checkpointing through
// a fault-injected store (simulated power loss every N writes, random
// injected I/O errors) are resumed until they finish, and the final
// checkpoint + journal must be byte-identical to an uninterrupted run's.
//
// Acceptance: at a 1% transient rate the campaign completes >= 99% of
// trials with 100% payload fidelity; every storage scenario recovers to
// byte-identical artifacts.
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common.h"
#include "fault/faulty_store.h"
#include "study/ber.h"
#include "study/hc_first.h"
#include "study/row_selection.h"

namespace {

using namespace hbmrd;

struct Scenario {
  std::string label;
  double transient_rate = 0.0;
  double thermal_rate = 0.0;
  double persistent_rate = 0.0;
};

struct StorageScenario {
  std::string label;
  double write_error_rate = 0.0;
  std::uint64_t crash_every = 0;  // power loss at this write count per run
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

struct Outcome {
  runner::CampaignReport report;
  fault::FaultyChip::Stats stats;
  /// Payload cells of every ok trial, keyed by trial key.
  std::vector<std::pair<std::string, std::vector<std::string>>> payloads;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(
      argc, argv, "Ablation: fault injection vs campaign resilience",
      {bench::kObservabilityFlags,
       {{"--shards", util::FlagKind::kInt,
         "shard count for every process-chaos scenario (default: each "
         "scenario's own)"}}});
  const int chip_index = static_cast<int>(ctx.cli().get_int("--chip", 1));
  const int n_rows = ctx.rows(6, 96);
  const auto& map = ctx.map_of(chip_index);
  const auto profile =
      dram::chip_profiles(static_cast<std::uint64_t>(ctx.cli().get_int(
          "--seed",
          static_cast<std::int64_t>(dram::kDefaultPlatformSeed))))
          [static_cast<std::size_t>(chip_index)];

  // One bundle across every scenario campaign (fault sweep, storage
  // reference, crash/resume incarnations): counters accumulate and the
  // snapshot is written once at exit.
  bench::CampaignObservability obs(ctx.cli());

  const std::vector<Scenario> scenarios = {
      {"baseline (fault-free)", 0.0, 0.0, 0.0},
      {"transient 1%", 0.01, 0.0, 0.0},
      {"transient 5%", 0.05, 0.0, 0.0},
      {"transient 20%", 0.20, 0.0, 0.0},
      {"thermal 10%", 0.0, 0.10, 0.0},
      {"transient 5% + persistent 5%", 0.05, 0.0, 0.05},
  };

  std::vector<runner::CampaignRunner::Trial> trials;
  study::HcSearchConfig hc_config;
  for (int row : study::spread_rows(n_rows)) {
    trials.push_back(
        {"hcfirst:row" + std::to_string(row),
         [&map, row, hc_config](bender::ChipSession& session)
             -> std::vector<std::string> {
           const auto hc = study::find_hc_first(session, map,
                                                {{0, 0, 0}, row}, hc_config);
           return {hc ? std::to_string(*hc) : ""};
         }});
  }
  for (int row : study::spread_rows(n_rows)) {
    trials.push_back(
        {"ber:row" + std::to_string(row),
         [&map, row](bender::ChipSession& session)
             -> std::vector<std::string> {
           study::BerConfig config;
           const auto result = study::measure_row_ber(
               session, map, {{1, 0, 0}, row}, config);
           return {std::to_string(result.bitflips)};
         }});
  }

  const auto run_scenario = [&](const Scenario& scenario) -> Outcome {
    // A fresh chip per scenario: every campaign starts from the identical
    // power-on testbed, so payload differences are attributable to the
    // injected faults alone.
    bender::HbmChip chip(profile);
    runner::RunnerConfig config;
    config.result_columns = {"value"};
    config.faults.transient_rate = scenario.transient_rate;
    config.faults.thermal_rate = scenario.thermal_rate;
    config.faults.persistent_rate = scenario.persistent_rate;
    obs.attach(config);
    runner::CampaignRunner campaign(chip, config);

    Outcome outcome;
    outcome.report = campaign.run(trials);
    outcome.stats = campaign.session().stats();
    for (const auto& record : outcome.report.records) {
      if (record.status == runner::TrialStatus::kOk ||
          record.status == runner::TrialStatus::kOkResumed) {
        outcome.payloads.emplace_back(record.key, record.cells);
      }
    }
    return outcome;
  };

  ctx.banner("Campaign: HC_first + BER sweep, " + std::to_string(2 * n_rows) +
             " trials per scenario, chip " + std::to_string(chip_index));
  const auto baseline = run_scenario(scenarios.front());

  util::Table table({"scenario", "completion", "retries", "quarantined",
                     "faults", "guard waits", "campaign s", "fidelity"});
  bool all_ok = true;
  for (const auto& scenario : scenarios) {
    const auto outcome =
        scenario.label == scenarios.front().label ? baseline
                                                  : run_scenario(scenario);
    // Fidelity: of the trials both campaigns completed, how many committed
    // byte-identical payloads.
    std::size_t compared = 0, identical = 0;
    for (const auto& [key, cells] : outcome.payloads) {
      for (const auto& [base_key, base_cells] : baseline.payloads) {
        if (base_key != key) continue;
        ++compared;
        if (base_cells == cells) ++identical;
        break;
      }
    }
    const double fidelity =
        compared == 0 ? 0.0
                      : static_cast<double>(identical) /
                            static_cast<double>(compared);
    const double completion = outcome.report.completion_rate();
    if (scenario.transient_rate <= 0.01 && scenario.persistent_rate == 0.0 &&
        (completion < 0.99 || fidelity < 1.0)) {
      all_ok = false;
    }
    table.row()
        .cell(scenario.label)
        .cell(util::format_double(100.0 * completion, 2) + "%")
        .cell(static_cast<long long>(outcome.report.retries))
        .cell(static_cast<long long>(outcome.report.quarantined))
        .cell(static_cast<long long>(outcome.stats.injected_total))
        .cell(util::format_double(outcome.report.guard_wait_s, 1) + " s")
        .cell(util::format_double(outcome.report.campaign_seconds, 1))
        .cell(util::format_double(100.0 * fidelity, 2) + "%");
  }
  table.print(std::cout);

  // -- Storage-fault ablation: checkpoint through a fault-injected store,
  // resume until done, and demand byte-identical final artifacts.
  ctx.banner("Storage faults: crash/resume until byte-identical");
  const auto dir = std::filesystem::temp_directory_path() / "hbmrd_ablate";
  std::filesystem::create_directories(dir);
  const auto artifact = [&](const std::string& tag, const char* ext) {
    return (dir / ("storage_" + tag + ext)).string();
  };

  // Reference: the uninterrupted, fault-free checkpointed campaign.
  const std::string ref_csv = artifact("ref", ".csv");
  const std::string ref_jsonl = artifact("ref", ".jsonl");
  {
    bender::HbmChip chip(profile);
    runner::RunnerConfig config;
    config.result_columns = {"value"};
    config.results_path = ref_csv;
    config.journal_path = ref_jsonl;
    obs.attach(config);
    runner::CampaignRunner campaign(chip, config);
    (void)bench::run_campaign_or_die(campaign, trials);
  }

  const std::vector<StorageScenario> storage_scenarios = {
      {"power loss every 8 writes", 0.0, 8},
      {"power loss every 24 writes", 0.0, 24},
      {"injected I/O errors 15%", 0.15, 0},
  };
  util::Table storage_table({"scenario", "resumes", "crashes", "I/O errors",
                             "csv bytes", "journal bytes"});
  bool storage_ok = true;
  int scenario_index = 0;
  for (const auto& scenario : storage_scenarios) {
    const auto tag = std::to_string(scenario_index++);
    const std::string csv_path = artifact(tag, ".csv");
    const std::string jsonl_path = artifact(tag, ".jsonl");
    for (const auto* path : {&csv_path, &jsonl_path}) {
      std::filesystem::remove(*path);
      std::filesystem::remove(*path + ".manifest");
    }

    int resumes = 0, crashes = 0, io_errors = 0;
    bool done = false;
    // Power loss every 8 writes commits about 0.29 rows per incarnation at
    // the default 12 trials and 0.36 at the paper's 192, so 10 incarnations
    // per trial leave a margin of about 3x at either scale.
    const std::size_t max_incarnations = 10 * trials.size();
    for (std::size_t incarnation = 0; incarnation < max_incarnations && !done;
         ++incarnation) {
      bender::HbmChip chip(profile);
      runner::RunnerConfig config;
      config.result_columns = {"value"};
      config.results_path = csv_path;
      config.journal_path = jsonl_path;
      config.resume = incarnation > 0;
      if (incarnation > 0) ++resumes;
      // The faulty store is built here (not via config.faults.store) so the
      // fault schedule can be re-seeded per incarnation: a fixed seed keyed
      // only on the operation counter would replay the identical torn write
      // or I/O error on every resume and livelock the loop, which is not
      // what repeated real power cuts do.
      fault::StoreFaultConfig store_faults;
      store_faults.write_error_rate = scenario.write_error_rate;
      store_faults.crash_at_write = scenario.crash_every;
      config.store = std::make_shared<fault::FaultyStore>(
          util::default_store(),
          config.faults.seed + static_cast<std::uint64_t>(incarnation),
          store_faults);
      obs.attach(config);
      runner::CampaignRunner campaign(chip, config);
      try {
        done = !campaign.run(trials).aborted;
      } catch (const fault::StoreCrashError&) {
        ++crashes;
      } catch (const runner::StoreError&) {
        ++io_errors;
      }
    }
    const bool csv_same = done && slurp(csv_path) == slurp(ref_csv);
    const bool jsonl_same = done && slurp(jsonl_path) == slurp(ref_jsonl);
    if (!csv_same || !jsonl_same) storage_ok = false;
    storage_table.row()
        .cell(scenario.label)
        .cell(static_cast<long long>(resumes))
        .cell(static_cast<long long>(crashes))
        .cell(static_cast<long long>(io_errors))
        .cell(csv_same ? "identical" : "DIFFER")
        .cell(jsonl_same ? "identical" : "DIFFER");
  }
  storage_table.print(std::cout);

  // -- Process-supervision ablation: the same campaign sharded across
  // supervised worker processes, with worker crashes, hangs and heartbeat
  // drops injected. The supervisor must restart/handoff the shards and the
  // merged artifacts must be byte-identical to the uninterrupted
  // single-process reference above.
  ctx.banner("Process supervision: sharded workers, injected crash/hang");
  struct ChaosScenario {
    std::string label;
    std::uint64_t shards;
    fault::WorkerFaultConfig worker;
    /// What recovering from the injected faults means. Whether a wedged
    /// worker is reaped or its trials are stolen first depends on timing,
    /// so the table states the recovery, not the supervisor's counts.
    std::string handled;
  };
  const auto shards_override =
      static_cast<std::uint64_t>(ctx.cli().get_int("--shards", 0));
  const std::vector<ChaosScenario> chaos_scenarios = {
      // Trial numbers are global and 1-based; keep them small so the
      // faults fire even at --rows-scaled-down campaign sizes.
      {"2 shards, crash in trial 2's commit", 2, {.crash_at_trial = 2},
       "crash restarted"},
      {"2 shards, hang before trial 5", 2, {.hang_at_trial = 5},
       "hang reaped or stolen"},
      {"2 shards, heartbeats drop after 3", 2, {.drop_heartbeats_after = 3},
       "mute worker reaped or stolen"},
      {"4 shards, crash at 2 + hang at 5",
       4,
       {.crash_at_trial = 2, .hang_at_trial = 5},
       "crash restarted, hang reaped or stolen"},
  };
  util::Table chaos_table(
      {"scenario", "fault handled", "csv bytes", "journal bytes"});
  std::vector<std::string> chaos_telemetry;
  bool chaos_ok = true;
  int chaos_index = 0;
  for (const auto& scenario : chaos_scenarios) {
    const auto tag = "chaos" + std::to_string(chaos_index++);
    const std::string csv_path = artifact(tag, ".csv");
    const std::string jsonl_path = artifact(tag, ".jsonl");
    // Shard stores, manifests and the shard index all derive from these
    // paths; clear any previous run's files by prefix.
    const auto prefix = "storage_" + tag;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) {
        std::filesystem::remove(entry.path());
      }
    }

    bender::HbmChip chip(profile);
    runner::RunnerConfig config;
    config.result_columns = {"value"};
    config.results_path = csv_path;
    config.journal_path = jsonl_path;
    config.faults.worker = scenario.worker;
    obs.attach(config);

    runner::SupervisorConfig supervision;
    supervision.shards = shards_override ? shards_override : scenario.shards;
    supervision.hang_timeout_s = 1.0;        // wall-clock; keep the bench quick
    supervision.restart_backoff = {5, 0.05, 0.25};
    runner::Supervisor supervisor(chip, config, supervision);
    const auto srep = supervisor.run(trials);

    const bool csv_same =
        !srep.campaign.aborted && slurp(csv_path) == slurp(ref_csv);
    const bool jsonl_same =
        !srep.campaign.aborted && slurp(jsonl_path) == slurp(ref_jsonl);
    if (!csv_same || !jsonl_same) chaos_ok = false;
    // An injected fault fires on whichever worker reaches its trial, so a
    // campaign that reaches it completes only through a supervisor action.
    const bool acted =
        srep.crashes + srep.hangs_killed + srep.shards_stolen > 0;
    chaos_table.row()
        .cell(scenario.label)
        .cell(srep.campaign.aborted ? "NOT handled (aborted)"
              : acted               ? scenario.handled
                                    : "no fault fired")
        .cell(csv_same ? "identical" : "DIFFER")
        .cell(jsonl_same ? "identical" : "DIFFER");
    chaos_telemetry.push_back(
        scenario.label + ": spawns/crashes/hangs/stolen = " +
        std::to_string(srep.spawns) + "/" + std::to_string(srep.crashes) +
        "/" + std::to_string(srep.hangs_killed) + "/" +
        std::to_string(srep.shards_stolen));
  }
  chaos_table.print(std::cout);
  for (const auto& line : chaos_telemetry) {
    std::cout << "timing telemetry (varies run to run) | " << line << "\n";
  }

  ctx.banner("Checks");
  ctx.compare("completion at 1% transient rate", ">= 99%",
              all_ok ? "pass" : "FAIL");
  ctx.compare("payload fidelity vs fault-free baseline at 1%", "100%",
              all_ok ? "pass" : "FAIL");
  ctx.compare("storage-fault recovery", "byte-identical artifacts",
              storage_ok ? "pass" : "FAIL");
  ctx.compare("supervised shard recovery", "byte-identical merged artifacts",
              chaos_ok ? "pass" : "FAIL");
  if (!storage_ok || !chaos_ok) all_ok = false;
  std::cout << "(faults cost retries, backoff, and guard waits — never "
               "results: quarantined trials are reported above, and every "
               "committed payload re-measures identically because trials "
               "re-initialize their rows and run pinned to the calibrated "
               "setpoint)\n";
  obs.finish();
  return all_ok ? 0 : 1;
}
