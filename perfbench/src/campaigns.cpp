// The three campaign workloads: hc_campaign (HC_1..HC_10 searches, 2 jobs),
// arena_mix (serial defense-arena matches) and bypass_sweep (the Fig. 14
// TRR-bypass grid). Each round runs one campaign through
// runner::CampaignRunner with a results CSV and journal in a fresh
// directory; the round's digest covers both artifacts.
#include <functional>
#include <mutex>
#include <optional>

#include "arena/engine.h"
#include "arena/fuzzer.h"
#include "arena/leaderboard.h"
#include "bender/platform.h"
#include "common.h"
#include "dram/chip_profiles.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/runner.h"
#include "study/bypass.h"
#include "study/hcn.h"
#include "trace.h"
#include "util/rng.h"
#include "util/table.h"

namespace hbmrd::perfbench {

namespace {

using Body = std::function<std::vector<std::string>(bender::ChipSession&)>;

/// Deterministic draw in [0, n) for input generation.
int draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i, int n) {
  return static_cast<int>(util::hash_key(seed, stream, i) %
                          static_cast<std::uint64_t>(n));
}

/// Deterministic counters of one round, as the registry exported them.
constexpr const char* kRegistryLayers[] = {
    "device.acts",          "device.refs",
    "device.hammer_windows", "device.dedup_hits",
    "device.victim_refreshes", "device.bitflips",
    "device.sense_word_ops", "device.sense_cells_visited",
    "cache.lookups",        "cache.summary_hits",
    "cache.summary_misses", "cache.summary_evictions",
    "study.hc_probes",      "study.hammers_replayed",
    "study.hammers_saved",  "campaign.retries",
    "campaign.quarantined", "store.appends",
    "store.append_bytes",   "store.fsyncs",
    "arena.periodic_refs",  "arena.preventive_refreshes",
    "arena.stalled_acts",
};

/// A campaign workload: a chip, a trial list and the layer its trial
/// bodies belong to. Subclasses fill these in setup().
class CampaignWorkload : public Workload {
 public:
  Round run_round(const std::string& dir, Tracer* tracer,
                  bool metered) override;
  [[nodiscard]] const char* ops_label() const override {
    return "trials_per_s";
  }

 protected:
  struct TrialSpec {
    std::string key;
    Body body;
  };

  explicit CampaignWorkload(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed_;
  std::unique_ptr<bender::HbmChip> chip_;
  std::vector<std::string> columns_;
  std::vector<TrialSpec> trials_;
  int jobs_ = 1;
  /// Span name of one trial body: "study.search", "study.bypass" or
  /// "arena.match"; the per-layer metrics are keyed by it.
  std::string layer_;
  std::uint64_t rounds_ = 0;
};

Round CampaignWorkload::run_round(const std::string& dir, Tracer* tracer,
                                  bool metered) {
  const ScratchDir scratch(dir);
  runner::RunnerConfig config;
  config.results_path = scratch.file("results.csv");
  config.journal_path = scratch.file("journal.jsonl");
  config.result_columns = columns_;
  config.jobs = jobs_;

  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  std::shared_ptr<TimedStore> store;
  if (metered) config.metrics = &registry;
  if (tracer != nullptr) {
    store = std::make_shared<TimedStore>(util::default_store());
    config.store = store;
    config.trace = &recorder;
  }

  const auto round_span =
      tracer != nullptr ? tracer->open("round", -1, rounds_) : -1;
  ++rounds_;
  const auto run_span =
      tracer != nullptr ? tracer->open("runner.run", round_span, 0) : -1;

  // Trial bodies run on the runner's worker threads; each writes only its
  // own slot, and the traced totals fold under `mu`.
  std::vector<double> trial_ms(trials_.size(), 0.0);
  std::mutex mu;
  BenderTotals bender;
  double layer_s = 0.0;
  std::vector<runner::CampaignRunner::Trial> trials;
  trials.reserve(trials_.size());
  for (std::size_t i = 0; i < trials_.size(); ++i) {
    const Body* inner = &trials_[i].body;
    Body body;
    if (tracer == nullptr) {
      body = [&trial_ms, inner, i](bender::ChipSession& session) {
        const double t0 = now_s();
        auto cells = (*inner)(session);
        trial_ms[i] = (now_s() - t0) * 1e3;
        return cells;
      };
    } else {
      body = [&, inner, i](bender::ChipSession& session) {
        const auto span = tracer->open(layer_, run_span, i);
        TimedSession timed(session);
        std::optional<std::vector<std::string>> cells;
        try {
          cells = (*inner)(timed);
        } catch (...) {
          timed.fold_probe_counters();
          tracer->close(span, timed.totals().total_s());
          throw;
        }
        timed.fold_probe_counters();
        const double seconds = tracer->close(span, timed.totals().total_s());
        trial_ms[i] = seconds * 1e3;
        const std::lock_guard lock(mu);
        bender.add(timed.totals());
        layer_s += seconds;
        return std::move(*cells);
      };
    }
    trials.push_back({trials_[i].key, std::move(body)});
  }

  runner::CampaignRunner campaign(*chip_, config);
  const double t0 = now_s();
  const auto report = campaign.run(trials);
  const double run_s = now_s() - t0;
  if (tracer != nullptr) tracer->close(run_span);

  Round round;
  {
    const ExcludedScope check(round);
    round.digest = digest(read_file(config.journal_path),
                          digest(read_file(config.results_path)));
  }
  round.attempted = trials.size();
  round.failed = trials.size() - report.completed;
  if (report.aborted) {
    round.errors.push_back("campaign aborted: " + report.abort_reason);
  }
  round.ops = static_cast<double>(report.completed);
  round.ops_s = run_s;
  round.op_ms = std::move(trial_ms);
  round.acts = static_cast<double>(report.device_counters.activations);
  round.acts_s = run_s;

  if (metered) {
    if (layer_ == "arena.match") arena::fold_metrics(registry, report.records);
    round.fingerprint = registry.deterministic_fingerprint();
  }
  if (tracer != nullptr) {
    auto& layers = round.layers;
    for (const char* name : kRegistryLayers) {
      layers[name] = static_cast<double>(registry.counter(name));
    }
    layers["bender.run_calls"] = static_cast<double>(bender.run_calls);
    layers["bender.run_s"] = bender.run_s;
    layers["bender.checkpoint_calls"] =
        static_cast<double>(bender.checkpoint_calls);
    layers["bender.restore_calls"] = static_cast<double>(bender.restore_calls);
    layers["bender.checkpoint_s"] = bender.checkpoint_s;
    const auto calls = static_cast<double>(trials.size());
    const double self_s = layer_s - bender.total_s();
    if (layer_ == "study.search") {
      layers["study.search_calls"] = calls;
      layers["study.search_s"] = layer_s;
      layers["study.self_s"] = self_s;
    } else if (layer_ == "study.bypass") {
      layers["study.bypass_s"] = layer_s;
      layers["study.self_s"] = self_s;
    } else {
      layers["arena.match_calls"] = calls;
      layers["arena.match_s"] = layer_s;
      layers["arena.self_s"] = self_s;
    }
    const auto commits = recorder.span("campaign/commit");
    const double jobs = static_cast<double>(jobs_);
    layers["runner.run_s"] = run_s;
    layers["runner.commit_s"] = commits.total_s;
    layers["runner.commits"] = static_cast<double>(commits.count);
    layers["runner.parallel_eff"] = layer_s / (jobs * run_s);
    layers["runner.self_s"] = run_s - layer_s / jobs;
    layers["store.io_s"] = store->io_s();
    // Layer self times per worker, plus the runner's own: the part of the
    // round wall the trace accounts for (main divides by the round wall).
    layers["trace.covered_s"] =
        (bender.total_s() + self_s) / jobs + (run_s - layer_s / jobs);
    tracer->close(round_span);
  }
  return round;
}

// -- hc_campaign ------------------------------------------------------------

/// HC_1..HC_10 searches (study::measure_hcn) on victims spread over one
/// chip's channels, banks and bank positions, times the four data
/// patterns, at 2 jobs.
class HcCampaign : public CampaignWorkload {
 public:
  explicit HcCampaign(std::uint64_t seed) : CampaignWorkload(seed) {
    jobs_ = 2;
    layer_ = "study.search";
  }

  void setup() override {
    constexpr int kChip = 1;  // the paper's workhorse chip
    // Every channel at the start, middle and end of a bank (a 256-row
    // region at each), one victim in each half of a region; the seed picks
    // pseudo channel, bank and row. A search's cost depends on its row's
    // HC, so 48 victims keep every seed's work comparable.
    constexpr int kRegionStart[] = {4, dram::kRowsPerBank / 2 - 128,
                                    dram::kRowsPerBank - 4 - 256};
    constexpr int kSlots = 6;  // 3 regions x 2 halves
    chip_ = std::make_unique<bender::HbmChip>(
        dram::chip_profiles(dram::kDefaultPlatformSeed)[kChip]);
    map_ = study::AddressMap::from_scheme(chip_->profile().mapping);
    columns_ = {"channel", "pc", "bank", "row", "pattern"};
    for (int k = 1; k <= study::kHcnFlips; ++k) {
      columns_.push_back(k == 1 ? "hc_first" : "hc_" + std::to_string(k));
    }
    trials_.clear();
    for (int v = 0; v < dram::kChannels * kSlots; ++v) {
      const int slot = v / dram::kChannels;
      const dram::BankAddress bank{
          v % dram::kChannels, draw(seed_, 2, v, dram::kPseudoChannels),
          draw(seed_, 3, v, dram::kBanksPerPseudoChannel)};
      const int row = kRegionStart[slot / 2] + 128 * (slot % 2) +
                      draw(seed_, 4, v, 128);
      for (const auto pattern : study::kAllPatterns) {
        study::HcSearchConfig config;
        config.pattern = pattern;
        const auto name = study::to_string(pattern);
        const std::vector<std::string> prefix = {
            std::to_string(bank.channel), std::to_string(bank.pseudo_channel),
            std::to_string(bank.bank), std::to_string(row), name};
        auto key = "ch" + prefix[0] + ":pc" + prefix[1] + ":b" + prefix[2] +
                   ":row" + prefix[3] + ":" + name;
        trials_.push_back(
            {std::move(key),
             [this, bank, row, config, prefix](bender::ChipSession& session) {
               const auto result =
                   study::measure_hcn(session, map_, {bank, row}, config);
               auto cells = prefix;
               for (const auto& hc : result.hc) {
                 cells.push_back(hc ? std::to_string(*hc) : "");
               }
               return cells;
             }});
      }
    }
  }

 private:
  study::AddressMap map_ =
      study::AddressMap::from_scheme(dram::MappingScheme::kIdentity);
};

// -- arena_mix --------------------------------------------------------------

/// Serial defense-arena matches on chip 2: the four catalogued attack
/// patterns and the fuzzer's first four, each against the five catalogued
/// defenses, interleaved with zipf / uniform / streaming tenants, around
/// one victim in each quarter of the bank. The seed moves the victims
/// within their quarters, the tenants' traces and the interleave; the
/// pattern roster (fuzz seed 0xF022, arena_eval's default) stays fixed.
/// A match's cost depends on its victim's neighbourhood, so every seed
/// spreads its matches over the whole bank and does comparable work. The
/// protect threshold is fixed, so no HC search runs.
class ArenaMix : public CampaignWorkload {
 public:
  explicit ArenaMix(std::uint64_t seed) : CampaignWorkload(seed) {
    jobs_ = 1;
    layer_ = "arena.match";
  }

  void setup() override {
    constexpr int kChip = 2;
    constexpr std::uint64_t kThreshold = 1024;
    constexpr int kVictims = 4;
    constexpr std::uint64_t kWindows = 12;
    constexpr std::size_t kBenignActs = 188;
    constexpr int kFuzzed = 4;
    chip_ = std::make_unique<bender::HbmChip>(
        dram::chip_profiles(dram::kDefaultPlatformSeed)[kChip]);
    map_ = study::AddressMap::from_scheme(chip_->profile().mapping);
    columns_ = arena::leaderboard_columns();

    const auto& timing = chip_->stack().timing();
    std::vector<arena::AttackPattern> patterns;
    for (int v = 0; v < kVictims; ++v) {
      constexpr int kQuarter = dram::kRowsPerBank / kVictims;
      arena::PatternConfig pattern_config;
      pattern_config.windows = kWindows;
      pattern_config.seed = 0xF022;
      pattern_config.victim =
          v * kQuarter + 64 + draw(seed_, 11, v, kQuarter - 128);
      for (auto& pattern :
           arena::catalogued_patterns(map_, timing, pattern_config)) {
        patterns.push_back(std::move(pattern));
      }
      arena::PatternFuzzer fuzzer(map_, timing, pattern_config);
      for (int i = 0; i < kFuzzed; ++i) {
        patterns.push_back(fuzzer.materialize(
            fuzzer.pattern(static_cast<std::uint64_t>(i))));
      }
    }

    const double t0 = now_s();
    arena::ScenarioConfig scenario_config;
    scenario_config.tenants =
        arena::default_tenants(kBenignActs, util::hash_key(seed_, 14));
    scenario_config.interleave_seed = util::hash_key(seed_, 15);
    scenarios_.clear();
    for (const auto& pattern : patterns) {
      scenarios_.push_back(arena::build_scenario(scenario_config, pattern));
    }
    scenario_build_s_ = now_s() - t0;

    defenses_ = arena::defense_catalogue(kThreshold);
    trials_.clear();
    const auto per_victim = scenarios_.size() / kVictims;
    for (std::size_t s = 0; s < scenarios_.size(); ++s) {
      const auto& scenario = scenarios_[s];
      for (const auto& spec : defenses_) {
        trials_.push_back(
            {"v" + std::to_string(s / per_victim) + "|" +
                 scenario.attack_name + "|" + spec.name,
             [this, &scenario, &spec](bender::ChipSession& session) {
               return arena::to_cells(
                   arena::run_match(session, map_, scenario, spec));
             }});
      }
    }
  }

  void finish_layers(const std::vector<Round>& untraced,
                     std::map<std::string, double>& layers) override {
    (void)untraced;
    layers["workload.scenario_build_s"] = scenario_build_s_;
  }

 private:
  study::AddressMap map_ =
      study::AddressMap::from_scheme(dram::MappingScheme::kIdentity);
  std::vector<arena::Scenario> scenarios_;
  std::vector<arena::DefenseSpec> defenses_;
  double scenario_build_s_ = 0.0;
};

// -- bypass_sweep -----------------------------------------------------------

/// The Fig. 14 grid on chip 0 (dummy rows x aggressor activations) against
/// sixteen seeded victims, one in each sixteenth of the bank, periodic
/// refresh obeyed so the TRR is in play. An attack's cost depends on its
/// victim, so many short attacks over the whole bank keep every seed's work
/// comparable.
class BypassSweep : public CampaignWorkload {
 public:
  explicit BypassSweep(std::uint64_t seed) : CampaignWorkload(seed) {
    jobs_ = 1;
    layer_ = "study.bypass";
  }

  void setup() override {
    constexpr int kChip = 0;
    constexpr std::uint64_t kWindows = 512;
    constexpr int kVictims = 16;
    constexpr int kSlice = dram::kRowsPerBank / kVictims;
    chip_ = std::make_unique<bender::HbmChip>(
        dram::chip_profiles(dram::kDefaultPlatformSeed)[kChip]);
    map_ = study::AddressMap::from_scheme(chip_->profile().mapping);
    columns_ = {"dummies", "aggr_acts", "row", "acts_per_dummy", "ber",
                "flips"};
    trials_.clear();
    for (int v = 0; v < kVictims; ++v) {
      const int row =
          v * kSlice + 64 + 16 * draw(seed_, 20, v, (kSlice - 128) / 16) + 1;
      for (const int dummies : {2, 4, 6, 8}) {
        for (const int acts : {18, 24, 30, 34}) {
          study::BypassConfig config;
          config.dummy_rows = dummies;
          config.aggressor_acts = acts;
          config.windows = kWindows;
          trials_.push_back(
              {"d" + std::to_string(dummies) + ":a" + std::to_string(acts) +
                   ":row" + std::to_string(row),
               [this, dummies, acts, row,
                config](bender::ChipSession& session) {
                 const auto result = study::run_bypass_attack(
                     session, map_, {{0, 0, 0}, row}, config);
                 return std::vector<std::string>{
                     std::to_string(dummies), std::to_string(acts),
                     std::to_string(row),
                     std::to_string(result.plan.acts_per_dummy),
                     util::format_double(result.ber, 8),
                     std::to_string(result.bitflips)};
               }});
        }
      }
    }
  }

 private:
  study::AddressMap map_ =
      study::AddressMap::from_scheme(dram::MappingScheme::kIdentity);
};

}  // namespace

std::unique_ptr<Workload> make_hc_campaign(std::uint64_t seed) {
  return std::make_unique<HcCampaign>(seed);
}

std::unique_ptr<Workload> make_arena_mix(std::uint64_t seed) {
  return std::make_unique<ArenaMix>(seed);
}

std::unique_ptr<Workload> make_bypass_sweep(std::uint64_t seed) {
  return std::make_unique<BypassSweep>(seed);
}

}  // namespace hbmrd::perfbench
