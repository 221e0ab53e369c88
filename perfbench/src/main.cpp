// hbmrd performance benchmark.
//
//   hbmrd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--commit SHA]
//
// Workloads: hc_campaign, arena_mix, bypass_sweep, serve_mixed (METRICS.md
// says why each exists and which layers it stresses). The benchmark builds
// the workload's inputs from the seed, then runs rounds of a fixed,
// seed-determined amount of work until S seconds have passed, building the
// inputs again between rounds for setup_s. Every round must commit
// byte-identical artifacts; for the seeds listed in golden.txt they must
// also match the stored digest.
//
// --trace 0 prints the end-to-end metrics. --trace 1 spends half the time
// on untraced rounds and half on traced ones, checks that both produce the
// same artifacts and deterministic fingerprints, prints the per-layer
// metrics and writes the span log to .bench_work/<workload>.trace.jsonl.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Exit 0 when the run completed (correct or not), non-zero when it
// could not run.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"

namespace hbmrd::perfbench {

namespace {

/// The workload is set up once before the first round, then again after
/// each round while setups have taken less than kSetupShare of the time so
/// far, and at least kMinSetups times in all; setup_s is the median. The
/// setups spread over the whole run, so a slow moment at start-up does not
/// set the figure.
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupShare = 0.1;

class Setups {
 public:
  explicit Setups(Workload& workload) : workload_(workload) {}

  void run() {
    const double t0 = now_s();
    workload_.setup();
    const double seconds = now_s() - t0;
    samples_.push_back(seconds);
    total_s_ += seconds;
  }
  /// After a round: one more setup while setups are under their share.
  void between_rounds() {
    if (total_s_ < kSetupShare * (now_s() - start_)) run();
  }
  void top_up() {
    while (samples_.size() < kMinSetups) run();
  }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  Workload& workload_;
  double start_ = now_s();
  double total_s_ = 0.0;
  std::vector<double> samples_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  for (const bool h : have) {
    if (!h) {
      throw std::invalid_argument(
          "usage: hbmrd_perfbench --workload NAME --seed N --seconds S "
          "--trace 0|1");
    }
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args,
                                        const std::string& work_dir) {
  if (args.workload == "hc_campaign") return make_hc_campaign(args.seed);
  if (args.workload == "arena_mix") return make_arena_mix(args.seed);
  if (args.workload == "bypass_sweep") return make_bypass_sweep(args.seed);
  if (args.workload == "serve_mixed") {
    return make_serve_mixed(args.seed, work_dir);
  }
  throw std::invalid_argument(
      "unknown workload '" + args.workload +
      "' (hc_campaign, arena_mix, bypass_sweep, serve_mixed)");
}

/// golden.txt: "<workload> <seed> <digest>" per line, '#' comments.
std::optional<std::string> golden_digest(const std::string& workload,
                                         std::uint64_t seed) {
  std::ifstream in(PERFBENCH_SOURCE_DIR "/golden.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t s = 0;
    std::string hex;
    if (fields >> name >> s >> hex && name == workload && s == seed) {
      return hex;
    }
  }
  return std::nullopt;
}

/// Rounds until `budget_s` has passed (at least one), with setups between
/// them.
std::vector<Round> run_rounds(Workload& workload, Setups& setups,
                              const std::string& dir, Tracer* tracer,
                              bool metered, double budget_s) {
  std::vector<Round> rounds;
  const double end = now_s() + budget_s;
  do {
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    auto round = workload.run_round(dir, tracer, metered);
    round.wall_s = now_s() - t0 - round.excluded_wall_s;
    round.cpu_s = process_cpu_s() - cpu0 - round.excluded_cpu_s;
    rounds.push_back(std::move(round));
    setups.between_rounds();
  } while (now_s() < end);
  return rounds;
}

/// Every op repeats once per round; its time is its fastest repeat.
std::vector<double> best_per_op(const std::vector<Round>& rounds,
                                std::vector<double> Round::*samples) {
  std::vector<double> best = rounds.front().*samples;
  for (const auto& round : rounds) {
    const auto& xs = round.*samples;
    for (std::size_t i = 0; i < best.size() && i < xs.size(); ++i) {
      best[i] = std::min(best[i], xs[i]);
    }
  }
  return best;
}

/// Per-layer metrics, in BENCHMARK.json order, with units.
constexpr std::pair<const char*, const char*> kLayers[] = {
    {"bender.run_calls", "count"},
    {"bender.run_s", "s"},
    {"bender.ns_per_act", "ns"},
    {"bender.checkpoint_calls", "count"},
    {"bender.restore_calls", "count"},
    {"bender.checkpoint_s", "s"},
    {"device.acts", "count"},
    {"device.refs", "count"},
    {"device.hammer_windows", "count"},
    {"device.dedup_hits", "count"},
    {"device.victim_refreshes", "count"},
    {"device.bitflips", "count"},
    {"device.sense_word_ops", "count"},
    {"device.sense_cells_visited", "count"},
    {"device.dedup_ratio", "ratio"},
    {"cache.lookups", "count"},
    {"cache.summary_hits", "count"},
    {"cache.summary_misses", "count"},
    {"cache.summary_evictions", "count"},
    {"disturb.cache_hit_ratio", "ratio"},
    {"study.search_calls", "count"},
    {"study.search_s", "s"},
    {"study.self_s", "s"},
    {"study.hc_probes", "count"},
    {"study.hammers_replayed", "count"},
    {"study.hammers_saved", "count"},
    {"study.replay_ratio", "ratio"},
    {"study.bypass_s", "s"},
    {"arena.match_calls", "count"},
    {"arena.match_s", "s"},
    {"arena.self_s", "s"},
    {"arena.periodic_refs", "count"},
    {"arena.preventive_refreshes", "count"},
    {"arena.stalled_acts", "count"},
    {"workload.scenario_build_s", "s"},
    {"runner.run_s", "s"},
    {"runner.self_s", "s"},
    {"runner.commit_s", "s"},
    {"runner.commits", "count"},
    {"runner.parallel_eff", "ratio"},
    {"campaign.retries", "count"},
    {"campaign.quarantined", "count"},
    {"store.appends", "count"},
    {"store.append_bytes", "bytes"},
    {"store.fsyncs", "count"},
    {"store.io_s", "s"},
    {"serve.batches", "count"},
    {"serve.queries", "count"},
    {"serve.hits", "count"},
    {"serve.overlay_hits", "count"},
    {"serve.misses", "count"},
    {"serve.fallback_simulations", "count"},
    {"serve.errors", "count"},
    {"serve.bytes_served", "bytes"},
    {"serve.hit_ratio", "ratio"},
    {"serve.hit_batch_us", "us"},
    {"serve.miss_batch_ms", "ms"},
    {"serve.transport_us", "us"},
    {"client.gen_lag_ms", "ms"},
    {"client.backlog_growth", "flag"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note = "") {
  char line[160];
  std::snprintf(line, sizeof(line), "  %-28s %16.6g %-6s", name.c_str(), value,
                unit);
  std::cout << line << (note.empty() ? "" : "  " + note) << "\n";
}

int run(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "hbmrd perfbench: workload " << args.workload << ", seed "
            << args.seed << ", " << args.seconds << " s, trace "
            << (args.trace ? 1 : 0) << "\n"
            << "environment: nproc " << std::thread::hardware_concurrency()
            << ", compiler " << PERFBENCH_COMPILER << ", CMAKE_BUILD_TYPE "
            << (build_type.empty() ? "(unset)" : build_type) << ", commit "
            << args.commit << "\n";
#ifndef __OPTIMIZE__
  const bool optimized = false;
#else
  const bool optimized = true;
#endif
  if (build_type == "Debug" || !optimized) {
    std::cerr << "perfbench: refusing to report from an unoptimized ("
              << build_type << ") build\n";
    return 3;
  }

  std::filesystem::create_directories(".bench_work");
  const ScratchDir work(".bench_work/" + args.workload + "-" +
                        std::to_string(::getpid()));
  auto workload = make_workload(args, work.path());

  Setups setups(*workload);
  setups.run();
  const auto round_dir = work.file("round");
  Tracer tracer;
  std::vector<Round> untraced;
  std::vector<Round> traced;
  if (args.trace) {
    untraced = run_rounds(*workload, setups, round_dir, nullptr, true,
                          args.seconds / 2);
    traced = run_rounds(*workload, setups, round_dir, &tracer, true,
                        args.seconds / 2);
  } else {
    untraced = run_rounds(*workload, setups, round_dir, nullptr, false,
                          args.seconds);
  }
  setups.top_up();
  const auto& setup_s = setups.samples();
  std::cout << "caches start empty: every round builds fresh runner workers, "
               "chips and servers\n";

  // -- Correctness: identical artifacts (and fingerprints) in every round,
  // equal to the stored digest where one exists.
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::set<std::uint64_t> digests;
  std::set<std::string> fingerprints;
  for (const auto* rounds : {&untraced, &traced}) {
    for (const auto& round : *rounds) {
      attempted += round.attempted;
      failed += round.failed;
      digests.insert(round.digest);
      if (!round.fingerprint.empty()) fingerprints.insert(round.fingerprint);
      errors.insert(errors.end(), round.errors.begin(), round.errors.end());
    }
  }
  const auto digest_hex = hex64(*digests.begin());
  if (digests.size() != 1) {
    errors.push_back("artifact digests differ between rounds" +
                     std::string(args.trace ? " (traced vs untraced)" : ""));
  }
  if (fingerprints.size() > 1) {
    errors.push_back(
        "deterministic fingerprints differ between traced and untraced "
        "rounds");
  }
  const auto golden = golden_digest(args.workload, args.seed);
  if (golden && *golden != digest_hex) {
    errors.push_back("artifact digest " + digest_hex +
                     " differs from the stored " + *golden);
  }
  std::cout << "artifact digest: " << digest_hex << " (stored for this seed: "
            << (golden ? (*golden == digest_hex ? "match" : "MISMATCH")
                       : "none")
            << ")\n";

  // -- Per-layer metrics of the traced rounds (per round).
  std::map<std::string, double> layers;
  if (args.trace) {
    for (const auto& round : traced) {
      for (const auto& [name, value] : round.layers) layers[name] += value;
    }
    for (auto& [name, value] : layers) {
      value /= static_cast<double>(traced.size());
    }
    workload->finish_layers(untraced, layers);
    layers["bender.ns_per_act"] =
        ratio(layers["bender.run_s"], layers["device.acts"]) * 1e9;
    layers["device.dedup_ratio"] =
        ratio(layers["device.dedup_hits"], layers["device.acts"]);
    layers["disturb.cache_hit_ratio"] =
        ratio(layers["cache.summary_hits"], layers["cache.lookups"]);
    layers["study.replay_ratio"] = ratio(
        layers["study.hammers_replayed"],
        layers["study.hammers_replayed"] + layers["study.hammers_saved"]);
    layers["serve.hit_ratio"] =
        ratio(layers["serve.hits"] + layers["serve.overlay_hits"],
              layers["serve.queries"]);
    double traced_wall = std::numeric_limits<double>::max();
    double traced_mean = 0.0;
    for (const auto& round : traced) {
      const double wall_s = round.wall_s - round.trace_only_s;
      traced_wall = std::min(traced_wall, wall_s);
      traced_mean += wall_s / static_cast<double>(traced.size());
    }
    double untraced_wall = untraced.front().wall_s;
    for (const auto& round : untraced) {
      untraced_wall = std::min(untraced_wall, round.wall_s);
    }
    layers["trace.overhead_ratio"] = ratio(traced_wall, untraced_wall);
    layers["trace.coverage"] = ratio(layers["trace.covered_s"], traced_mean);
    if (args.workload == "hc_campaign" && layers["study.hammers_saved"] <= 0) {
      errors.push_back(
          "study.hammers_saved is 0: the incremental HC search is off");
    }
    tracer.write_jsonl(".bench_work/" + args.workload + ".trace.jsonl");
  }

  // -- End-to-end metrics of the untraced rounds. Every round repeats the
  // same work, so each figure takes the round (or, per op, the repeat) the
  // host disturbed least: on shared hosts single rounds swing by +-25 %.
  double wall = untraced.front().wall_s;
  double cpu = untraced.front().cpu_s;
  double ops_per_s = 0.0;
  double acts_per_s = 0.0;
  std::vector<double> walls;
  for (const auto& round : untraced) {
    wall = std::min(wall, round.wall_s);
    cpu = std::min(cpu, round.cpu_s);
    ops_per_s = std::max(ops_per_s, ratio(round.ops, round.ops_s));
    acts_per_s = std::max(acts_per_s, ratio(round.acts, round.acts_s));
    walls.push_back(round.wall_s);
  }
  const auto op_ms = best_per_op(untraced, &Round::op_ms);
  const auto sim_ms = best_per_op(untraced, &Round::sim_ms);
  double sims_s = 0.0;
  for (const double ms : sim_ms) sims_s += ms / 1e3;
  const auto tail = tail_of(op_ms);
  const auto sim_tail = tail_of(sim_ms);
  // sim_acts_per_s is printed but not in the JSON: on the campaigns a round's
  // ACTs are fixed, so it restates wall_s; on serve_mixed a few replayed rows
  // with millions of cheap bulk-hammer ACTs set it, so it moves with the seed.
  const std::vector<std::pair<std::string, std::pair<double, const char*>>>
      e2e = {
          {"setup_s", {median(setup_s), "s"}},
          {"wall_s", {wall, "s"}},
          {"ops_per_s", {ops_per_s, "1/s"}},
          {"op_p50_ms", {median(op_ms), "ms"}},
          {"op_tail_ms", {tail.value, "ms"}},
          {"cpu_s", {cpu, "s"}},
          {"max_rss_mb", {max_rss_mb(), "MB"}},
      };
  if (!errors.empty()) failed = attempted;
  const bool correct = errors.empty();

  char note[128];
  const bool serve = args.workload == "serve_mixed";
  std::cout << "\nEnd-to-end (" << untraced.size()
            << " untraced round(s): best round, per-op best repeat)\n";
  print_metric("setup_s", median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) + " setups");
  std::snprintf(note, sizeof(note), "fastest round; median %.4g s",
                median(walls));
  print_metric("wall_s", wall, "s", note);
  print_metric(workload->ops_label(), ops_per_s, "1/s", "JSON ops_per_s");
  std::snprintf(note, sizeof(note), "JSON op_tail_ms; p%.2f of %zu samples",
                tail.percentile, tail.samples);
  if (serve) {
    print_metric("serve_p50_ms", median(op_ms), "ms", "JSON op_p50_ms");
    print_metric("serve_p99_ms", tail.value, "ms", note);
    print_metric("trials_per_s", ratio(sim_ms.size(), sims_s), "1/s",
                 "bypass-index replay");
    print_metric("trial_p50_ms", median(sim_ms), "ms", "bypass-index replay");
    std::snprintf(note, sizeof(note), "p%.2f of %zu samples",
                  sim_tail.percentile, sim_tail.samples);
    print_metric("trial_tail_ms", sim_tail.value, "ms", note);
  } else {
    print_metric("trial_p50_ms", median(op_ms), "ms", "JSON op_p50_ms");
    print_metric("trial_tail_ms", tail.value, "ms", note);
  }
  print_metric("sim_acts_per_s", acts_per_s, "1/s",
               serve ? "bypass-index replay; not in JSON"
                     : "best round; not in JSON");
  print_metric("cpu_s", cpu, "s", "least of the rounds");
  print_metric("max_rss_mb", max_rss_mb(), "MB");
  print_metric("failed_ratio", ratio(failed, attempted), "ratio",
               std::to_string(failed) + " of " + std::to_string(attempted));
  if (args.trace) {
    std::cout << "\nPer layer (mean of " << traced.size()
              << " traced round(s); spans in .bench_work/" << args.workload
              << ".trace.jsonl)\n";
    for (const auto& [name, unit] : kLayers) {
      print_metric(name, layers[name], unit);
    }
  }
  if (layers["client.backlog_growth"] > 0) {
    std::cout << "WARNING: the open-loop backlog grew through phase B\n";
  }
  for (const auto& error : errors) std::cout << "FAILED: " << error << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  const char* sep = "";
  if (args.trace) {
    for (const auto& [name, unit] : kLayers) {
      std::cout << sep << "\"" << name << "\": {\"value\": "
                << json_number(layers[name]) << ", \"unit\": \"" << unit
                << "\"}";
      sep = ", ";
    }
  } else {
    for (const auto& [name, metric] : e2e) {
      std::cout << sep << "\"" << name << "\": {\"value\": "
                << json_number(metric.first) << ", \"unit\": \""
                << metric.second << "\"}";
      sep = ", ";
    }
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

}  // namespace hbmrd::perfbench

int main(int argc, char** argv) {
  try {
    return hbmrd::perfbench::run(hbmrd::perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
