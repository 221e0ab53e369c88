// Shared vocabulary of the benchmark binary: what one measured round of a
// workload reports, the statistics every metric is computed with, and the
// small host-side helpers (clock, rusage, artifact digests, work dirs).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hbmrd::perfbench {

class Tracer;

/// Monotonic host clock, seconds.
[[nodiscard]] double now_s();

/// user+sys CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_s();

/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();

/// Peak resident set size of the process, MiB.
[[nodiscard]] double max_rss_mb();

/// 64-bit FNV-1a, chained: digest(b, digest(a)) hashes a ‖ b.
[[nodiscard]] std::uint64_t digest(std::string_view bytes,
                                   std::uint64_t seed = 0xcbf29ce484222325ull);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Whole-file read; throws std::runtime_error when the file is missing.
[[nodiscard]] std::string read_file(const std::string& path);

/// Median of `xs` (0 when empty).
[[nodiscard]] double median(std::vector<double> xs);

/// The one latency rule: the highest percentile that still has at least
/// ten samples beyond it, i.e. the 11th-largest sample.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // 100 * (1 - 10 / samples)
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> xs);

/// A fresh directory for one round's artifacts; removed with its files on
/// destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file(std::string_view name) const;

 private:
  std::string path_;
};

/// What one measured round of a workload reports. A round is a fixed,
/// seed-determined amount of work, so its artifacts and deterministic
/// counters are identical in every round of a run.
struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Digest of the committed artifacts (CSV + journal, or the serve
  /// response stream).
  std::uint64_t digest = 0;
  /// MetricsRegistry::deterministic_fingerprint() of the round (only when a
  /// registry was attached: trace runs).
  std::string fingerprint;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failures that are not per-operation: digest or replay mismatches.
  std::vector<std::string> errors;

  /// ops_per_s = ops / ops_s.
  double ops = 0.0;
  double ops_s = 0.0;
  /// Latency of every op of the round, milliseconds, in a fixed order: op
  /// i is the same trial or batch in every round.
  std::vector<double> op_ms;
  /// sim_acts_per_s = acts / acts_s.
  double acts = 0.0;
  double acts_s = 0.0;
  /// serve_mixed: host time of each replayed fallback simulation,
  /// milliseconds, in a fixed order.
  std::vector<double> sim_ms;
  /// Work a traced round does only for the trace (excluded from
  /// trace.overhead_ratio).
  double trace_only_s = 0.0;
  /// Time the benchmark itself spent in the round (output checks, its
  /// busy-polling client's CPU), left out of wall_s and cpu_s.
  double excluded_wall_s = 0.0;
  double excluded_cpu_s = 0.0;

  /// Per-layer values of a traced round (see METRICS.md); summed over the
  /// traced rounds and divided by their count.
  std::map<std::string, double> layers;
};

/// Adds the wall and calling-thread CPU time of its scope to a round's
/// excluded time.
class ExcludedScope {
 public:
  explicit ExcludedScope(Round& round)
      : round_(round), wall0_(now_s()), cpu0_(thread_cpu_s()) {}
  ~ExcludedScope() {
    round_.excluded_wall_s += now_s() - wall0_;
    round_.excluded_cpu_s += thread_cpu_s() - cpu0_;
  }
  ExcludedScope(const ExcludedScope&) = delete;
  ExcludedScope& operator=(const ExcludedScope&) = delete;

 private:
  Round& round_;
  double wall0_;
  double cpu0_;
};

/// The workload interface main.cpp drives.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from the seed; called several times for setup_s,
  /// each call replacing the previous state.
  virtual void setup() = 0;
  /// Runs one round. `tracer` null = untraced. `metered` attaches a
  /// MetricsRegistry so the round carries a deterministic fingerprint.
  virtual Round run_round(const std::string& dir, Tracer* tracer,
                          bool metered) = 0;
  /// Human-readable name of ops_per_s for this workload.
  [[nodiscard]] virtual const char* ops_label() const = 0;
  /// Extra per-layer values computed across rounds (e.g. transport_us).
  virtual void finish_layers(const std::vector<Round>& untraced,
                             std::map<std::string, double>& layers) {
    (void)untraced;
    (void)layers;
  }
};

[[nodiscard]] std::unique_ptr<Workload> make_hc_campaign(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_arena_mix(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_bypass_sweep(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve_mixed(
    std::uint64_t seed, const std::string& work_dir);

}  // namespace hbmrd::perfbench
