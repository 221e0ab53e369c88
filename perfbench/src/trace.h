// The traced run's instruments, all outside the program: an in-memory span
// log written out at exit, a timing ChipSession decorator that wraps the
// session each trial body receives, and a timing Store decorator passed as
// RunnerConfig.store. None of them changes a simulated byte; the benchmark
// proves it by comparing traced and untraced artifacts and fingerprints.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bender/session.h"
#include "util/store.h"

namespace hbmrd::perfbench {

/// One span: a named interval of host time at a layer boundary. Per-call
/// bender time is summed into the enclosing span (`bender_s`) instead of
/// being stored as spans of its own, so the log stays bounded.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;  // index into the log; -1 = root
  std::uint64_t id = 0;      // round, trial or batch id
  double bender_s = 0.0;
};

/// Thread-safe append-only span log (campaign workers close spans from
/// their own threads).
class Tracer {
 public:
  /// Opens a span starting now; returns its index.
  std::int64_t open(std::string name, std::int64_t parent, std::uint64_t id);
  /// Closes span `index` now and returns its duration.
  double close(std::int64_t index, double bender_s = 0.0);
  /// Records a span whose interval was measured elsewhere.
  void record(Span span);

  /// Writes one JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Bender-layer time and calls seen through one TimedSession.
struct BenderTotals {
  std::uint64_t run_calls = 0;
  double run_s = 0.0;
  std::uint64_t checkpoint_calls = 0;
  std::uint64_t restore_calls = 0;
  double checkpoint_s = 0.0;  // checkpoint + restore + discard

  void add(const BenderTotals& other);
  [[nodiscard]] double total_s() const { return run_s + checkpoint_s; }
};

/// Forwards the whole ChipSession surface to `inner`, timing run() and the
/// checkpoint ladder. The study code increments the probe counters of the
/// session it is handed, so fold_probe_counters() must copy them back to
/// `inner` before the runner reads its per-trial deltas.
class TimedSession : public bender::ChipSession {
 public:
  explicit TimedSession(bender::ChipSession& inner) : inner_(inner) {}

  [[nodiscard]] const dram::ChipProfile& profile() const override {
    return inner_.profile();
  }
  bender::ExecutionResult run(const bender::Program& program) override;
  void idle(double seconds) override { inner_.idle(seconds); }
  [[nodiscard]] dram::Cycle now() const override { return inner_.now(); }
  [[nodiscard]] double temperature_c() override {
    return inner_.temperature_c();
  }
  [[nodiscard]] dram::Stack& stack() override { return inner_.stack(); }

  [[nodiscard]] bool supports_checkpoints() const override {
    return inner_.supports_checkpoints();
  }
  std::size_t checkpoint() override;
  void restore(std::size_t id) override;
  void discard_checkpoints() override;
  void begin_probe_accounting() override { inner_.begin_probe_accounting(); }
  void account_thermal_cycles(dram::Cycle cycles) override {
    inner_.account_thermal_cycles(cycles);
  }
  void end_probe_accounting() override { inner_.end_probe_accounting(); }
  [[nodiscard]] dram::Cycle act_backlog(const dram::BankAddress& bank)
      override {
    return inner_.act_backlog(bank);
  }

  void fold_probe_counters();
  [[nodiscard]] const BenderTotals& totals() const { return totals_; }

 private:
  bender::ChipSession& inner_;
  BenderTotals totals_;
};

/// Times every storage operation (store.io_s). All runner I/O happens on
/// the sequencer thread, so plain members suffice.
class TimedStore : public util::Store {
 public:
  explicit TimedStore(std::shared_ptr<util::Store> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<File> open(const std::string& path, bool truncate) override;
  std::optional<std::string> read(const std::string& path) override;
  void atomic_replace(const std::string& path,
                      std::string_view content) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  bool remove(const std::string& path) override;

  [[nodiscard]] double io_s() const { return io_s_; }

 private:
  class TimedFile;

  std::shared_ptr<util::Store> inner_;
  double io_s_ = 0.0;
};

}  // namespace hbmrd::perfbench
