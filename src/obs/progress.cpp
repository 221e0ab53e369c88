#include "obs/progress.h"

#include <cmath>
#include <cstdio>
#include <iostream>

#include "obs/trace.h"

namespace hbmrd::obs {

std::string format_duration_s(double seconds) {
  char buffer[32];
  if (!(seconds >= 0.0) || !std::isfinite(seconds)) return "?";
  if (seconds < 60.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1fs", seconds);
  } else if (seconds < 3600.0) {
    std::snprintf(buffer, sizeof(buffer), "%dm%02ds",
                  static_cast<int>(seconds) / 60,
                  static_cast<int>(seconds) % 60);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%dh%02dm",
                  static_cast<int>(seconds) / 3600,
                  (static_cast<int>(seconds) % 3600) / 60);
  }
  return buffer;
}

ProgressReporter::ProgressReporter() : ProgressReporter(Options()) {}

ProgressReporter::ProgressReporter(Options options)
    : options_(std::move(options)) {
  if (!options_.clock) options_.clock = monotonic_seconds;
}

void ProgressReporter::update(std::uint64_t done, std::uint64_t flips,
                              std::uint64_t retries) {
  const double now = options_.clock();
  if (!started_) {
    started_ = true;
    start_s_ = now;
    // The first update draws a line immediately: a campaign that takes
    // minutes per trial should not sit silent for min_interval_s.
    last_emit_s_ = now - options_.min_interval_s;
  }
  done_ = done;
  flips_ = flips;
  retries_ = retries;
  if (now - last_emit_s_ < options_.min_interval_s) return;
  last_emit_s_ = now;
  emit(false);
}

void ProgressReporter::finish() {
  if (finished_) return;
  finished_ = true;
  if (!started_) return;  // no update ever arrived: nothing to summarize
  emit(true);
}

void ProgressReporter::emit(bool final_line) {
  std::ostream& out = options_.out ? *options_.out : std::cerr;
  const double elapsed = options_.clock() - start_s_;
  std::string line = "progress: " + std::to_string(done_);
  if (total_ != 0) {
    line += '/';
    line += std::to_string(total_);
    line += " trials (";
    line += std::to_string(done_ * 100 / total_);
    line += "%)";
  } else {
    line += " trials";
  }
  line += " | flips " + std::to_string(flips_);
  line += " | retries " + std::to_string(retries_);
  if (elapsed > 0.0 && done_ > 0) {
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f",
                  static_cast<double>(done_) / elapsed);
    line += " | ";
    line += rate;
    line += " trials/s";
  }
  if (final_line) {
    line += " | done in " + format_duration_s(elapsed);
  } else if (total_ > done_ && done_ > 0 && elapsed > 0.0) {
    const double eta =
        elapsed / static_cast<double>(done_) *
        static_cast<double>(total_ - done_);
    line += " | eta " + format_duration_s(eta);
  }
  out << line << "\n";
  out.flush();
  ++lines_;
}

}  // namespace hbmrd::obs
