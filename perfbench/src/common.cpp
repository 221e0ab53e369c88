#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hbmrd::perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t digest(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const auto mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(mid), xs.end());
  const double upper = xs[mid];
  if (xs.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(xs.begin(), xs.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

Tail tail_of(std::vector<double> xs) {
  Tail tail;
  tail.samples = xs.size();
  if (xs.size() <= 10) {
    // Too few samples for any percentile with ten beyond it: report the
    // maximum and say so through percentile 0.
    tail.value = xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
    return tail;
  }
  std::sort(xs.begin(), xs.end());
  tail.value = xs[xs.size() - 11];
  tail.percentile = 100.0 * (1.0 - 10.0 / static_cast<double>(xs.size()));
  return tail;
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::string ScratchDir::file(std::string_view name) const {
  return path_ + "/" + std::string(name);
}

}  // namespace hbmrd::perfbench
