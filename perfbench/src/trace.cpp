#include "trace.h"

#include <cstdio>
#include <fstream>

#include "common.h"

namespace hbmrd::perfbench {

namespace {

/// Times `fn` into `*sink`, also when it throws.
template <typename Fn>
auto timed(double* sink, Fn&& fn) {
  struct Guard {
    double* sink;
    double t0;
    ~Guard() { *sink += now_s() - t0; }
  } guard{sink, now_s()};
  return fn();
}

}  // namespace

std::int64_t Tracer::open(std::string name, std::int64_t parent,
                          std::uint64_t id) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.id = id;
  span.start_s = now_s();
  const std::lock_guard lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

double Tracer::close(std::int64_t index, double bender_s) {
  const double end = now_s();
  const std::lock_guard lock(mu_);
  auto& span = spans_[static_cast<std::size_t>(index)];
  span.end_s = end;
  span.bender_s = bender_s;
  return end - span.start_s;
}

void Tracer::record(Span span) {
  const std::lock_guard lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"span\":%zu,\"name\":\"%s\",\"parent\":%lld,\"id\":%llu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f,\"bender_us\":%.3f}\n",
                  i, span.name.c_str(), static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.id),
                  (span.start_s - origin) * 1e6, (span.end_s - origin) * 1e6,
                  span.bender_s * 1e6);
    out << line;
  }
}

void BenderTotals::add(const BenderTotals& other) {
  run_calls += other.run_calls;
  run_s += other.run_s;
  checkpoint_calls += other.checkpoint_calls;
  restore_calls += other.restore_calls;
  checkpoint_s += other.checkpoint_s;
}

bender::ExecutionResult TimedSession::run(const bender::Program& program) {
  ++totals_.run_calls;
  return timed(&totals_.run_s, [&] { return inner_.run(program); });
}

std::size_t TimedSession::checkpoint() {
  ++totals_.checkpoint_calls;
  return timed(&totals_.checkpoint_s, [&] { return inner_.checkpoint(); });
}

void TimedSession::restore(std::size_t id) {
  ++totals_.restore_calls;
  timed(&totals_.checkpoint_s, [&] { inner_.restore(id); });
}

void TimedSession::discard_checkpoints() {
  timed(&totals_.checkpoint_s, [&] { inner_.discard_checkpoints(); });
}

void TimedSession::fold_probe_counters() {
  auto& mine = probe_counters();
  auto& theirs = inner_.probe_counters();
  theirs.hc_probes += mine.hc_probes;
  theirs.hammers_replayed += mine.hammers_replayed;
  theirs.hammers_saved += mine.hammers_saved;
  mine = {};
}

class TimedStore::TimedFile : public util::Store::File {
 public:
  TimedFile(std::unique_ptr<File> inner, double* io_s)
      : inner_(std::move(inner)), io_s_(io_s) {}

  void append(std::string_view bytes) override {
    timed(io_s_, [&] { inner_->append(bytes); });
  }
  void sync() override {
    timed(io_s_, [&] { inner_->sync(); });
  }

 private:
  std::unique_ptr<File> inner_;
  double* io_s_;
};

std::unique_ptr<util::Store::File> TimedStore::open(const std::string& path,
                                                    bool truncate) {
  auto file = timed(&io_s_, [&] { return inner_->open(path, truncate); });
  return std::make_unique<TimedFile>(std::move(file), &io_s_);
}

std::optional<std::string> TimedStore::read(const std::string& path) {
  return timed(&io_s_, [&] { return inner_->read(path); });
}

void TimedStore::atomic_replace(const std::string& path,
                                std::string_view content) {
  timed(&io_s_, [&] { inner_->atomic_replace(path, content); });
}

void TimedStore::truncate(const std::string& path, std::uint64_t size) {
  timed(&io_s_, [&] { inner_->truncate(path, size); });
}

bool TimedStore::remove(const std::string& path) {
  return timed(&io_s_, [&] { return inner_->remove(path); });
}

}  // namespace hbmrd::perfbench
