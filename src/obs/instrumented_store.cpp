#include "obs/instrumented_store.h"

#include <stdexcept>

namespace hbmrd::obs {

namespace {

/// Every store.* counter, indexed by Op.
enum Op { kOpens, kReads, kAppends, kAppendBytes, kFsyncs, kReplaces,
          kTruncates, kRemoves };
constexpr const char* kNames[] = {
    "store.opens",  "store.reads",    "store.appends",   "store.append_bytes",
    "store.fsyncs", "store.replaces", "store.truncates", "store.removes"};

}  // namespace

class InstrumentedStore::InstrumentedFile : public util::Store::File {
 public:
  InstrumentedFile(std::unique_ptr<util::Store::File> inner,
                   MetricsRegistry* metrics)
      : inner_(std::move(inner)), metrics_(metrics) {}

  void append(std::string_view bytes) override {
    metrics_->add(kNames[kAppends], 1);
    metrics_->add(kNames[kAppendBytes], bytes.size());
    inner_->append(bytes);
  }

  void sync() override {
    metrics_->add(kNames[kFsyncs], 1);
    inner_->sync();
  }

 private:
  std::unique_ptr<util::Store::File> inner_;
  MetricsRegistry* metrics_;
};

InstrumentedStore::InstrumentedStore(std::shared_ptr<util::Store> inner,
                                     MetricsRegistry* metrics)
    : inner_(std::move(inner)), metrics_(metrics) {
  if (inner_ == nullptr || metrics_ == nullptr) {
    throw std::invalid_argument("InstrumentedStore: null inner/metrics");
  }
  // Every store.* counter exists from the start, so a snapshot carries the
  // whole set even when an operation never runs.
  for (const char* name : kNames) metrics_->add(name, 0);
}

std::unique_ptr<util::Store::File> InstrumentedStore::open(
    const std::string& path, bool truncate) {
  metrics_->add(kNames[kOpens], 1);
  return std::make_unique<InstrumentedFile>(inner_->open(path, truncate),
                                            metrics_);
}

std::optional<std::string> InstrumentedStore::read(const std::string& path) {
  metrics_->add(kNames[kReads], 1);
  return inner_->read(path);
}

void InstrumentedStore::atomic_replace(const std::string& path,
                                       std::string_view content) {
  metrics_->add(kNames[kReplaces], 1);
  inner_->atomic_replace(path, content);
}

void InstrumentedStore::truncate(const std::string& path,
                                 std::uint64_t size) {
  metrics_->add(kNames[kTruncates], 1);
  inner_->truncate(path, size);
}

bool InstrumentedStore::remove(const std::string& path) {
  metrics_->add(kNames[kRemoves], 1);
  return inner_->remove(path);
}

}  // namespace hbmrd::obs
