// serve_mixed: an in-process serve::BatchServer (2 threads, AF_UNIX) over an
// index exported during setup, driven by a single-threaded client on two
// connections.
//
//   phase A  closed loop, index-hit batches only: ops_per_s (serve_sat_qps)
//   phase B  open loop at a fixed offered rate (evenly spaced batches,
//            alternating connections), timed from each batch's due time:
//            index hits, a fixed number of fresh misses (each a fallback
//            simulation plus an overlay write) and repeats of earlier
//            misses that hit the overlay: op_p50_ms / op_tail_ms
//   replay   phase B's misses and repeats plus one of each distinct hit,
//            re-answered in process with QueryEngine::set_bypass_index(true);
//            every line must equal the server's: sim_acts_per_s
//
// The server, its fallback chips and the replay chip are built fresh every
// round, so caches and the overlay start empty.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <map>
#include <stdexcept>
#include <thread>

#include "bender/platform.h"
#include "common.h"
#include "dram/chip_profiles.h"
#include "obs/metrics.h"
#include "serve/export.h"
#include "serve/server.h"
#include "study/address_map.h"
#include "trace.h"
#include "util/rng.h"

namespace hbmrd::perfbench {

namespace {

constexpr int kChip = 1;
/// The index covers kIndexRows rows of kIndexBanks banks, one per channel
/// pair, under all four data patterns, so every seed mixes weak and strong
/// channels and cheap and costly patterns alike.
constexpr int kIndexBanks = 4;
constexpr int kIndexRows = 8;
constexpr int kPatterns = static_cast<int>(study::kAllPatterns.size());
/// Phase A batches are large, so a batch's round trip is mostly lookup work
/// rather than the socket wake-ups of client and server threads.
constexpr std::size_t kBatchesA = 600;
constexpr std::size_t kQueriesA = 1024;
constexpr std::size_t kDepthA = 2;  // phase A batches in flight per connection
constexpr std::size_t kBatchesB = 600;
/// Phase B batches are large enough that a hit batch's latency is mostly
/// lookup work rather than the server thread's wake-up.
constexpr std::size_t kQueriesB = 1024;
constexpr double kRateB = 800.0;        // offered batches per second
constexpr std::size_t kFreshMisses = 120;   // batches carrying a fresh miss
constexpr std::size_t kOverlayRepeats = 60; // batches repeating an old miss
/// A repeat names a miss at least this many batches older, so the miss has
/// been answered (and recorded in the overlay) long before: the serve.*
/// counters stay a pure function of the stream.
constexpr std::size_t kRepeatGap = 100;
constexpr int kConnections = 2;

/// One client connection: queued non-blocking frame writes, buffered frame
/// reads.
class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    // The server binds on its own thread: retry until it listens.
    const double deadline = now_s() + 10.0;
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket failed");
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (now_s() > deadline) {
        throw std::runtime_error("server did not listen on " + socket_path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Queues a frame and writes what the socket takes now; false when the
  /// server went away. The client never blocks on a write: a server thread
  /// blocked writing a response to it would never read the rest.
  [[nodiscard]] bool send(std::string_view payload) {
    char header[4];
    for (int i = 0; i < 4; ++i) {
      header[i] = static_cast<char>((payload.size() >> (8 * i)) & 0xFF);
    }
    out_.append(header, sizeof(header));
    out_.append(payload);
    return flush();
  }

  /// Writes queued bytes until the socket would block; false when the
  /// server went away.
  [[nodiscard]] bool flush() {
    while (out_sent_ < out_.size()) {
      const auto sent = ::send(fd_, out_.data() + out_sent_,
                               out_.size() - out_sent_,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (sent < 0) return errno == EAGAIN || errno == EINTR;
      out_sent_ += static_cast<std::size_t>(sent);
    }
    out_.clear();
    out_sent_ = 0;
    return true;
  }

  [[nodiscard]] bool writing() const { return out_sent_ < out_.size(); }

  /// Reads what is available and appends complete frames; false on EOF or
  /// error.
  [[nodiscard]] bool pump(std::vector<std::string>& frames) {
    char chunk[65536];
    const auto got = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got == 0) return false;
    if (got < 0) return errno == EAGAIN || errno == EINTR;
    buffer_.append(chunk, static_cast<std::size_t>(got));
    while (buffer_.size() >= 4) {
      std::uint32_t length = 0;
      for (int i = 0; i < 4; ++i) {
        length |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(buffer_[i]))
                  << (8 * i);
      }
      if (buffer_.size() < 4 + static_cast<std::size_t>(length)) break;
      frames.push_back(buffer_.substr(4, length));
      buffer_.erase(0, 4 + static_cast<std::size_t>(length));
    }
    return true;
  }

  /// Batches sent on this connection and not yet answered, oldest first.
  std::deque<std::size_t> in_flight;

 private:
  int fd_ = -1;
  std::string buffer_;
  std::string out_;
  std::size_t out_sent_ = 0;
};

/// Waits until one connection is readable or `timeout_ms` passes, writing
/// queued frames as the sockets take them; returns the readable connections'
/// indices, or -1 for a connection whose write failed. Phase B busy-polls
/// (timeout 0), so the client's own wake-ups add nothing to the latencies it
/// measures.
std::vector<int> wait_readable(std::vector<std::unique_ptr<Connection>>& conns,
                               int timeout_ms) {
  pollfd fds[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    const auto& conn = *conns[static_cast<std::size_t>(c)];
    fds[c] = {conn.fd(),
              static_cast<short>(POLLIN | (conn.writing() ? POLLOUT : 0)), 0};
  }
  std::vector<int> ready;
  if (::poll(fds, kConnections, timeout_ms) <= 0) return ready;
  for (int c = 0; c < kConnections; ++c) {
    if ((fds[c].revents & POLLOUT) != 0 &&
        !conns[static_cast<std::size_t>(c)]->flush()) {
      ready.push_back(-1);
    }
    if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ready.push_back(c);
    }
  }
  return ready;
}

std::size_t count_error_lines(const std::string& response) {
  std::size_t errors = response.rfind("error,", 0) == 0 ? 1 : 0;
  for (auto pos = response.find("\nerror,"); pos != std::string::npos;
       pos = response.find("\nerror,", pos + 1)) {
    ++errors;
  }
  return errors;
}

/// The lines of a response, without their '\n'.
std::vector<std::string_view> split_lines(std::string_view response) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < response.size()) {
    auto end = response.find('\n', start);
    if (end == std::string_view::npos) end = response.size();
    lines.push_back(response.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

class ServeMixed : public Workload {
 public:
  ServeMixed(std::uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {}

  void setup() override;
  Round run_round(const std::string& dir, Tracer* tracer,
                  bool metered) override;
  [[nodiscard]] const char* ops_label() const override {
    return "serve_sat_qps";
  }
  void finish_layers(const std::vector<Round>& untraced,
                     std::map<std::string, double>& layers) override;

 private:
  /// A distinct phase B request and where the stream sent it.
  struct Query {
    std::string line;  // request line, '\n'-terminated
    /// (batch, line within the batch) of every occurrence.
    std::vector<std::pair<std::size_t, std::size_t>> at;
  };

  [[nodiscard]] std::string where(int bank, int row, int pattern) const;
  [[nodiscard]] std::string hit_query(std::uint64_t stream,
                                      std::uint64_t i) const;
  [[nodiscard]] dram::ChipProfile profile() const {
    return dram::chip_profiles(dram::kDefaultPlatformSeed)[kChip];
  }
  /// Runs the batches in process (traced rounds): per-batch timings and
  /// the fallback layer's counters.
  void run_in_process(const std::vector<std::string>& responses_a,
                      const std::vector<std::string>& responses_b,
                      Tracer& tracer, std::int64_t parent, Round& round);

  std::uint64_t seed_;
  std::string work_dir_;
  std::optional<serve::Index> index_;
  std::array<dram::BankAddress, kIndexBanks> banks_{};
  std::array<int, kIndexRows> rows_{};
  std::vector<std::string> batches_a_;
  std::vector<std::string> batches_b_;
  std::vector<double> due_b_;  // offsets from phase B start, seconds
  std::vector<Query> replay_;
  std::uint64_t rounds_ = 0;
};

std::string ServeMixed::where(int bank, int row, int pattern) const {
  const auto& b = banks_[static_cast<std::size_t>(bank)];
  return std::to_string(b.channel) + " " + std::to_string(b.pseudo_channel) +
         " " + std::to_string(b.bank) + " " + std::to_string(row) + " " +
         study::to_string(
             study::kAllPatterns[static_cast<std::size_t>(pattern)]) +
         "\n";
}

std::string ServeMixed::hit_query(std::uint64_t stream,
                                  std::uint64_t i) const {
  const auto h = util::hash_key(seed_, stream, i);
  const auto point =
      where(static_cast<int>(h % kIndexBanks),
            rows_[static_cast<std::size_t>((h >> 8) % kIndexRows)],
            static_cast<int>((h >> 20) % kPatterns));
  return ((h >> 24) & 1) != 0 ? "hc_first " + point : "hc_nth 2 " + point;
}

void ServeMixed::setup() {
  const auto odd = static_cast<int>(util::hash_key(seed_, 30) & 1);
  for (int i = 0; i < kIndexBanks; ++i) {
    banks_[static_cast<std::size_t>(i)] = {
        2 * i + odd,
        static_cast<int>(util::hash_key(seed_, 31, i) % dram::kPseudoChannels),
        static_cast<int>(util::hash_key(seed_, 32, i) %
                         dram::kBanksPerPseudoChannel)};
  }
  // Rows cost the fallback more or less by where they sit in the bank, so
  // indexed rows and fresh misses are drawn one per equal slice of it.
  // Rows stay 64 away from the bank's edges.
  const auto row_in_slice = [this](int slice, int slices, std::uint64_t stream,
                                   std::uint64_t draw) {
    const int size = dram::kRowsPerBank / slices;
    const int lo = std::max(64, slice * size);
    const int hi = std::min(dram::kRowsPerBank - 64, (slice + 1) * size);
    return lo + static_cast<int>(util::hash_key(seed_, stream, slice, draw) %
                                 static_cast<std::uint64_t>(hi - lo));
  };
  for (int r = 0; r < kIndexRows; ++r) {
    rows_[static_cast<std::size_t>(r)] = row_in_slice(r, kIndexRows, 33, 0);
  }

  // Export and load the index, as a user would before serving.
  serve::ExportSpec spec;
  spec.chip_index = kChip;
  spec.hc_depth = 2;
  serve::IndexBuilder builder(serve::manifest_for(spec));
  {
    bender::HbmChip chip(profile());
    const auto map = study::AddressMap::from_scheme(chip.profile().mapping);
    serve::FallbackSession session(chip, map);
    serve::MeasureSpec measure;
    measure.banks.assign(banks_.begin(), banks_.end());
    measure.rows.assign(rows_.begin(), rows_.end());
    measure.patterns.assign(study::kAllPatterns.begin(),
                            study::kAllPatterns.end());
    serve::export_measured(builder, session, measure);
  }
  const auto path = work_dir_ + "/index.hbmidx";
  builder.write(*util::default_store(), path);
  index_.emplace(serve::Index::load(*util::default_store(), path));

  // Phase A: hit-only batches.
  batches_a_.assign(kBatchesA, {});
  for (std::size_t b = 0; b < kBatchesA; ++b) {
    for (std::size_t q = 0; q < kQueriesA; ++q) {
      batches_a_[b] += hit_query(40, b * kQueriesA + q);
    }
  }

  // Phase B: one batch every 1 / kRateB seconds. Hits, plus exactly
  // kFreshMisses fresh misses (unindexed rows, one per slice of the bank,
  // cycling through the banks and patterns) and kOverlayRepeats repeats of
  // misses at least kRepeatGap batches older, in seeded batches.
  batches_b_.assign(kBatchesB, {});
  due_b_.assign(kBatchesB, 0.0);
  std::vector<int> role(kBatchesB, 0);  // 1 fresh miss, 2 overlay repeat
  for (std::size_t k = 0; k < kFreshMisses; ++k) {
    // Fresh misses fall in the first part of the phase so every repeat
    // has an old enough miss to name.
    const auto span = kBatchesB - kRepeatGap - kOverlayRepeats;
    std::size_t b = util::hash_key(seed_, 43, k) % span;
    while (role[b] != 0) b = (b + 1) % span;
    role[b] = 1;
  }
  for (std::size_t k = 0; k < kOverlayRepeats; ++k) {
    // Repeats fall in [2 * kRepeatGap, kBatchesB).
    const auto span = kBatchesB - 2 * kRepeatGap;
    std::size_t b = util::hash_key(seed_, 47, k) % span;
    while (role[2 * kRepeatGap + b] != 0) b = (b + 1) % span;
    role[2 * kRepeatGap + b] = 2;
  }
  // The replay answers every distinct phase B request once (each fresh
  // miss, and the whole index), and its answer must equal the server's at
  // every occurrence: fallback, overlay and index answers alike.
  replay_.clear();
  std::map<std::string, std::size_t> replay_slot;
  std::vector<std::string> misses;
  std::vector<std::size_t> miss_batch;
  for (std::size_t b = 0; b < kBatchesB; ++b) {
    due_b_[b] = static_cast<double>(b) / kRateB;
    std::vector<std::string> lines;
    for (std::size_t q = 0; q < kQueriesB; ++q) {
      lines.push_back(hit_query(42, b * kQueriesB + q));
    }
    const auto slot = util::hash_key(seed_, 46, b) % kQueriesB;
    if (role[b] == 1) {
      const auto k = static_cast<int>(misses.size());
      int row = 0;
      for (std::uint64_t draw = 0;; ++draw) {
        row = row_in_slice(k, static_cast<int>(kFreshMisses), 44, draw);
        if (std::find(rows_.begin(), rows_.end(), row) == rows_.end()) break;
      }
      lines[slot] = "hc_first " + where(k % kIndexBanks, row,
                                        (k / kIndexBanks) % kPatterns);
      misses.push_back(lines[slot]);
      miss_batch.push_back(b);
    } else if (role[b] == 2) {
      std::size_t eligible = 0;
      while (eligible < misses.size() &&
             miss_batch[eligible] + kRepeatGap <= b) {
        ++eligible;
      }
      if (eligible == 0) {
        throw std::logic_error("serve_mixed: no miss old enough to repeat");
      }
      lines[slot] = misses[util::hash_key(seed_, 49, b) % eligible];
    }
    for (std::size_t q = 0; q < lines.size(); ++q) {
      batches_b_[b] += lines[q];
      const auto [it, fresh] = replay_slot.emplace(lines[q], replay_.size());
      if (fresh) replay_.push_back({lines[q], {}});
      replay_[it->second].at.emplace_back(b, q);
    }
  }
}

Round ServeMixed::run_round(const std::string& dir, Tracer* tracer,
                            bool metered) {
  const ScratchDir scratch(dir);
  const auto round_span =
      tracer != nullptr ? tracer->open("round", -1, rounds_) : -1;
  ++rounds_;
  Round round;

  std::atomic<bool> stop{false};
  serve::BatchServerOptions options;
  options.socket_path = scratch.file("serve.sock");
  options.threads = 2;
  options.poll_interval_ms = 5;
  options.should_stop = [&stop] { return stop.load(); };
  serve::BatchServer server(*index_, options);
  serve::BatchServerReport report;
  std::exception_ptr server_error;
  std::thread server_thread([&] {
    try {
      report = server.run();
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  // Always stop and join the server, also when the client throws.
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~Joiner() {
      stop = true;
      if (thread.joinable()) thread.join();
    }
  } joiner{stop, server_thread};

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(options.socket_path));
  }
  std::uint64_t dropped = 0;
  std::vector<std::string> frames;

  // -- Phase A: closed loop, kDepthA batches in flight per connection, so a
  // server thread finds its next batch waiting when it sends a response.
  std::vector<std::string> responses_a(kBatchesA);
  const auto span_a = tracer != nullptr
                          ? tracer->open("serve.phase_a", round_span, 0)
                          : -1;
  const double client_cpu0 = thread_cpu_s();
  const double a0 = now_s();
  std::size_t next = 0;
  std::size_t done = 0;
  for (std::size_t d = 0; d < kDepthA; ++d) {
    for (auto& conn : conns) {
      if (next < kBatchesA) {
        if (!conn->send(batches_a_[next])) ++dropped;
        conn->in_flight.push_back(next++);
      }
    }
  }
  while (done < kBatchesA && dropped == 0) {
    for (const int c : wait_readable(conns, 1000)) {
      if (c < 0) {
        ++dropped;
        break;
      }
      auto& conn = *conns[static_cast<std::size_t>(c)];
      frames.clear();
      if (!conn.pump(frames)) {
        ++dropped;
        break;
      }
      for (auto& frame : frames) {
        const auto b = conn.in_flight.front();
        conn.in_flight.pop_front();
        responses_a[b] = std::move(frame);
        ++done;
        if (next < kBatchesA) {
          if (!conn.send(batches_a_[next])) ++dropped;
          conn.in_flight.push_back(next++);
        }
      }
    }
  }
  const double phase_a_s = now_s() - a0;
  const auto done_a = done;
  if (tracer != nullptr) tracer->close(span_a);
  round.ops = static_cast<double>(done * kQueriesA);
  round.ops_s = phase_a_s;

  // -- Phase B: open loop; latency counts from each batch's due time.
  std::vector<std::string> responses_b(kBatchesB);
  round.op_ms.assign(kBatchesB, 0.0);
  std::vector<double> lag_ms;
  std::vector<std::size_t> backlog;  // batches in flight at each send
  const auto span_b = tracer != nullptr
                          ? tracer->open("serve.phase_b", round_span, 0)
                          : -1;
  const double b0 = now_s();
  next = 0;
  done = 0;
  while (done < kBatchesB && dropped == 0) {
    const double now = now_s();
    while (next < kBatchesB && b0 + due_b_[next] <= now) {
      auto* conn = conns[next % kConnections].get();
      backlog.push_back(conns[0]->in_flight.size() +
                        conns[1]->in_flight.size());
      lag_ms.push_back((now_s() - (b0 + due_b_[next])) * 1e3);
      if (!conn->send(batches_b_[next])) ++dropped;
      conn->in_flight.push_back(next++);
    }
    for (const int c : wait_readable(conns, 0)) {
      if (c < 0) {
        ++dropped;
        break;
      }
      auto& conn = *conns[static_cast<std::size_t>(c)];
      frames.clear();
      if (!conn.pump(frames)) {
        ++dropped;
        break;
      }
      const double received = now_s();
      for (auto& frame : frames) {
        const auto b = conn.in_flight.front();
        conn.in_flight.pop_front();
        round.op_ms[b] = (received - (b0 + due_b_[b])) * 1e3;
        if (tracer != nullptr) {
          tracer->record({"serve.batch", b0 + due_b_[b], received, span_b, b,
                          0.0});
        }
        responses_b[b] = std::move(frame);
        ++done;
      }
    }
  }
  const double phase_b_s = now_s() - b0;
  round.excluded_cpu_s += thread_cpu_s() - client_cpu0;
  if (tracer != nullptr) tracer->close(span_b);
  conns.clear();
  stop = true;
  server_thread.join();
  if (server_error) std::rethrow_exception(server_error);

  // -- Digest and error lines of the whole response stream.
  std::uint64_t error_lines = 0;
  {
    const ExcludedScope check(round);
    std::uint64_t h = digest("");
    for (const auto* responses : {&responses_a, &responses_b}) {
      for (const auto& response : *responses) {
        h = digest(response, digest("\x1e", h));
        error_lines += count_error_lines(response);
      }
    }
    round.digest = h;
  }

  // -- Replay: every distinct phase B request again, every one simulated.
  const auto span_r =
      tracer != nullptr ? tracer->open("serve.replay", round_span, 0) : -1;
  bender::HbmChip chip(profile());
  const auto map = study::AddressMap::from_scheme(chip.profile().mapping);
  serve::FallbackSession session(chip, map);
  serve::QueryEngine bypass(*index_);
  bypass.set_bypass_index(true);
  serve::QueryScratch query_scratch;
  serve::ServeCounters replay_counters;
  std::vector<std::string> replayed(replay_.size());
  const double r0 = now_s();
  for (std::size_t i = 0; i < replay_.size(); ++i) {
    const double t0 = now_s();
    bypass.run_batch(replay_[i].line, replayed[i], query_scratch, &session,
                     replay_counters);
    round.sim_ms.push_back((now_s() - t0) * 1e3);
    // One simulation per query: the counters since its power cycle.
    round.acts +=
        static_cast<double>(chip.stack().total_counters().activations);
  }
  round.acts_s = now_s() - r0;
  if (tracer != nullptr) tracer->close(span_r);
  std::uint64_t mismatches = 0;
  {
    const ExcludedScope check(round);
    std::vector<std::vector<std::string_view>> lines_b;
    lines_b.reserve(responses_b.size());
    for (const auto& response : responses_b) {
      lines_b.push_back(split_lines(response));
    }
    for (std::size_t i = 0; i < replay_.size(); ++i) {
      auto& response = replayed[i];
      if (!response.empty() && response.back() == '\n') response.pop_back();
      for (const auto& [batch, position] : replay_[i].at) {
        const auto& lines = lines_b[batch];
        if (position >= lines.size() || response != lines[position]) {
          ++mismatches;
        }
      }
    }
  }

  round.attempted = kBatchesA + kBatchesB + replay_.size();
  round.failed = dropped + error_lines + mismatches;
  if (mismatches > 0) {
    round.errors.push_back(std::to_string(mismatches) +
                           " bypass-index replay line(s) differ from the "
                           "server's");
  }
  if (report.counters.fallback_simulations == 0) {
    round.errors.push_back("phase B ran no fallback simulation");
  }

  const auto& counters = report.counters;
  if (metered) {
    obs::MetricsRegistry registry;
    registry.add("serve.batches", counters.batches);
    registry.add("serve.queries", counters.queries);
    registry.add("serve.hits", counters.hits);
    registry.add("serve.overlay_hits", counters.overlay_hits);
    registry.add("serve.misses", counters.misses);
    registry.add("serve.fallback_simulations", counters.fallback_simulations);
    registry.add("serve.errors", counters.errors);
    registry.add("serve.bytes_served", counters.bytes_served);
    round.fingerprint = registry.deterministic_fingerprint();
  }

  // Untraced rounds keep what the traced run's transport estimate needs: the
  // time a connection took per phase A batch.
  round.layers["serve.hit_batch_interval_us"] =
      done_a > 0 ? phase_a_s * kConnections / static_cast<double>(done_a) * 1e6
                 : 0.0;
  // Backlog growth: in flight over the last quarter of sends against the
  // first quarter.
  const auto quarter = backlog.size() / 4;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    early += static_cast<double>(backlog[i]);
    late += static_cast<double>(backlog[backlog.size() - 1 - i]);
  }
  round.layers["client.backlog_growth"] =
      quarter > 0 && late > 2.0 * early + 2.0 * static_cast<double>(quarter)
          ? 1.0
          : 0.0;
  round.layers["client.gen_lag_ms"] = tail_of(lag_ms).value;

  if (tracer != nullptr) {
    auto& layers = round.layers;
    layers["serve.batches"] = static_cast<double>(counters.batches);
    layers["serve.queries"] = static_cast<double>(counters.queries);
    layers["serve.hits"] = static_cast<double>(counters.hits);
    layers["serve.overlay_hits"] = static_cast<double>(counters.overlay_hits);
    layers["serve.misses"] = static_cast<double>(counters.misses);
    layers["serve.fallback_simulations"] =
        static_cast<double>(counters.fallback_simulations);
    layers["serve.errors"] = static_cast<double>(counters.errors);
    layers["serve.bytes_served"] = static_cast<double>(counters.bytes_served);
    const double t0 = now_s();
    run_in_process(responses_a, responses_b, *tracer, round_span, round);
    round.trace_only_s = now_s() - t0;
    layers["trace.covered_s"] = phase_a_s + phase_b_s + round.acts_s;
    tracer->close(round_span);
  }
  return round;
}

void ServeMixed::run_in_process(const std::vector<std::string>& responses_a,
                                const std::vector<std::string>& responses_b,
                                Tracer& tracer, std::int64_t parent,
                                Round& round) {
  bender::HbmChip chip(profile());
  const auto map = study::AddressMap::from_scheme(chip.profile().mapping);
  serve::FallbackSession session(chip, map);
  serve::QueryEngine engine(*index_);
  serve::QueryScratch scratch;
  std::string response;
  const auto cache0 = chip.threshold_cache_stats();

  std::vector<double> hit_us;
  for (std::size_t b = 0; b < batches_a_.size(); ++b) {
    serve::ServeCounters counters;
    response.clear();
    const auto span = tracer.open("serve.run_batch", parent, b);
    engine.run_batch(batches_a_[b], response, scratch, &session, counters);
    hit_us.push_back(tracer.close(span) * 1e6);
    if (response != responses_a[b]) {
      round.errors.push_back("in-process phase A batch " + std::to_string(b) +
                             " differs from the server's response");
    }
  }

  std::vector<double> miss_ms;
  double search_s = 0.0;
  dram::BankCounters device;
  for (std::size_t b = 0; b < batches_b_.size(); ++b) {
    serve::ServeCounters counters;
    response.clear();
    const auto span = tracer.open("serve.run_batch", parent, kBatchesA + b);
    engine.run_batch(batches_b_[b], response, scratch, &session, counters);
    const double seconds = tracer.close(span);
    if (counters.fallback_simulations > 0) {
      // One fresh miss per batch: the stack counters since its power cycle
      // are that simulation's.
      const auto sim = chip.stack().total_counters();
      device.activations += sim.activations;
      device.refresh_commands += sim.refresh_commands;
      device.bulk_hammer_windows += sim.bulk_hammer_windows;
      device.hammer_dedup_hits += sim.hammer_dedup_hits;
      device.bitflips_materialized += sim.bitflips_materialized;
      device.sense_word_ops += sim.sense_word_ops;
      device.sense_cells_visited += sim.sense_cells_visited;
      miss_ms.push_back(seconds * 1e3);
      search_s += seconds;
    }
    if (response != responses_b[b]) {
      round.errors.push_back("in-process phase B batch " + std::to_string(b) +
                             " differs from the server's response");
    }
  }

  auto& layers = round.layers;
  layers["serve.hit_batch_us"] = median(hit_us);
  layers["serve.miss_batch_ms"] = median(miss_ms);
  layers["study.search_calls"] = static_cast<double>(miss_ms.size());
  layers["study.search_s"] = search_s;
  const auto& probes = chip.probe_counters();
  layers["study.hc_probes"] = static_cast<double>(probes.hc_probes);
  layers["study.hammers_replayed"] =
      static_cast<double>(probes.hammers_replayed);
  layers["study.hammers_saved"] = static_cast<double>(probes.hammers_saved);
  const auto cache = chip.threshold_cache_stats();
  layers["cache.lookups"] =
      static_cast<double>(cache.lookups() - cache0.lookups());
  layers["cache.summary_hits"] =
      static_cast<double>(cache.summary_hits - cache0.summary_hits);
  layers["cache.summary_misses"] =
      static_cast<double>(cache.summary_misses - cache0.summary_misses);
  layers["cache.summary_evictions"] =
      static_cast<double>(cache.summary_evictions - cache0.summary_evictions);
  layers["device.acts"] = static_cast<double>(device.activations);
  layers["device.refs"] = static_cast<double>(device.refresh_commands);
  layers["device.hammer_windows"] =
      static_cast<double>(device.bulk_hammer_windows);
  layers["device.dedup_hits"] = static_cast<double>(device.hammer_dedup_hits);
  layers["device.bitflips"] = static_cast<double>(device.bitflips_materialized);
  layers["device.sense_word_ops"] = static_cast<double>(device.sense_word_ops);
  layers["device.sense_cells_visited"] =
      static_cast<double>(device.sense_cells_visited);
}

void ServeMixed::finish_layers(const std::vector<Round>& untraced,
                               std::map<std::string, double>& layers) {
  std::vector<double> interval;
  for (const auto& round : untraced) {
    interval.push_back(round.layers.at("serve.hit_batch_interval_us"));
  }
  layers["serve.transport_us"] =
      median(interval) - layers["serve.hit_batch_us"];
}

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed,
                                           const std::string& work_dir) {
  return std::make_unique<ServeMixed>(seed, work_dir);
}

}  // namespace hbmrd::perfbench
