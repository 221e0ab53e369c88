#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "dram/chip_profiles.h"

namespace hbmrd::serve {

namespace {

/// recv exactly `n` bytes; false on EOF/error before they arrive.
bool read_exact(int fd, char* out, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const auto got = ::recv(fd, out + done, n - done, 0);
    if (got == 0) return false;
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const char* bytes, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const auto sent = ::send(fd, bytes + done, n - done, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: the peer went away
    }
    done += static_cast<std::size_t>(sent);
  }
  return true;
}

std::uint32_t decode_u32(const char* bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return v;
}

void encode_u32(char* bytes, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " +
                           std::strerror(errno));
}

int connect_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

bool read_frame(int fd, std::string& payload) {
  char header[4];
  if (!read_exact(fd, header, sizeof(header))) return false;
  const auto length = decode_u32(header);
  if (length > kMaxFrameBytes) return false;
  payload.resize(length);
  return length == 0 || read_exact(fd, payload.data(), length);
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  char header[4];
  encode_u32(header, static_cast<std::uint32_t>(payload.size()));
  return write_all(fd, header, sizeof(header)) &&
         write_all(fd, payload.data(), payload.size());
}

std::optional<std::string> query_over_socket(const std::string& socket_path,
                                             std::string_view request) {
  const int fd = connect_unix(socket_path);
  if (fd < 0) return std::nullopt;
  std::string response;
  const bool ok = write_frame(fd, request) && read_frame(fd, response);
  ::close(fd);
  if (!ok) return std::nullopt;
  return response;
}

/// Per-thread serving state: a private chip (simulations never contend),
/// address map, and parse scratch.
struct BatchServer::Worker {
  explicit Worker(const IndexManifest& manifest)
      : chip(dram::chip_profiles(
            manifest.platform_seed)[manifest.chip_index]),
        map(study::AddressMap::from_scheme(
            static_cast<dram::MappingScheme>(manifest.mapping_scheme))),
        fallback(chip, map) {}

  bender::HbmChip chip;
  study::AddressMap map;
  FallbackSession fallback;
  QueryScratch scratch;
  std::string request;
  std::string response;
  std::thread thread;
};

BatchServer::BatchServer(Index index, BatchServerOptions options)
    : options_(std::move(options)) {
  if (options_.socket_path.empty()) {
    throw std::invalid_argument("serve: socket path required");
  }
  if (options_.threads < 1 || options_.threads > 256) {
    throw std::invalid_argument("serve: threads must be in [1, 256]");
  }
  // Copied, not referenced: `index` is moved into the engine below.
  const auto manifest = index.manifest();
  if (manifest.chip_index >= dram::kChipCount) {
    throw IndexError("serve: index manifest names chip " +
                     std::to_string(manifest.chip_index) +
                     ", this binary models " +
                     std::to_string(dram::kChipCount) + " chips");
  }
  const auto profile =
      dram::chip_profiles(manifest.platform_seed)[manifest.chip_index];
  if (static_cast<std::uint32_t>(profile.mapping) !=
      manifest.mapping_scheme) {
    throw IndexError(
        "serve: index manifest mapping scheme disagrees with the " +
        profile.label + " profile: refusing to serve");
  }
  engine_ = std::make_unique<QueryEngine>(std::move(index));
  engine_->set_bypass_index(options_.bypass_index);
  for (int i = 0; i < options_.threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(manifest));
  }
}

BatchServer::~BatchServer() = default;

BatchServerReport BatchServer::run() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("serve: socket path longer than " +
                                std::to_string(sizeof(addr.sun_path) - 1) +
                                " bytes: " + options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) fail("socket");
  ::unlink(options_.socket_path.c_str());  // a stale socket from a kill
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd);
    errno = err;
    fail("bind " + options_.socket_path);
  }
  if (::listen(listen_fd, 64) != 0) {
    const int err = errno;
    ::close(listen_fd);
    errno = err;
    fail("listen " + options_.socket_path);
  }
  if (options_.log != nullptr) {
    *options_.log << "serve: listening on " << options_.socket_path
                  << " (" << options_.threads << " thread(s), "
                  << engine_->index().populations().size()
                  << " population(s))" << std::endl;
  }

  const auto stop = [this] {
    return options_.should_stop && options_.should_stop();
  };

  BatchServerReport report;
  std::mutex accept_mutex;
  std::mutex fold_mutex;

  const auto poll_readable = [&](int fd) {
    pollfd pfd{fd, POLLIN, 0};
    return ::poll(&pfd, 1, options_.poll_interval_ms) > 0 &&
           (pfd.revents & POLLIN) != 0;
  };

  const auto serve_connection = [&](Worker& worker, int fd) {
    while (true) {
      // Drain: after a stop request, finish the frame in flight (the
      // poll that already signalled readable) but take no new one.
      if (!poll_readable(fd)) {
        if (stop()) break;
        continue;
      }
      if (!read_frame(fd, worker.request)) break;
      worker.response.clear();
      ServeCounters batch;
      engine_->run_batch(worker.request, worker.response, worker.scratch,
                         &worker.fallback, batch);
      {
        const std::lock_guard<std::mutex> lock(fold_mutex);
        util::fold_counters(report.counters, batch);
      }
      if (!write_frame(fd, worker.response)) break;
      if (stop()) break;
    }
    ::close(fd);
  };

  const auto worker_loop = [&](Worker& worker) {
    while (!stop()) {
      int fd = -1;
      {
        const std::lock_guard<std::mutex> lock(accept_mutex);
        if (stop()) break;
        if (!poll_readable(listen_fd)) continue;
        fd = ::accept(listen_fd, nullptr, nullptr);
      }
      if (fd < 0) continue;
      {
        const std::lock_guard<std::mutex> lock(fold_mutex);
        ++report.connections;
      }
      serve_connection(worker, fd);
    }
  };

  for (auto& worker : workers_) {
    worker->thread = std::thread(worker_loop, std::ref(*worker));
  }
  for (auto& worker : workers_) worker->thread.join();

  ::close(listen_fd);
  ::unlink(options_.socket_path.c_str());
  if (options_.log != nullptr) {
    *options_.log << "serve: drained (" << report.counters.batches
                  << " batch(es), " << report.counters.queries
                  << " query(ies))" << std::endl;
  }
  return report;
}

}  // namespace hbmrd::serve
