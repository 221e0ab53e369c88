#include "runner/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/checkpoint.h"
#include "runner/fsck.h"
#include "runner/merge.h"

namespace hbmrd::runner {

namespace {

/// Supervisor poll granularity (heartbeats, reaping, deadlines).
constexpr int kPollIntervalMs = 25;
/// Work stealing does not split a shard with fewer trials left than this.
constexpr std::uint64_t kStealMinRemaining = 4;

/// Blocks or unblocks (`how`) SIGTERM in this process; `saved` receives
/// the previous signal mask.
void mask_sigterm(int how, sigset_t* saved = nullptr) {
  sigset_t term;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  ::sigprocmask(how, &term, saved);
}

/// Supervisor-side state for one shard's worker process. The spec is the
/// authoritative partition entry; everything else is incarnation-local.
struct WorkerSlot {
  ShardSpec spec;

  ::pid_t pid = -1;
  int pipe_fd = -1;       // supervisor's (nonblocking) read end
  std::string carry;      // partial heartbeat line across reads
  bool running = false;
  bool kill_sent = false;      // watchdog SIGKILL already fired
  bool steal_pending = false;  // SIGTERMed to hand back half its range

  double last_beat_s = 0.0;        // monotonic; watchdog reference
  std::uint64_t progress = 0;      // heartbeat rows this incarnation
  std::uint64_t rows_at_spawn = 0; // committed rows when last spawned
  int failures = 0;                // consecutive failures without progress
  std::uint64_t spawn_count = 0;   // incarnations (worker-fault gate key)

  double respawn_at_s = -1.0;      // >= 0: respawn scheduled
};

/// The full orchestration state for one Supervisor::run() call.
class SupervisorRun {
 public:
  SupervisorRun(bender::HbmChip& chip, const RunnerConfig& campaign,
                const SupervisorConfig& config,
                const std::vector<CampaignRunner::Trial>& trials)
      : chip_(chip),
        campaign_(campaign),
        config_(config),
        trials_(trials),
        store_(campaign.store ? campaign.store : util::default_store()),
        disk_width_(campaign.result_columns.size() + 3) {}

  SupervisorReport run();

 private:
  // -- Partition.
  void adopt_or_partition();
  void write_index();

  // -- Worker lifecycle.
  void spawn(WorkerSlot& slot, bool resume);
  [[noreturn]] void child_main(const WorkerSlot& slot, int write_fd,
                               bool resume, std::uint64_t incarnation);
  void close_pipe(WorkerSlot& slot);

  // -- Event loop.
  void poll_pipes();
  void drain(WorkerSlot& slot);
  void handle_line(WorkerSlot& slot, std::string_view line);
  void reap();
  void handle_exit(WorkerSlot& slot, int status);
  void watchdog();
  void respawn_due();
  void process_spawn_queue();
  [[nodiscard]] bool settled() const;

  // -- Failure handling.
  void schedule_respawn(WorkerSlot& slot, bool backoff);
  void quarantine(WorkerSlot& slot);
  void fsck_shard(const WorkerSlot& slot);
  [[nodiscard]] std::uint64_t shard_rows(const ShardSpec& spec) const;

  // -- Work stealing.
  void maybe_steal();
  void split_shard(WorkerSlot& victim, std::uint64_t committed);

  // -- Teardown.
  void terminate_all();
  void finish(SupervisorReport& report);

  [[nodiscard]] std::string shard_csv_path(const ShardSpec& spec) const {
    return shard_artifact_path(campaign_.results_path, spec.id);
  }
  [[nodiscard]] std::string shard_journal_path(const ShardSpec& spec) const {
    return campaign_.journal_path.empty()
               ? std::string()
               : shard_artifact_path(campaign_.journal_path, spec.id);
  }

  bender::HbmChip& chip_;
  const RunnerConfig& campaign_;
  const SupervisorConfig& config_;
  const std::vector<CampaignRunner::Trial>& trials_;
  std::shared_ptr<Store> store_;
  std::size_t disk_width_;

  std::vector<WorkerSlot> workers_;
  std::vector<ShardSpec> spawn_queue_;  // stolen ranges awaiting a slot
  std::uint64_t next_shard_id_ = 0;
  bool stopped_ = false;  // supervisor itself asked to stop
  SupervisorReport report_;
};

void SupervisorRun::adopt_or_partition() {
  const auto trial_count = static_cast<std::uint64_t>(trials_.size());
  std::vector<ShardSpec> specs;

  if (campaign_.resume) {
    if (const auto text = store_->read(shard_index_path(campaign_.results_path))) {
      if (auto set = ShardSet::parse(*text);
          set && set->trial_count == trial_count &&
          set->tiling_error().empty()) {
        specs = set->shards;
        // An operator resume clears quarantine: the shard gets a fresh
        // failure budget (its store resumes from the commit watermark).
        for (auto& spec : specs) {
          if (spec.status == ShardSpec::Status::kQuarantined) {
            spec.status = ShardSpec::Status::kPending;
          }
        }
      }
    }
  }

  if (specs.empty() && trial_count > 0) {
    // Fresh contiguous partition; never more shards than trials.
    const auto n = std::min<std::uint64_t>(
        std::max<std::uint64_t>(config_.shards, 1), trial_count);
    const auto base = trial_count / n;
    const auto extra = trial_count % n;
    std::uint64_t lo = 0;
    for (std::uint64_t id = 0; id < n; ++id) {
      ShardSpec spec;
      spec.id = id;
      spec.lo = lo;
      spec.hi = lo + base + (id < extra ? 1 : 0);
      lo = spec.hi;
      specs.push_back(spec);
    }
  }

  for (auto& spec : specs) {
    next_shard_id_ = std::max(next_shard_id_, spec.id + 1);
    WorkerSlot slot;
    slot.spec = spec;
    workers_.push_back(std::move(slot));
  }
}

void SupervisorRun::write_index() {
  ShardSet set;
  set.trial_count = static_cast<std::uint64_t>(trials_.size());
  for (const auto& slot : workers_) set.shards.push_back(slot.spec);
  for (const auto& spec : spawn_queue_) set.shards.push_back(spec);
  store_->atomic_replace(shard_index_path(campaign_.results_path),
                         set.serialize());
}

void SupervisorRun::close_pipe(WorkerSlot& slot) {
  if (slot.pipe_fd >= 0) {
    ::close(slot.pipe_fd);
    slot.pipe_fd = -1;
  }
}

void SupervisorRun::spawn(WorkerSlot& slot, bool resume) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("supervisor: pipe() failed");
  }
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);

  const auto incarnation = slot.spawn_count;
  // Fork without exec: the child runs its shard on a copy of this
  // process. That is safe because the process is single-threaded here —
  // the only threads a campaign starts are the OrderedShardPool workers,
  // joined before CampaignRunner::run returns. Buffered output is flushed
  // first so the child cannot replay it into its shard log.
  std::fflush(nullptr);
  // SIGTERM stays blocked in the child until run_shard_worker has
  // installed the graceful-stop handler: a steal request that reaches a
  // worker before then stops it at a commit boundary instead of killing it.
  sigset_t saved;
  mask_sigterm(SIG_BLOCK, &saved);
  const auto pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    child_main(slot, fds[1], resume, incarnation);  // never returns
  }
  ::sigprocmask(SIG_SETMASK, &saved, nullptr);
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("supervisor: fork() failed");
  }
  ::close(fds[1]);

  slot.pid = pid;
  slot.pipe_fd = fds[0];
  slot.carry.clear();
  slot.running = true;
  slot.kill_sent = false;
  slot.steal_pending = false;
  slot.progress = 0;
  slot.rows_at_spawn = resume ? shard_rows(slot.spec) : 0;
  slot.last_beat_s = obs::monotonic_seconds();
  slot.respawn_at_s = -1.0;
  ++slot.spawn_count;
  ++report_.spawns;
}

void SupervisorRun::child_main(const WorkerSlot& slot, int write_fd,
                               bool resume, std::uint64_t incarnation) {
  // The child must not inherit a pending stop.
  reset_graceful_stop();
  // Worker stdout/stderr land in a per-shard log (appended across
  // incarnations) so crash output survives for the operator.
  const auto log_path = shard_csv_path(slot.spec) + ".log";
  const int log_fd =
      ::open(log_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (log_fd >= 0) {
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    if (log_fd > 2) ::close(log_fd);
  }
  RunnerConfig worker = campaign_;
  worker.results_path = shard_csv_path(slot.spec);
  worker.journal_path = shard_journal_path(slot.spec);
  worker.resume = resume;
  worker.shard = {true, slot.spec.lo, slot.spec.hi, write_fd, incarnation};
  const int code = run_shard_worker(chip_, std::move(worker), trials_);
  // _Exit: no atexit handlers or parent-owned destructors; the worker's
  // own log output is flushed first.
  std::fflush(nullptr);
  std::_Exit(code);
}

void SupervisorRun::poll_pipes() {
  std::vector<::pollfd> fds;
  std::vector<std::size_t> owners;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].running && workers_[i].pipe_fd >= 0) {
      fds.push_back({workers_[i].pipe_fd, POLLIN, 0});
      owners.push_back(i);
    }
  }
  const int ready = ::poll(fds.empty() ? nullptr : fds.data(),
                           static_cast<nfds_t>(fds.size()),
                           kPollIntervalMs);
  if (ready <= 0) return;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      drain(workers_[owners[i]]);
    }
  }
}

void SupervisorRun::drain(WorkerSlot& slot) {
  if (slot.pipe_fd < 0) return;
  char buf[512];
  for (;;) {
    const auto n = ::read(slot.pipe_fd, buf, sizeof(buf));
    if (n > 0) {
      slot.carry.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // 0 = EOF (writer gone; reap decides), <0 = EAGAIN/error
  }
  std::size_t pos;
  while ((pos = slot.carry.find('\n')) != std::string::npos) {
    handle_line(slot, std::string_view(slot.carry).substr(0, pos));
    slot.carry.erase(0, pos + 1);
  }
}

void SupervisorRun::handle_line(WorkerSlot& slot, std::string_view line) {
  if (line.empty()) return;
  ++report_.heartbeats;
  slot.last_beat_s = obs::monotonic_seconds();
  if (line[0] == 't') ++slot.progress;
}

void SupervisorRun::reap() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    auto& slot = workers_[i];
    if (!slot.running) continue;
    int status = 0;
    const auto r = ::waitpid(slot.pid, &status, WNOHANG);
    if (r != slot.pid) continue;
    drain(slot);  // final heartbeats flushed before the exit verdict
    close_pipe(slot);
    slot.running = false;
    slot.pid = -1;
    handle_exit(slot, status);
  }
}

void SupervisorRun::handle_exit(WorkerSlot& slot, int status) {
  const bool signaled = WIFSIGNALED(status);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  const auto rows = shard_rows(slot.spec);
  if (rows > slot.rows_at_spawn) slot.failures = 0;  // progress resets budget

  const bool clean_exit =
      !signaled && (code == shard_exit::kComplete ||
                    code == shard_exit::kStopped ||
                    code == shard_exit::kAborted);

  if (clean_exit && rows >= slot.spec.size()) {
    // Complete — regardless of the reported code (a graceful stop can race
    // the last commit). Verified again at merge time.
    slot.spec.status = ShardSpec::Status::kDone;
    slot.steal_pending = false;
    write_index();
    maybe_steal();
    return;
  }

  if (clean_exit && code == shard_exit::kStopped) {
    if (slot.steal_pending) {
      split_shard(slot, rows);
      return;
    }
    // Externally stopped (not by us): just continue the shard.
    schedule_respawn(slot, /*backoff=*/false);
    return;
  }

  if (clean_exit && code == shard_exit::kAborted) {
    // Fatal injected fault: the store is consistent; resume under a new
    // incarnation redraws the fatal schedule. Counts toward quarantine
    // only while the shard makes no progress.
    ++slot.failures;
    if (slot.failures > config_.max_restarts) {
      quarantine(slot);
      return;
    }
    schedule_respawn(slot, /*backoff=*/true);
    return;
  }

  // Crash: signal death (including our own watchdog SIGKILL), an error
  // exit, or a "complete" worker whose store disagrees.
  ++report_.crashes;
  ++slot.failures;
  if (slot.failures > config_.max_restarts) {
    quarantine(slot);
    return;
  }
  fsck_shard(slot);
  schedule_respawn(slot, /*backoff=*/true);
}

void SupervisorRun::watchdog() {
  const auto now_s = obs::monotonic_seconds();
  for (auto& slot : workers_) {
    if (!slot.running || slot.kill_sent) continue;
    if (now_s - slot.last_beat_s > config_.hang_timeout_s) {
      ::kill(slot.pid, SIGKILL);
      slot.kill_sent = true;
      ++report_.hangs_killed;
    }
  }
}

void SupervisorRun::respawn_due() {
  const auto now_s = obs::monotonic_seconds();
  for (auto& slot : workers_) {
    if (slot.running || slot.respawn_at_s < 0.0) continue;
    if (slot.spec.status != ShardSpec::Status::kPending) {
      slot.respawn_at_s = -1.0;
      continue;
    }
    if (now_s >= slot.respawn_at_s) {
      spawn(slot, /*resume=*/true);
    }
  }
}

void SupervisorRun::process_spawn_queue() {
  if (spawn_queue_.empty()) return;
  auto pending = std::move(spawn_queue_);
  spawn_queue_.clear();
  for (auto& spec : pending) {
    WorkerSlot slot;
    slot.spec = spec;
    workers_.push_back(std::move(slot));
    spawn(workers_.back(), /*resume=*/false);
  }
  write_index();
}

bool SupervisorRun::settled() const {
  if (!spawn_queue_.empty()) return false;
  for (const auto& slot : workers_) {
    if (slot.running) return false;
    if (slot.spec.status == ShardSpec::Status::kPending) return false;
  }
  return true;
}

void SupervisorRun::schedule_respawn(WorkerSlot& slot, bool backoff) {
  ++report_.restarts;
  double delay_s = 0.0;
  if (backoff) {
    delay_s = config_.restart_backoff.backoff_s(
        campaign_.faults.seed, slot.spec.id,
        std::min(std::max(slot.failures, 1), 16));
  }
  slot.respawn_at_s = obs::monotonic_seconds() + delay_s;
}

void SupervisorRun::quarantine(WorkerSlot& slot) {
  slot.spec.status = ShardSpec::Status::kQuarantined;
  slot.respawn_at_s = -1.0;
  ++report_.shards_quarantined;
  report_.quarantined_shards.push_back(
      "shard " + std::to_string(slot.spec.id) + " [" +
      std::to_string(slot.spec.lo) + ", " + std::to_string(slot.spec.hi) +
      ")");
  write_index();
}

void SupervisorRun::fsck_shard(const WorkerSlot& slot) {
  // Truncate the dead worker's partial store to what a resume would trust.
  // The worker's own recovery would converge to the same bytes; doing it
  // here surfaces repair counts to the supervisor report and guarantees
  // the respawned worker starts from a certified-clean watermark.
  FsckOptions options;
  options.results_path = shard_csv_path(slot.spec);
  options.journal_path = shard_journal_path(slot.spec);
  options.repair = true;
  options.store = store_;
  try {
    const auto report = campaign_fsck(options);
    if (report.repaired) ++report_.worker_fsck_repairs;
  } catch (...) {
    // An unreadable store is the respawned worker's (fresh-run) problem.
  }
}

std::uint64_t SupervisorRun::shard_rows(const ShardSpec& spec) const {
  try {
    const auto cp = load_checkpoint(*store_, shard_csv_path(spec),
                                    disk_width_);
    return static_cast<std::uint64_t>(cp.lines.size());
  } catch (...) {
    return 0;
  }
}

void SupervisorRun::maybe_steal() {
  if (stopped_) return;
  WorkerSlot* victim = nullptr;
  std::uint64_t best_remaining = 0;
  for (auto& slot : workers_) {
    if (!slot.running || slot.steal_pending || slot.kill_sent) continue;
    const auto done = std::min(slot.progress, slot.spec.size());
    const auto remaining = slot.spec.size() - done;
    if (remaining >= kStealMinRemaining && remaining > best_remaining) {
      best_remaining = remaining;
      victim = &slot;
    }
  }
  if (victim == nullptr) return;
  // Graceful stop: the victim checkpoint-flushes and exits kStopped; the
  // split happens at its actual commit watermark in handle_exit.
  victim->steal_pending = true;
  ::kill(victim->pid, SIGTERM);
}

void SupervisorRun::split_shard(WorkerSlot& victim, std::uint64_t committed) {
  victim.steal_pending = false;
  const auto watermark = victim.spec.lo + committed;
  const auto remaining =
      watermark < victim.spec.hi ? victim.spec.hi - watermark : 0;
  if (remaining < 2) {
    // Nothing worth splitting; just let the victim finish its tail.
    schedule_respawn(victim, /*backoff=*/false);
    return;
  }
  const auto mid = watermark + remaining / 2;
  ShardSpec stolen;
  stolen.id = next_shard_id_++;
  stolen.lo = mid;
  stolen.hi = victim.spec.hi;
  victim.spec.hi = mid;
  ++report_.shards_stolen;
  spawn_queue_.push_back(stolen);  // spawned (and indexed) after the reap
  schedule_respawn(victim, /*backoff=*/false);
}

void SupervisorRun::terminate_all() {
  for (auto& slot : workers_) {
    if (slot.running) ::kill(slot.pid, SIGTERM);
  }
  // Give graceful stops a bounded window, then SIGKILL the rest (a wedged
  // worker's stop flag is never polled).
  const auto deadline_s = obs::monotonic_seconds() +
                          std::min(config_.hang_timeout_s, 5.0);
  for (;;) {
    bool any_running = false;
    for (auto& slot : workers_) {
      if (!slot.running) continue;
      int status = 0;
      if (::waitpid(slot.pid, &status, WNOHANG) == slot.pid) {
        drain(slot);
        close_pipe(slot);
        slot.running = false;
        slot.pid = -1;
        continue;
      }
      any_running = true;
    }
    if (!any_running) break;
    if (obs::monotonic_seconds() >= deadline_s) {
      for (auto& slot : workers_) {
        if (slot.running) ::kill(slot.pid, SIGKILL);
      }
      for (auto& slot : workers_) {
        if (!slot.running) continue;
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        close_pipe(slot);
        slot.running = false;
        slot.pid = -1;
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void SupervisorRun::finish(SupervisorReport& report) {
  report.final_shards = static_cast<std::uint64_t>(workers_.size());

  if (stopped_) {
    report.campaign.aborted = true;
    report.campaign.abort_reason = "signal";
    return;
  }
  if (report.shards_quarantined != 0) {
    report.campaign.aborted = true;
    report.campaign.abort_reason = "shard-quarantined";
    return;
  }

  MergeOptions options;
  options.results_path = campaign_.results_path;
  options.journal_path = campaign_.journal_path;
  options.store = store_;
  const auto merged = merge_shards(options);
  if (!merged.ok) {
    report.campaign.aborted = true;
    report.campaign.abort_reason =
        merged.issues.empty()
            ? std::string("shard-merge-failed")
            : "shard-merge-failed: " + merged.issues.front().file + ": " +
                  merged.issues.front().what;
    return;
  }

  // Load the canonical rows back so the supervisor's CampaignReport reads
  // like the unsharded runner's.
  const auto cp = load_checkpoint(*store_, campaign_.results_path,
                                  disk_width_);
  for (const auto& line : cp.lines) {
    auto record = decode_checkpoint_row(line);
    if (record.status == TrialStatus::kQuarantined) {
      ++report.campaign.quarantined;
    } else {
      record.status = TrialStatus::kOk;
      ++report.campaign.completed;
    }
    report.campaign.records.push_back(std::move(record));
  }
}

SupervisorReport SupervisorRun::run() {
  report_.shards = config_.shards;

  adopt_or_partition();
  write_index();

  const bool resume_first = campaign_.resume;
  for (auto& slot : workers_) {
    if (slot.spec.status == ShardSpec::Status::kPending) {
      spawn(slot, resume_first);
    }
  }

  while (!settled()) {
    if (graceful_stop_requested()) {
      stopped_ = true;
      terminate_all();
      break;
    }
    poll_pipes();
    reap();
    process_spawn_queue();
    watchdog();
    respawn_due();
  }

  write_index();
  finish(report_);
  if (auto* metrics = campaign_.metrics) obs::add_counters(*metrics, report_);
  return report_;
}

}  // namespace

int run_shard_worker(bender::HbmChip& chip, RunnerConfig worker,
                     const std::vector<CampaignRunner::Trial>& trials) {
  // Observability sinks belong to the supervisor process: a worker writing
  // to the parent's registries would be lost anyway.
  worker.metrics = nullptr;
  worker.trace = nullptr;
  worker.progress = nullptr;

  install_graceful_stop();        // SIGTERM = checkpoint-flush and exit
  std::signal(SIGPIPE, SIG_IGN);  // dead supervisor mutes the heartbeat
  mask_sigterm(SIG_UNBLOCK);       // blocked across the supervisor's fork
  try {
    CampaignRunner runner(chip, std::move(worker));
    const auto report = runner.run(trials);
    if (!report.aborted) return shard_exit::kComplete;
    return report.abort_reason == "signal" ? shard_exit::kStopped
                                           : shard_exit::kAborted;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "shard worker: %s\n", error.what());
  } catch (...) {
  }
  return shard_exit::kError;
}

Supervisor::Supervisor(bender::HbmChip& chip, RunnerConfig campaign,
                       SupervisorConfig config)
    : chip_(chip),
      campaign_(std::move(campaign)),
      config_(std::move(config)) {}

SupervisorReport Supervisor::run(
    const std::vector<CampaignRunner::Trial>& trials) {
  if (campaign_.results_path.empty()) {
    throw std::invalid_argument(
        "supervisor: a sharded campaign needs a results_path (shard "
        "stores and the shard index derive from it)");
  }
  if (config_.shards == 0) {
    throw std::invalid_argument("supervisor: shards must be >= 1");
  }
  SupervisorRun state(chip_, campaign_, config_, trials);
  return state.run();
}

}  // namespace hbmrd::runner
