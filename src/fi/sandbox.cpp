#include "fi/sandbox.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "telemetry/events.h"
#include "util/retry.h"

#if defined(__unix__) || defined(__APPLE__)
#define FTB_SANDBOX_POSIX 1
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#include <sys/syscall.h>
#endif
#else
#define FTB_SANDBOX_POSIX 0
#endif

namespace ftb::fi {

#if FTB_SANDBOX_POSIX

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ExperimentResult isolation_result(Outcome outcome, CrashReason reason) {
  ExperimentResult result;
  result.outcome = outcome;
  result.crash_reason = reason;
  result.injected_error = kInf;
  result.output_error = kInf;
  result.crash_site = 0;
  return result;
}

/// Reaps `pid`, which has been asked to exit: waits on its pidfd (or, where
/// there is none, polls every 50 us) until `deadline`, then SIGKILLs it.
void reap_before(pid_t pid, std::chrono::steady_clock::time_point deadline) {
#if defined(SYS_pidfd_open)
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  const int pidfd = -1;
#endif
  int status = 0;
  for (;;) {
    if (::waitpid(pid, &status, WNOHANG) == pid) break;
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero()) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    if (pidfd >= 0) {
      pollfd exited{pidfd, POLLIN, 0};
      ::poll(&exited, 1,
             static_cast<int>(
                 std::chrono::ceil<std::chrono::milliseconds>(left).count()));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  if (pidfd >= 0) ::close(pidfd);
}

// Plain-old-data mirror of ExperimentResult living in the shared block.
struct ResultSlot {
  std::uint8_t outcome = 0;
  std::uint8_t crash_reason = 0;
  std::uint8_t detector_fired = 0;
  double injected_error = 0.0;
  double output_error = 0.0;
  std::uint64_t crash_site = 0;
};

// Progress header.  `started` holds 1 + the index of the experiment the
// child is currently executing; `done` the count of completed experiments.
// Both are absolute over the whole batch.  Lock-free atomics are required
// for cross-process progress reads; binary64 platforms all satisfy this.
struct ShmHeader {
  std::atomic<std::uint64_t> started;
  std::atomic<std::uint64_t> done;
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "sandbox progress counters must be lock-free");

struct SharedBlock {
  ShmHeader* header = nullptr;
  ResultSlot* slots = nullptr;
  void* base = nullptr;
  std::size_t bytes = 0;

  bool map(std::size_t count) {
    bytes = sizeof(ShmHeader) + count * sizeof(ResultSlot);
    base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
      base = nullptr;
      return false;
    }
    header = new (base) ShmHeader{};
    slots = reinterpret_cast<ResultSlot*>(static_cast<char*>(base) +
                                          sizeof(ShmHeader));
    return true;
  }

  ~SharedBlock() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};

void encode_slot(ResultSlot& slot, const ExperimentResult& result) {
  slot.outcome = static_cast<std::uint8_t>(result.outcome);
  slot.crash_reason = static_cast<std::uint8_t>(result.crash_reason);
  slot.detector_fired = result.detector_fired ? 1 : 0;
  slot.injected_error = result.injected_error;
  slot.output_error = result.output_error;
  slot.crash_site = result.crash_site;
}

ExperimentResult decode_slot(const ResultSlot& slot) {
  ExperimentResult result;
  result.outcome = static_cast<Outcome>(slot.outcome);
  result.crash_reason = static_cast<CrashReason>(slot.crash_reason);
  result.detector_fired = slot.detector_fired != 0;
  result.injected_error = slot.injected_error;
  result.output_error = slot.output_error;
  result.crash_site = slot.crash_site;
  return result;
}

CrashReason crash_reason_from_signal(int sig) noexcept {
  switch (sig) {
    case SIGSEGV:
      return CrashReason::kSigSegv;
    case SIGFPE:
      return CrashReason::kSigFpe;
    case SIGABRT:
      return CrashReason::kSigAbrt;
    case SIGBUS:
      return CrashReason::kSigBus;
    case SIGILL:
      return CrashReason::kSigIll;
    default:
      return CrashReason::kOtherSignal;
  }
}

/// Child body: run experiments [next, count) sequentially, publishing each
/// result before advancing.  Never returns.
[[noreturn]] void child_run(const Program& program, const GoldenRun& golden,
                            std::span<const Injection> injections,
                            SharedBlock& block, std::size_t next) {
  for (std::size_t i = next; i < injections.size(); ++i) {
    block.header->started.store(i + 1, std::memory_order_release);
    try {
      const ExperimentResult result =
          run_injected(program, golden, injections[i]);
      encode_slot(block.slots[i], result);
    } catch (...) {
      // An exception other than the handled CrashSignal (e.g. bad_alloc
      // from a corrupted allocation size): die loudly, the parent converts
      // this into a kAbnormalExit crash for experiment i.
      ::_exit(2);
    }
    block.header->done.store(i + 1, std::memory_order_release);
  }
  ::_exit(0);
}

enum class ChildEnd { kFinished, kKilledBySignal, kTimedOut, kExitedNonZero };

struct ChildOutcome {
  ChildEnd end = ChildEnd::kFinished;
  int signal = 0;
  std::uint64_t started = 0;  // header snapshot after death
  std::uint64_t done = 0;
};

/// Supervises one child until it exits, is killed by a fault, or trips the
/// watchdog.  Progress is "the child started or finished an experiment".
ChildOutcome supervise(pid_t pid, const SharedBlock& block,
                       std::size_t batch_size, const SandboxOptions& options) {
  using Clock = std::chrono::steady_clock;
  auto last_progress = Clock::now();
  std::uint64_t last_seen =
      block.header->started.load(std::memory_order_acquire) +
      block.header->done.load(std::memory_order_acquire);

  ChildOutcome outcome;
  for (;;) {
    int status = 0;
    const pid_t waited = ::waitpid(pid, &status, WNOHANG);
    if (waited == pid) {
      outcome.started = block.header->started.load(std::memory_order_acquire);
      outcome.done = block.header->done.load(std::memory_order_acquire);
      if (WIFSIGNALED(status)) {
        outcome.end = ChildEnd::kKilledBySignal;
        outcome.signal = WTERMSIG(status);
      } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        outcome.end = ChildEnd::kExitedNonZero;
      } else {
        outcome.end = ChildEnd::kFinished;
      }
      return outcome;
    }

    const std::uint64_t done =
        block.header->done.load(std::memory_order_acquire);
    const std::uint64_t seen =
        block.header->started.load(std::memory_order_acquire) + done;
    if (seen != last_seen) {
      last_seen = seen;
      last_progress = Clock::now();
    }
    if (done >= batch_size) {
      // All results published; let the child finish exiting.
      ::waitpid(pid, &status, 0);
      outcome.started = block.header->started.load(std::memory_order_acquire);
      outcome.done = done;
      outcome.end = ChildEnd::kFinished;
      return outcome;
    }
    if (options.timeout_ms != 0 &&
        Clock::now() - last_progress >
            std::chrono::milliseconds(options.timeout_ms)) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      outcome.started = block.header->started.load(std::memory_order_acquire);
      outcome.done = block.header->done.load(std::memory_order_acquire);
      // The child may have died on its own between the WNOHANG poll and the
      // SIGKILL; the reaped status then carries the real cause.  Believing
      // it keeps a signal death from being misfiled as a watchdog kill (and
      // double-counted in watchdog_kills), and a child that slipped in a
      // clean exit -- possibly having published everything -- from being
      // blamed for a hang it never had.
      if (WIFSIGNALED(status) && WTERMSIG(status) != SIGKILL) {
        outcome.end = ChildEnd::kKilledBySignal;
        outcome.signal = WTERMSIG(status);
      } else if (WIFEXITED(status)) {
        outcome.end = WEXITSTATUS(status) != 0 ? ChildEnd::kExitedNonZero
                                               : ChildEnd::kFinished;
      } else {
        outcome.end = ChildEnd::kTimedOut;
      }
      return outcome;
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(options.poll_interval_us));
  }
}

}  // namespace

bool sandbox_supported() noexcept { return true; }

std::vector<ExperimentResult> run_injected_sandboxed(
    const Program& program, const GoldenRun& golden,
    std::span<const Injection> injections, const SandboxOptions& options,
    SandboxStats* stats) {
  SandboxStats local_stats;
  SandboxStats& s = stats != nullptr ? *stats : local_stats;
  s = SandboxStats{};

  std::vector<ExperimentResult> results(injections.size());
  if (injections.empty()) return results;

  const std::size_t count = injections.size();
  SharedBlock block;

  // The shared block and each fork are retried with jittered exponential
  // backoff (util/retry.h); both fail only under transient resource
  // pressure.
  util::RetryOptions retry_options;
  retry_options.max_retries = options.max_spawn_retries;
  retry_options.initial_backoff_ms = options.retry_backoff_ms;
  auto with_retries = [&](const std::function<bool()>& attempt) -> bool {
    util::RetryStats retry_stats;
    const bool ok = util::retry_with_backoff(retry_options, attempt,
                                             &retry_stats);
    if (retry_stats.attempts > 1) {
      s.spawn_retries += static_cast<std::uint64_t>(retry_stats.attempts - 1);
    }
    return ok;
  };

  auto fallback_from = [&](std::size_t next) {
    if (!options.allow_in_process_fallback) {
      throw std::runtime_error(
          "sandbox: could not isolate experiments and in-process fallback "
          "is disabled");
    }
    for (std::size_t i = next; i < count; ++i) {
      results[i] = run_injected(program, golden, injections[i]);
      ++s.fallback_experiments;
    }
  };

  if (!with_retries([&] { return block.map(count); })) {
    fallback_from(0);
    return results;
  }

  std::size_t next = 0;
  while (next < count) {
    block.header->started.store(next, std::memory_order_release);
    block.header->done.store(next, std::memory_order_release);

    pid_t pid = -1;
    const bool spawned = with_retries([&] {
      pid = ::fork();
      return pid >= 0;
    });
    if (!spawned) {
      fallback_from(next);
      return results;
    }
    if (pid == 0) {
      child_run(program, golden, injections, block, next);  // never returns
    }
    ++s.children_spawned;

    const ChildOutcome child = supervise(pid, block, count, options);

    // Results completed by this child are valid regardless of how it died.
    for (std::size_t i = next; i < child.done && i < count; ++i) {
      results[i] = decode_slot(block.slots[i]);
    }
    next = child.done;

    if (child.end == ChildEnd::kFinished) {
      if (child.done >= count) break;
      // Exited cleanly mid-batch: should not happen; treat the next
      // experiment as the culprit so the loop always makes progress.
      results[next] = isolation_result(Outcome::kCrash,
                                       CrashReason::kAbnormalExit);
      ++s.abnormal_exits;
      ++next;
      continue;
    }

    // Abnormal death.  The culprit is the experiment the child had started
    // but not finished; if it died *between* experiments (started == done),
    // the environment -- not an experiment -- is at fault.
    const bool has_culprit = child.started > child.done;
    if (!has_culprit) {
      fallback_from(next);
      return results;
    }
    const std::size_t culprit = static_cast<std::size_t>(child.started - 1);
    switch (child.end) {
      case ChildEnd::kTimedOut:
        results[culprit] =
            isolation_result(Outcome::kHang, CrashReason::kNone);
        ++s.watchdog_kills;
        break;
      case ChildEnd::kKilledBySignal:
        results[culprit] = isolation_result(
            Outcome::kCrash, crash_reason_from_signal(child.signal));
        ++s.signal_deaths;
        break;
      case ChildEnd::kExitedNonZero:
      case ChildEnd::kFinished:  // unreachable here
        results[culprit] =
            isolation_result(Outcome::kCrash, CrashReason::kAbnormalExit);
        ++s.abnormal_exits;
        break;
    }
    next = culprit + 1;
  }
  return results;
}

// ---------------------------------------------------------------------------
// WorkerPool (POSIX implementation)
// ---------------------------------------------------------------------------

namespace {

static_assert(std::is_trivially_copyable_v<Injection>,
              "injections are copied byte-wise into shared memory");

/// Written by the parent to a worker's command pipe to ask it to exit (EOF
/// works too; the sentinel exists so shutdown() can be explicit even while
/// other fds alias the pipe).
constexpr std::uint32_t kShutdownCommand = 0xffffffffu;

/// Per-worker shared region header.  `heartbeat` is a monotonic liveness
/// counter (bumped at chunk pickup and every experiment start/finish);
/// `started`/`done` are chunk-relative progress counters with the same
/// semantics as the per-batch ShmHeader.
struct PoolShmHeader {
  std::atomic<std::uint64_t> heartbeat;
  std::atomic<std::uint64_t> started;
  std::atomic<std::uint64_t> done;
};

/// One worker's shared mapping: header + injection slots + result slots.
/// Mapped once per pool slot and reused across respawns (a fresh fork of
/// the parent inherits the same MAP_SHARED pages).
struct PoolShm {
  PoolShmHeader* header = nullptr;
  Injection* injections = nullptr;
  ResultSlot* slots = nullptr;
  void* base = nullptr;
  std::size_t bytes = 0;

  PoolShm() = default;
  PoolShm(const PoolShm&) = delete;
  PoolShm& operator=(const PoolShm&) = delete;

  bool map(std::size_t capacity) {
    bytes = sizeof(PoolShmHeader) + capacity * sizeof(Injection) +
            capacity * sizeof(ResultSlot);
    base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
      base = nullptr;
      return false;
    }
    header = new (base) PoolShmHeader{};
    injections = reinterpret_cast<Injection*>(static_cast<char*>(base) +
                                              sizeof(PoolShmHeader));
    slots = reinterpret_cast<ResultSlot*>(injections + capacity);
    return true;
  }

  ~PoolShm() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};

/// read() the full buffer, retrying on EINTR.  False on EOF or error.
bool read_full(int fd, void* buffer, std::size_t bytes) {
  char* out = static_cast<char*>(buffer);
  while (bytes > 0) {
    const ssize_t got = ::read(fd, out, bytes);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    out += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

/// write() the full buffer with SIGPIPE suppressed (a worker that died
/// holding the read end must not kill the supervisor).  False on error.
bool write_full_nosigpipe(int fd, const void* buffer, std::size_t bytes) {
  struct sigaction ignore {};
  struct sigaction saved {};
  ignore.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore, &saved);
  const char* in = static_cast<const char*>(buffer);
  bool ok = true;
  while (bytes > 0) {
    const ssize_t put = ::write(fd, in, bytes);
    if (put < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    in += put;
    bytes -= static_cast<std::size_t>(put);
  }
  ::sigaction(SIGPIPE, &saved, nullptr);
  return ok;
}

/// Worker body: block on the command pipe, run the announced chunk out of
/// shared memory, signal its end with one byte on `wake_fd`, repeat.  Exits
/// 0 on EOF/shutdown, 2 on an unexpected exception (the parent classifies
/// that as kAbnormalExit).  Never returns.
[[noreturn]] void pool_worker_main(const Program& program,
                                   const GoldenRun& golden, PoolShm& shm,
                                   int command_fd, int wake_fd,
                                   std::size_t slot,
                                   const WorkerPoolOptions& options) {
#if defined(__linux__)
  // Die with the supervisor: a SIGKILLed campaign must not leak workers
  // spinning on hazard experiments.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(0);  // parent already gone before prctl
#endif
  const std::size_t capacity = options.chunk_capacity;
  // Snapshot mode: each worker owns a private fork-server tree so chunks
  // are served from copy-on-write checkpoints instead of replayed from
  // instruction 0.  Results stay bit-identical (the tree classifies via
  // classify_finished/classify_crash and falls back to run_injected when
  // degraded), so the parent-side protocol is untouched.
  std::unique_ptr<SnapshotServer> server;
  if (options.use_snapshots && snapshot_safe(program)) {
    server = std::make_unique<SnapshotServer>(program, golden,
                                              options.snapshot);
  }
  const auto clean_exit = [&server] {
    server.reset();  // reap the runner: no zombies charged to this worker
    ::_exit(0);
  };
  for (;;) {
    std::uint32_t count = 0;
    if (!read_full(command_fd, &count, sizeof(count))) clean_exit();
    if (count == kShutdownCommand || count == 0 || count > capacity) {
      clean_exit();
    }
    shm.header->heartbeat.fetch_add(1, std::memory_order_release);
    for (std::uint32_t i = 0; i < count; ++i) {
      shm.header->started.store(i + 1, std::memory_order_release);
      shm.header->heartbeat.fetch_add(1, std::memory_order_release);
      try {
        const ExperimentResult result =
            server != nullptr ? server->run(shm.injections[i])
            : options.run_experiment
                ? options.run_experiment(shm.injections[i], slot)
                : run_injected(program, golden, shm.injections[i]);
        encode_slot(shm.slots[i], result);
      } catch (...) {
        ::_exit(2);
      }
      shm.header->done.store(i + 1, std::memory_order_release);
      shm.header->heartbeat.fetch_add(1, std::memory_order_release);
    }
    // The final done-store above is the worker's last shared write before
    // it blocks on read() again, so once the parent has observed
    // done == count it may safely reset the counters and write the next
    // chunk's injections.  The wake byte only cuts the parent's wait
    // short; the pipe is non-blocking, and a full one already holds a
    // wake-up, so a failed write loses nothing.
    const char wake = 1;
    (void)!::write(wake_fd, &wake, 1);
  }
}

}  // namespace

struct WorkerPool::Impl {
  struct Slot {
    // Atomic because worker_pid() is documented safe to call from other
    // threads (tests kill/stop workers externally mid-campaign) while the
    // supervisor thread respawns slots.  pid == -1 <=> slot not live.
    std::atomic<pid_t> pid{-1};
    int command_write = -1;  // parent's write end of the command pipe
    PoolShm shm;
    bool live = false;
    bool abandoned = false;  // respawn failed terminally; never retried
    bool busy = false;
    std::uint32_t chunk_count = 0;
    std::uint64_t last_heartbeat = 0;
    std::chrono::steady_clock::time_point last_beat_time;
    // Telemetry timestamps (Clock-driven, 0 when telemetry is off).
    std::uint64_t dispatch_ns = 0;
    std::uint64_t last_beat_tele_ns = 0;
  };

  const Program& program;
  const GoldenRun& golden;
  WorkerPoolOptions options;
  WorkerPoolStats stats;
  std::vector<Slot> slots;
  bool exiting = false;  // request_exit() ran: no dispatch, no respawn
  bool shut_down = false;
  // Pool-wide chunk-end signal: workers write, wait() reads.  Both ends are
  // non-blocking.
  int wake_read = -1;
  int wake_write = -1;

  Impl(const Program& program_in, const GoldenRun& golden_in,
       WorkerPoolOptions options_in)
      : program(program_in),
        golden(golden_in),
        options(std::move(options_in)) {
    if (options.workers < 0) options.workers = 0;
    if (options.chunk_capacity == 0) options.chunk_capacity = 1;
    int wake[2];
    if (::pipe(wake) == 0) {
      for (const int fd : wake) {
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      }
      wake_read = wake[0];
      wake_write = wake[1];
    }
    slots = std::vector<Slot>(static_cast<std::size_t>(options.workers));
    for (Slot& slot : slots) {
      if (!spawn(slot, /*is_respawn=*/false)) {
        slot.abandoned = true;
        ++stats.shrinks;
      }
    }
  }

  ~Impl() { shutdown(); }

  /// One fork attempt (no retry).  The testing seams fail the first
  /// simulate_spawn_failures attempts (any kind) and the first
  /// simulate_respawn_failures replacement attempts as if fork() hit EAGAIN.
  bool try_fork(Slot& slot, bool is_respawn) {
    if (is_respawn && options.simulate_respawn_failures > 0) {
      --options.simulate_respawn_failures;
      return false;
    }
    if (options.simulate_spawn_failures > 0) {
      --options.simulate_spawn_failures;
      return false;
    }
    int fds[2];
    if (::pipe(fds) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      // Child: keep only this slot's read end.  Closing every sibling
      // write end matters -- a pipe delivers EOF only once *all* write fds
      // are gone, so an inherited duplicate would keep a sibling alive
      // past shutdown().
      ::close(fds[1]);
      for (const Slot& other : slots) {
        if (other.command_write >= 0) ::close(other.command_write);
      }
      if (wake_read >= 0) ::close(wake_read);
      pool_worker_main(program, golden, slot.shm, fds[0], wake_write,
                       static_cast<std::size_t>(&slot - slots.data()),
                       options);  // never returns
    }
    ::close(fds[0]);
    slot.pid = pid;
    slot.command_write = fds[1];
    slot.live = true;
    slot.busy = false;
    slot.last_heartbeat =
        slot.shm.header->heartbeat.load(std::memory_order_acquire);
    slot.last_beat_time = std::chrono::steady_clock::now();
    ++stats.workers_spawned;
    return true;
  }

  /// Spawn (or respawn) with the configured backoff.  The shm region is
  /// mapped lazily on first success path and kept across respawns.
  bool spawn(Slot& slot, bool is_respawn) {
    telemetry::SpanScope span(options.telemetry,
                              is_respawn ? "worker.respawn" : "worker.spawn",
                              "pool");
    span.arg("slot", static_cast<double>(&slot - slots.data()));
    util::RetryStats retry_stats;
    const bool ok = util::retry_with_backoff(
        options.spawn_retry,
        [&] {
          if (slot.shm.base == nullptr &&
              !slot.shm.map(options.chunk_capacity)) {
            return false;
          }
          return try_fork(slot, is_respawn);
        },
        &retry_stats);
    if (retry_stats.attempts > 1) {
      stats.spawn_retries +=
          static_cast<std::uint64_t>(retry_stats.attempts - 1);
    }
    if (ok && is_respawn) ++stats.respawns;
    if (telemetry::active(options.telemetry)) {
      span.arg("ok", ok ? 1.0 : 0.0);
      auto& metrics = options.telemetry->metrics();
      if (ok) {
        metrics.counter(is_respawn ? "pool.respawns" : "pool.spawns").add();
      } else {
        metrics.counter("pool.spawn_failures").add();
      }
    }
    return ok;
  }

  void drop(Slot& slot) {
    if (slot.command_write >= 0) {
      ::close(slot.command_write);
      slot.command_write = -1;
    }
    slot.pid = -1;
    slot.live = false;
    slot.busy = false;
  }

  /// Replace a dead worker; on terminal failure the pool shrinks.
  void respawn(Slot& slot) {
    drop(slot);
    if (!spawn(slot, /*is_respawn=*/true)) {
      slot.abandoned = true;
      ++stats.shrinks;
    }
  }

  int worker_count() const noexcept {
    if (exiting) return 0;
    int count = 0;
    for (const Slot& slot : slots) {
      if (slot.live) ++count;
    }
    return count;
  }

  bool busy() const noexcept {
    for (const Slot& slot : slots) {
      if (slot.live && slot.busy) return true;
    }
    return false;
  }

  void wait(std::uint32_t timeout_us) {
    if (wake_read < 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(timeout_us));
      return;
    }
    pollfd fd{wake_read, POLLIN, 0};
    const timespec timeout{static_cast<time_t>(timeout_us / 1000000),
                           static_cast<long>(timeout_us % 1000000) * 1000};
    if (::ppoll(&fd, 1, &timeout, nullptr) <= 0) return;
    char drain[64];
    while (::read(wake_read, drain, sizeof(drain)) > 0) {
    }
  }

  int try_dispatch(std::span<const Injection> chunk) {
    if (exiting || chunk.empty() || chunk.size() > options.chunk_capacity) {
      return -1;
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (!slot.live || slot.busy) continue;
      // The worker is blocked in read() between chunks (its last shared
      // write was the previous chunk's final done-store), so resetting the
      // counters and rewriting the injection slots here is race-free.
      slot.shm.header->started.store(0, std::memory_order_release);
      slot.shm.header->done.store(0, std::memory_order_release);
      std::memcpy(slot.shm.injections, chunk.data(),
                  chunk.size() * sizeof(Injection));
      const auto count = static_cast<std::uint32_t>(chunk.size());
      if (!write_full_nosigpipe(slot.command_write, &count, sizeof(count))) {
        // The worker died while idle (its read end is gone).  Reap it and
        // try the next slot; poll() would otherwise find it anyway.
        ::kill(slot.pid, SIGKILL);
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        respawn(slot);
        if (!slot.live || slot.busy) continue;
        if (!write_full_nosigpipe(slot.command_write, &count,
                                  sizeof(count))) {
          continue;
        }
      }
      slot.chunk_count = count;
      slot.last_heartbeat =
          slot.shm.header->heartbeat.load(std::memory_order_acquire);
      slot.last_beat_time = std::chrono::steady_clock::now();
      slot.busy = true;
      if (telemetry::active(options.telemetry)) {
        slot.dispatch_ns = options.telemetry->now_ns();
        slot.last_beat_tele_ns = slot.dispatch_ns;
        options.telemetry->metrics()
            .counter("pool.chunks_dispatched")
            .add();
      }
      return static_cast<int>(i);
    }
    return -1;
  }

  /// Telemetry hooks; all no-ops when the sink is null or disabled.
  void tele_chunk_done(Slot& slot) {
    if (!telemetry::active(options.telemetry)) return;
    auto& metrics = options.telemetry->metrics();
    metrics.counter("pool.chunks_done").add();
    if (slot.dispatch_ns != 0) {
      metrics.histogram("pool.chunk_round_trip_ns")
          .record(options.telemetry->now_ns() - slot.dispatch_ns);
    }
  }

  void tele_worker_lost(const char* event_name, const char* counter_name,
                        std::size_t slot_index, CrashReason reason) {
    if (!telemetry::active(options.telemetry)) return;
    options.telemetry->instant(
        event_name, "pool",
        {{"slot", static_cast<double>(slot_index)},
         {"reason", static_cast<double>(static_cast<int>(reason))}});
    options.telemetry->metrics().counter(counter_name).add();
  }

  WorkerEvent harvest(int index, Slot& slot, WorkerEvent::Kind kind) {
    WorkerEvent event;
    event.kind = kind;
    event.worker = index;
    const std::uint64_t done =
        slot.shm.header->done.load(std::memory_order_acquire);
    const std::uint64_t started =
        slot.shm.header->started.load(std::memory_order_acquire);
    event.done = std::min<std::uint64_t>(done, slot.chunk_count);
    event.results.resize(slot.chunk_count);
    for (std::size_t i = 0; i < event.done; ++i) {
      event.results[i] = decode_slot(slot.shm.slots[i]);
    }
    if (kind != WorkerEvent::Kind::kChunkDone && started > done) {
      event.culprit = static_cast<std::size_t>(started - 1);
    }
    return event;
  }

  std::vector<WorkerEvent> poll() {
    std::vector<WorkerEvent> events;
    if (exiting) return events;  // exits are shutdown()'s to reap
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (!slot.live) continue;

      int status = 0;
      const pid_t waited = ::waitpid(slot.pid, &status, WNOHANG);
      if (waited == slot.pid) {
        const std::uint64_t done =
            slot.shm.header->done.load(std::memory_order_acquire);
        if (slot.busy && done >= slot.chunk_count) {
          // Died *after* publishing the whole chunk (e.g. an external kill
          // between chunks): the results are all valid, nothing is lost.
          events.push_back(harvest(static_cast<int>(i), slot,
                                   WorkerEvent::Kind::kChunkDone));
          tele_chunk_done(slot);
          slot.busy = false;
        } else if (slot.busy) {
          WorkerEvent event = harvest(static_cast<int>(i), slot,
                                      WorkerEvent::Kind::kWorkerDeath);
          if (WIFSIGNALED(status)) {
            event.reason = crash_reason_from_signal(WTERMSIG(status));
            ++stats.signal_deaths;
          } else {
            event.reason = CrashReason::kAbnormalExit;
            ++stats.abnormal_exits;
          }
          tele_worker_lost("worker.death", "pool.worker_deaths", i,
                           event.reason);
          events.push_back(std::move(event));
          slot.busy = false;
        } else if (WIFSIGNALED(status)) {
          ++stats.signal_deaths;  // idle worker killed externally: no event
        } else {
          ++stats.abnormal_exits;
        }
        respawn(slot);
        continue;
      }

      if (!slot.busy) continue;

      const std::uint64_t done =
          slot.shm.header->done.load(std::memory_order_acquire);
      if (done >= slot.chunk_count) {
        events.push_back(harvest(static_cast<int>(i), slot,
                                 WorkerEvent::Kind::kChunkDone));
        tele_chunk_done(slot);
        slot.busy = false;
        continue;
      }

      const std::uint64_t beat =
          slot.shm.header->heartbeat.load(std::memory_order_acquire);
      if (beat != slot.last_heartbeat) {
        slot.last_heartbeat = beat;
        slot.last_beat_time = now;
        if (telemetry::active(options.telemetry)) {
          const std::uint64_t tele_now = options.telemetry->now_ns();
          if (slot.last_beat_tele_ns != 0) {
            options.telemetry->metrics()
                .histogram("pool.heartbeat_gap_ns")
                .record(tele_now - slot.last_beat_tele_ns);
          }
          slot.last_beat_tele_ns = tele_now;
        }
      } else if (options.heartbeat_timeout_ms != 0 &&
                 now - slot.last_beat_time > std::chrono::milliseconds(
                                                 options.heartbeat_timeout_ms)) {
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, &status, 0);
        // Same race as the per-batch watchdog: the worker may have finished
        // the chunk, died on a fault's signal, or exited on its own between
        // the heartbeat check and the SIGKILL.  The reaped status and the
        // done counter carry the truth; only a genuine stall is a hang.
        const std::uint64_t done_now =
            slot.shm.header->done.load(std::memory_order_acquire);
        if (done_now >= slot.chunk_count) {
          events.push_back(harvest(static_cast<int>(i), slot,
                                   WorkerEvent::Kind::kChunkDone));
          tele_chunk_done(slot);
        } else if (WIFSIGNALED(status) && WTERMSIG(status) != SIGKILL) {
          WorkerEvent event = harvest(static_cast<int>(i), slot,
                                      WorkerEvent::Kind::kWorkerDeath);
          event.reason = crash_reason_from_signal(WTERMSIG(status));
          ++stats.signal_deaths;
          tele_worker_lost("worker.death", "pool.worker_deaths", i,
                           event.reason);
          events.push_back(std::move(event));
        } else if (WIFEXITED(status)) {
          WorkerEvent event = harvest(static_cast<int>(i), slot,
                                      WorkerEvent::Kind::kWorkerDeath);
          event.reason = CrashReason::kAbnormalExit;
          ++stats.abnormal_exits;
          tele_worker_lost("worker.death", "pool.worker_deaths", i,
                           event.reason);
          events.push_back(std::move(event));
        } else {
          events.push_back(harvest(static_cast<int>(i), slot,
                                   WorkerEvent::Kind::kWorkerHang));
          ++stats.hang_kills;
          tele_worker_lost("worker.hang", "pool.worker_hangs", i,
                           CrashReason::kNone);
        }
        slot.busy = false;
        respawn(slot);
      }
    }
    return events;
  }

  void request_exit() {
    if (exiting) return;
    exiting = true;
    // Ask politely: the sentinel, then EOF on every command pipe.
    for (Slot& slot : slots) {
      if (slot.command_write >= 0) {
        const std::uint32_t sentinel = kShutdownCommand;
        write_full_nosigpipe(slot.command_write, &sentinel, sizeof(sentinel));
        ::close(slot.command_write);
        slot.command_write = -1;
      }
    }
  }

  void shutdown() {
    if (shut_down) return;
    shut_down = true;
    request_exit();
    // Grace period, then SIGKILL stragglers.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    for (Slot& slot : slots) {
      if (!slot.live) continue;
      reap_before(slot.pid, deadline);
      slot.pid = -1;
      slot.live = false;
      slot.busy = false;
    }
    for (int* fd : {&wake_read, &wake_write}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }
};

WorkerPool::WorkerPool(const Program& program, const GoldenRun& golden,
                       WorkerPoolOptions options)
    : impl_(std::make_unique<Impl>(program, golden, std::move(options))) {}

WorkerPool::~WorkerPool() = default;

int WorkerPool::worker_count() const noexcept { return impl_->worker_count(); }

int WorkerPool::try_dispatch(std::span<const Injection> chunk) {
  return impl_->try_dispatch(chunk);
}

std::vector<WorkerEvent> WorkerPool::poll() { return impl_->poll(); }

bool WorkerPool::busy() const noexcept { return impl_->busy(); }

void WorkerPool::wait(std::uint32_t timeout_us) { impl_->wait(timeout_us); }

std::int64_t WorkerPool::worker_pid(int slot) const noexcept {
  if (slot < 0 || static_cast<std::size_t>(slot) >= impl_->slots.size()) {
    return -1;
  }
  const Impl::Slot& s = impl_->slots[static_cast<std::size_t>(slot)];
  // Only the pid is read: `live` belongs to the supervisor thread, and
  // pid == -1 already encodes "slot not live".
  return static_cast<std::int64_t>(s.pid.load(std::memory_order_relaxed));
}

void WorkerPool::request_exit() { impl_->request_exit(); }

void WorkerPool::shutdown() { impl_->shutdown(); }

const WorkerPoolStats& WorkerPool::stats() const noexcept {
  return impl_->stats;
}

#else  // !FTB_SANDBOX_POSIX

bool sandbox_supported() noexcept { return false; }

std::vector<ExperimentResult> run_injected_sandboxed(
    const Program& program, const GoldenRun& golden,
    std::span<const Injection> injections, const SandboxOptions& options,
    SandboxStats* stats) {
  SandboxStats local_stats;
  SandboxStats& s = stats != nullptr ? *stats : local_stats;
  s = SandboxStats{};
  if (!options.allow_in_process_fallback) {
    throw std::runtime_error(
        "sandbox: process isolation is unavailable on this platform and "
        "in-process fallback is disabled");
  }
  std::vector<ExperimentResult> results(injections.size());
  for (std::size_t i = 0; i < injections.size(); ++i) {
    results[i] = run_injected(program, golden, injections[i]);
    ++s.fallback_experiments;
  }
  return results;
}

// WorkerPool stub: no process isolation, so the pool is permanently empty
// and callers take their in-process fallback path.
struct WorkerPool::Impl {
  WorkerPoolStats stats;
};

WorkerPool::WorkerPool(const Program&, const GoldenRun&, WorkerPoolOptions)
    : impl_(std::make_unique<Impl>()) {}

WorkerPool::~WorkerPool() = default;

int WorkerPool::worker_count() const noexcept { return 0; }

int WorkerPool::try_dispatch(std::span<const Injection>) { return -1; }

std::vector<WorkerEvent> WorkerPool::poll() { return {}; }

bool WorkerPool::busy() const noexcept { return false; }

void WorkerPool::wait(std::uint32_t timeout_us) {
  std::this_thread::sleep_for(std::chrono::microseconds(timeout_us));
}

std::int64_t WorkerPool::worker_pid(int) const noexcept { return -1; }

void WorkerPool::request_exit() {}

void WorkerPool::shutdown() {}

const WorkerPoolStats& WorkerPool::stats() const noexcept {
  return impl_->stats;
}

#endif  // FTB_SANDBOX_POSIX

}  // namespace ftb::fi
