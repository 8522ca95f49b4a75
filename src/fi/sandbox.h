// Process-isolation layer for fault-injection experiments.
//
// The in-process executor (fi/executor.h) can only observe "polite" crashes:
// a CrashSignal thrown on the first non-finite value, or a step-count
// mismatch detected after the run returns.  A bit flip that corrupts control
// flow -- a loop trip count, a pivot index, an array offset -- instead
// segfaults or hangs the *entire campaign process*, which is exactly the
// failure class a resilience study must tolerate.  This layer runs batches
// of experiments in a forked child process:
//
//   * results stream back through a shared-memory result block, so every
//     experiment completed before an abnormal death is preserved;
//   * a child killed by a signal classifies the in-flight experiment as
//     Crash with a CrashReason derived from the signal (SIGSEGV, SIGFPE,
//     SIGBUS, SIGABRT, SIGILL, ...);
//   * a wall-clock watchdog converts runaway experiments (no progress for
//     `timeout_ms`) into the Outcome::kHang classification by SIGKILLing
//     the child;
//   * after each abnormal death the batch resumes in a fresh child at the
//     next experiment, so one poisoned flip never costs more than itself;
//   * transient spawn failures (fork/mmap) are retried with exponential
//     backoff; when isolation is unavailable (retries exhausted or a
//     non-POSIX platform) the remaining experiments gracefully fall back to
//     the in-process executor -- with NO protection against genuine
//     segfaults or hangs, so only feed well-behaved programs to the
//     fallback (see SandboxOptions::allow_in_process_fallback).
//
// Call this from a single thread, never from inside a thread-pool task.
// fork() is invoked from the calling thread while other threads may run --
// a campaign journal's writer thread (campaign/checkpoint.h) writes and
// fsyncs a frame while the next chunk runs.  A forked child therefore
// touches nothing another thread may hold: it runs experiments and writes
// only to its shared memory and pipes, never to the journal's file, its
// hand-off slot or the telemetry sink, and leaves by _exit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fi/executor.h"
#include "fi/outcome.h"
#include "fi/program.h"
#include "fi/snapshot.h"
#include "util/retry.h"

namespace ftb::telemetry {
class Telemetry;
}

namespace ftb::fi {

struct SandboxOptions {
  /// Watchdog budget per experiment, measured from the last observed
  /// progress (an experiment starting or finishing).  0 disables the
  /// watchdog entirely -- a hung experiment then hangs the caller, so 0 is
  /// only for interactive runs that accept that risk.  Campaign-driven
  /// paths (campaign/checkpoint.h, service/jobs.cpp) never pass 0 through:
  /// they substitute a fallback deadline derived from the supervisor's
  /// heartbeat timeout.
  std::uint32_t timeout_ms = 2000;

  /// Parent poll cadence while the child runs.
  std::uint32_t poll_interval_us = 200;

  /// Transient fork/mmap failures are retried this many times ...
  int max_spawn_retries = 3;

  /// ... with this initial backoff, doubled per retry.
  std::uint32_t retry_backoff_ms = 5;

  /// When isolation cannot be established (spawn retries exhausted, or the
  /// platform has no fork), run the remaining experiments in-process.
  /// Disable to get a std::runtime_error instead -- prefer that for hazard
  /// programs whose corrupted runs can take down the campaign process.
  bool allow_in_process_fallback = true;
};

/// Observability counters for one sandboxed batch.
struct SandboxStats {
  std::uint64_t children_spawned = 0;  // fork()s that succeeded
  std::uint64_t signal_deaths = 0;     // children killed by a fault's signal
  std::uint64_t watchdog_kills = 0;    // children SIGKILLed by the watchdog
  std::uint64_t abnormal_exits = 0;    // children that exited nonzero
  std::uint64_t spawn_retries = 0;     // fork/mmap failures retried
  std::uint64_t fallback_experiments = 0;  // experiments run in-process
};

/// True when this build/platform can isolate experiments in child processes.
bool sandbox_supported() noexcept;

/// Runs `injections[i]` against `program` inside a sandboxed child process
/// and returns one ExperimentResult per injection, in order.  For
/// well-behaved programs the results are identical to run_injected(); for
/// misbehaving ones the extra outcomes above appear.  Experiments that died
/// abnormally report injected_error = output_error = +inf and crash_site = 0
/// (the child took that knowledge with it).
std::vector<ExperimentResult> run_injected_sandboxed(
    const Program& program, const GoldenRun& golden,
    std::span<const Injection> injections, const SandboxOptions& options = {},
    SandboxStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Persistent worker pool.
//
// run_injected_sandboxed() pays one fork() per batch *and* one per abnormal
// death; a campaign over a hazard kernel with thousands of lethal flips
// spends most of its wall clock spawning children.  WorkerPool instead
// pre-forks N long-lived workers at construction.  Each worker owns
//
//   * a private shared-memory region: a heartbeat counter the worker bumps
//     on every chunk pickup and experiment start/finish, started/done
//     progress counters, and fixed-capacity injection/result slot arrays;
//   * a command pipe: the parent copies a chunk of injections into the
//     region and writes the chunk size (u32) to the pipe; the worker blocks
//     in read() between chunks, so an idle pool costs nothing.
//
// The parent polls: a worker whose pid waits (signal death / abnormal exit)
// or whose heartbeat stalls past heartbeat_timeout_ms (SIGKILLed) yields a
// WorkerEvent carrying every result the worker published before dying plus
// the index of the in-flight culprit experiment, classified through the
// same CrashReason taxonomy as the per-batch sandbox.  Dead workers are
// respawned with exponential backoff (util/retry.h); when a respawn fails
// terminally the pool *shrinks* instead of erroring, down to a floor of
// zero -- callers watch worker_count() and fall back in-process (see
// campaign/supervisor.h, which layers work-queue accounting, quarantine,
// and checkpoint integration on top of this class).
//
// Single-threaded, like the rest of this file: construct, dispatch, and
// poll from one thread.  Respawns fork while other threads may run (see
// the top of this file); a worker uses only its own region and pipes.
// ---------------------------------------------------------------------------

struct WorkerPoolOptions {
  /// Target number of persistent workers.  The pool starts with as many as
  /// it can actually spawn (degrading quietly under resource pressure).
  int workers = 4;

  /// Capacity of each worker's injection/result slot arrays: the largest
  /// chunk one try_dispatch() call may carry.
  std::size_t chunk_capacity = 64;

  /// A busy worker whose heartbeat does not change for this long is
  /// presumed hung, SIGKILLed, and reported as a kWorkerHang event.  The
  /// heartbeat advances when a chunk is picked up and when an experiment
  /// starts or finishes, so the budget is per experiment, not per chunk.
  /// 0 disables hang detection.
  std::uint32_t heartbeat_timeout_ms = 2000;

  /// Backoff policy for fork/mmap, applied per spawn or respawn attempt.
  util::RetryOptions spawn_retry;

  /// Serve experiments from a snapshot fork-server (fi/snapshot.h) instead
  /// of replaying each one from instruction 0.  Every worker builds its own
  /// tree at spawn (and after respawn); results stay bit-identical to the
  /// classic path for well-behaved programs, and workers fall back to
  /// run_injected() when the program is not snapshot_safe() or the tree
  /// degrades.
  bool use_snapshots = false;

  /// Checkpoint cadence/watchdog for the per-worker snapshot trees.
  SnapshotOptions snapshot;

  /// Runs one experiment inside a worker in place of run_injected();
  /// `slot` is the worker's stable slot index.  It must classify exactly as
  /// run_injected() does.  Checkpointed campaigns use it to fold propagation
  /// evidence into a per-slot shared-memory partial (campaign/evidence.h).
  /// Ignored in snapshot mode.
  std::function<ExperimentResult(const Injection&, std::size_t slot)>
      run_experiment;

  /// Testing seam: the first N fork attempts fail as if fork() returned
  /// EAGAIN, without forking.  Lets tests drive the degradation path
  /// (shrink, then empty pool) deterministically.
  int simulate_spawn_failures = 0;

  /// Testing seam: like simulate_spawn_failures, but only *respawn*
  /// attempts (replacements for dead workers) fail.  Initial spawns
  /// succeed, so tests can build a healthy pool and then force it to
  /// shrink the first time a worker dies.
  int simulate_respawn_failures = 0;

  /// Optional telemetry sink (telemetry/events.h).  When non-null and
  /// enabled, the pool emits worker.spawn / worker.respawn spans,
  /// worker.death / worker.hang instants, and pool.* counters plus
  /// heartbeat-gap and chunk-round-trip histograms.  Never owned; must
  /// outlive the pool.  nullptr (the default) costs one pointer test per
  /// instrumentation point.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Observability counters over the pool's lifetime.
struct WorkerPoolStats {
  std::uint64_t workers_spawned = 0;   // successful fork()s, incl. respawns
  std::uint64_t respawns = 0;          // replacements for dead workers
  std::uint64_t signal_deaths = 0;     // workers killed by a fault's signal
  std::uint64_t hang_kills = 0;        // workers SIGKILLed on heartbeat stall
  std::uint64_t abnormal_exits = 0;    // workers that exited nonzero
  std::uint64_t spawn_retries = 0;     // fork/mmap failures retried
  std::uint64_t shrinks = 0;           // worker slots permanently abandoned
};

/// What the pool observed about one worker during poll().
struct WorkerEvent {
  enum class Kind : std::uint8_t {
    kChunkDone,    // all experiments of the chunk completed; results valid
    kWorkerDeath,  // worker died on a signal / abnormal exit mid-chunk
    kWorkerHang,   // heartbeat stalled; worker SIGKILLed mid-chunk
  };

  static constexpr std::size_t kNoCulprit = ~std::size_t{0};

  Kind kind = Kind::kChunkDone;
  int worker = -1;           // slot index, stable across respawns
  std::size_t done = 0;      // results[0, done) were published and are valid
  std::vector<ExperimentResult> results;  // sized to the dispatched chunk

  /// Chunk index of the experiment the worker was executing when it died or
  /// hung; kNoCulprit when it died between experiments (environmental
  /// failure, no experiment to blame).  Always kNoCulprit for kChunkDone.
  std::size_t culprit = kNoCulprit;

  /// Signal-derived classification for kWorkerDeath (kAbnormalExit for a
  /// nonzero exit); kNone otherwise.
  CrashReason reason = CrashReason::kNone;
};

class WorkerPool {
 public:
  /// Spawns the initial workers immediately (as many as resources permit).
  /// `program` and `golden` must outlive the pool.
  WorkerPool(const Program& program, const GoldenRun& golden,
             WorkerPoolOptions options = {});
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Live workers right now.  0 means isolation is unavailable (all spawns
  /// failed, or a non-POSIX platform) -- run work in-process instead.
  int worker_count() const noexcept;

  /// Hands `chunk` (size <= chunk_capacity, non-empty) to an idle worker
  /// and returns its slot index, or -1 when every live worker is busy.
  int try_dispatch(std::span<const Injection> chunk);

  /// Harvests completed chunks, deaths, and hangs; respawns dead workers
  /// (shrinking the pool when respawn fails).  Returns the events observed,
  /// possibly none.  Call in a loop interleaved with try_dispatch().
  std::vector<WorkerEvent> poll();

  /// True while any dispatched chunk has not yet been reported via poll().
  bool busy() const noexcept;

  /// Blocks until a worker finishes a chunk or `timeout_us` passes,
  /// whichever comes first.  Workers signal a finished chunk on a pool-wide
  /// pipe; deaths and hangs are not signalled, so callers keep polling at
  /// the timeout's cadence.
  void wait(std::uint32_t timeout_us);

  /// OS pid of the worker in `slot`, or -1 if the slot is not live.  For
  /// tests that kill workers externally; unlike the rest of this class it
  /// is safe to call from another thread while the pool runs.
  std::int64_t worker_pid(int slot) const noexcept;

  /// Asks every worker to exit (EOF on its command pipe) without waiting
  /// for them, so their exits overlap the caller's work.  From then on the
  /// pool dispatches nothing, respawns nothing and reports no live worker;
  /// shutdown() reaps.  Idempotent.
  void request_exit();

  /// request_exit(), then reaps every worker, SIGKILLing stragglers after
  /// a 500 ms grace.  Idempotent; the destructor calls it.
  void shutdown();

  const WorkerPoolStats& stats() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftb::fi
