// Resilient campaign supervision over a persistent worker pool.
//
// run_experiments_sandboxed() tolerates misbehaving experiments but pays a
// fork() per batch and per death, and a campaign process itself can still
// be lost to a CI timeout or an OOM kill.  CampaignSupervisor drives the
// pre-forked fi::WorkerPool with full work-queue accounting so that a
// campaign over hazard kernels survives arbitrary worker mortality:
//
//   * experiments are dispatched to idle workers in chunks; a worker death
//     (classified through the CrashReason taxonomy) or a hang (missed
//     heartbeats, SIGKILLed) loses nothing -- results the worker published
//     before dying are kept and every unfinished experiment of its chunk
//     is requeued exactly once per event, so the final record set has no
//     lost and no duplicated experiments;
//   * a per-experiment *quarantine ledger* counts how many workers each
//     (site, bit) pair has killed.  The in-flight culprit of a death or
//     hang is requeued and retried until it reaches
//     SupervisorOptions::quarantine_after kills, then recorded as Crash
//     with CrashReason::kQuarantined and never dispatched again.  An
//     experiment whose worker was killed *externally* (the culprit was
//     innocent) simply succeeds on retry, so non-quarantined experiments
//     end with outcomes identical to the per-batch sandbox baseline;
//   * under resource pressure the pool shrinks (spawn retries with
//     exponential backoff, then abandonment) and, once no worker is left,
//     the supervisor degrades to the in-process executor -- except for
//     experiments with a nonzero ledger entry, which are recorded
//     kQuarantined rather than risk running a known worker-killer without
//     isolation;
//   * outcomes are deterministic, so checkpointed campaigns
//     (campaign/checkpoint.h) that route chunks through one long-lived
//     supervisor resume byte-identically after the supervisor itself is
//     SIGKILLed: the ledger rebuilds from scratch and lethal experiments
//     re-earn their quarantine records.
//
// Single-threaded like the sandbox layer: construct, run(), and destroy
// from one thread.  The pool forks (and respawns) while other threads may
// run -- the checkpoint runner's journal writer fsyncs the previous chunk's
// frame during run() -- so workers touch only their own shared memory and
// pipes (fi/sandbox.h).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sample_space.h"
#include "fi/program.h"
#include "fi/sandbox.h"

namespace ftb::campaign {

/// Deadline substituted by campaign-driven paths (the supervisor's pool
/// heartbeat, checkpoint.cpp's sandbox batches, service job runners) when a
/// caller passes timeout 0.  0 means "no watchdog", which is acceptable for
/// interactive one-off runs but hangs an unattended campaign on the first
/// runaway experiment, so campaign entry points never let it through.
inline constexpr std::uint32_t kFallbackDeadlineMs = 2000;

struct SupervisorOptions {
  /// Pool shape: worker count, per-worker chunk capacity, heartbeat
  /// timeout, spawn/respawn backoff, and the spawn-failure testing seam.
  fi::WorkerPoolOptions pool;

  /// Experiments per dispatched chunk (clamped to pool.chunk_capacity).
  /// Smaller chunks cost more pipe round-trips but lose less requeue work
  /// per death.
  std::size_t chunk_size = 16;

  /// K: a (site, bit) pair that kills (or hangs) workers this many times is
  /// quarantined -- recorded as Crash/kQuarantined and never retried.
  int quarantine_after = 3;

  /// Longest wait between polls while all workers are busy.  A finished
  /// chunk wakes the supervisor at once (fi::WorkerPool::wait); deaths and
  /// hangs are found at this cadence.
  std::uint32_t poll_interval_us = 200;

  /// Once the pool has shrunk to zero workers, run the remaining
  /// experiments in-process (quarantining anything with a kill on its
  /// ledger).  Disable to get a std::runtime_error instead.
  bool allow_in_process_fallback = true;

  /// Optional telemetry sink (telemetry/events.h), forwarded to the worker
  /// pool when pool.telemetry is unset.  Emits supervisor.run spans,
  /// requeue/quarantine instants, queue-depth gauge, and supervisor.*
  /// counters.  Never owned; must outlive the supervisor.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Observability counters over the supervisor's lifetime.
struct SupervisorStats {
  fi::WorkerPoolStats pool;                // pool-level counters (live copy)
  std::uint64_t chunks_dispatched = 0;
  std::uint64_t worker_deaths = 0;         // deaths observed mid-chunk
  std::uint64_t worker_hangs = 0;          // heartbeat stalls mid-chunk
  std::uint64_t experiments_requeued = 0;  // chunk entries put back in queue
  std::uint64_t quarantined = 0;           // experiments recorded kQuarantined
  std::uint64_t fallback_experiments = 0;  // run in-process after degradation
};

class CampaignSupervisor {
 public:
  /// Forks the worker pool immediately.  `program` and `golden` must
  /// outlive the supervisor.
  CampaignSupervisor(const fi::Program& program, const fi::GoldenRun& golden,
                     SupervisorOptions options = {});
  ~CampaignSupervisor();
  CampaignSupervisor(const CampaignSupervisor&) = delete;
  CampaignSupervisor& operator=(const CampaignSupervisor&) = delete;

  /// Runs every listed experiment once and returns records in `ids` order.
  /// Callable repeatedly; the quarantine ledger and the workers persist
  /// across calls (that is the point -- checkpointed campaigns feed chunks
  /// through one supervisor).  Throws std::runtime_error only when the pool
  /// is empty and in-process fallback is disabled.
  std::vector<ExperimentRecord> run(std::span<const ExperimentId> ids);

  /// Kills the ledger has charged to `id` so far (0 when never blamed).
  int kill_count(ExperimentId id) const noexcept;

  /// Counters; `pool` is refreshed from the worker pool on every call.
  SupervisorStats stats() const;

  /// Asks the workers to exit without waiting (fi::WorkerPool::
  /// request_exit); the destructor reaps them.  A run() after it dispatches
  /// nothing.
  void request_exit() { pool_.request_exit(); }

  /// The underlying pool, exposed so tests can look up worker pids and
  /// kill or stop them externally.
  fi::WorkerPool& pool() noexcept { return pool_; }

 private:
  const fi::Program& program_;
  const fi::GoldenRun& golden_;
  SupervisorOptions options_;
  fi::WorkerPool pool_;
  std::unordered_map<ExperimentId, int> ledger_;
  SupervisorStats stats_;
};

}  // namespace ftb::campaign
