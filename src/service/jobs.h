// Campaign plane for ftb_served: a crash-durable FIFO of campaign jobs
// drained by one runner thread.
//
// Submissions are write-ahead logged to "<store-dir>/jobs.ledger"
// (service/ledger.h) and fsynced BEFORE they are acked, so an acked job
// survives kill -9.  On construction the runner replays the ledger and
// re-enqueues every job that never reached a terminal state; those jobs
// resume from their chunk-edge checkpoint journals exactly like the CLI
// --resume path, so a crash mid-campaign loses at most one unflushed chunk.
//
// Each job runs the checkpointed campaign pipeline (campaign/checkpoint.h)
// through the resilient supervisor (persistent worker pool, heartbeats,
// quarantine), journalling to "<store-dir>/<key>.clog".  Progress snapshots
// are emitted after every journal flush -- so everything a client sees is
// already durable -- and a finished job infers the boundary from the full
// journal, writes "<key>.boundary" next to it, and publishes the entry into
// the BoundaryStore, where the query plane can see it immediately.
//
// Jobs sample their experiment ids exactly like `ftb_analyze campaign
// --resume` does (Rng(seed), sample_uniform over the golden sample space),
// so a journal left behind by a drained daemon can be finished -- byte for
// byte -- by the CLI, and vice versa.
//
// Drain semantics: request_drain() stops accepting new jobs, asks the
// running job to stop at the next chunk edge (after its flush), and fails
// queued jobs with a "draining" CampaignDone.  Neither the stopped job nor
// the abandoned ones get a terminal ledger record, so they all come back as
// pending when the daemon restarts.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/ledger.h"
#include "service/protocol.h"
#include "service/store.h"
#include "telemetry/events.h"

namespace ftb::campaign {
struct CheckpointOptions;
}  // namespace ftb::campaign

namespace ftb::service {

class ChunkDispatcher;

struct CampaignJob {
  std::uint64_t id = 0;
  std::uint64_t client = 0;  ///< net::ConnId of the submitter; 0 == recovered
  JobKind kind = JobKind::kCampaign;
  SubmitCampaignReq req;        ///< meaningful when kind == kCampaign
  SubmitRecomputeReq recompute; ///< meaningful when kind == kRecompute
};

struct JobRunnerOptions {
  /// Directory for journals ("<key>.clog"), artifacts ("<key>.boundary"),
  /// and the write-ahead job ledger ("jobs.ledger").
  std::string store_dir = ".";
  /// Jobs waiting in the queue (the running job is not counted).
  std::size_t max_queue = 8;
  /// When non-empty, the runner thread (and, by fork inheritance, every
  /// sandbox worker it spawns) is pinned to these CPUs so campaign load
  /// stops stealing cycles from the epoll I/O thread.
  std::vector<int> campaign_cpus;
  /// Serve local campaign experiments from per-worker snapshot fork-servers
  /// (fi/snapshot.h) instead of replaying each one from instruction 0.
  /// Journals and boundary artifacts stay byte-identical to the classic
  /// path; kernels that are not snapshot_safe() fall back automatically.
  bool use_snapshots = false;
  /// Checkpoint cadence for the snapshot trees, in dynamic instructions.
  std::uint64_t snapshot_interval = 4096;
  /// Distributed execution plane (service/dispatch.h).  When set and at
  /// least one remote worker is live at job start, chunks fan out to the
  /// workers; otherwise the local checkpointed path runs unchanged.  Never
  /// owned; must outlive the runner.
  ChunkDispatcher* dispatcher = nullptr;
  telemetry::Telemetry* telemetry = nullptr;
};

/// Event sinks, invoked from the runner thread (never concurrently), except
/// that request_drain fails queued jobs on the caller's thread.  Progress
/// frames are shared by both job kinds; the terminal frame depends on the
/// kind (CampaignDone for campaigns, RecomputeDone for recomputes).
struct JobCallbacks {
  std::function<void(const CampaignJob&, const CampaignProgress&)> on_progress;
  std::function<void(const CampaignJob&, const CampaignDone&)> on_done;
  std::function<void(const CampaignJob&, const RecomputeDone&)>
      on_recompute_done;
};

class JobRunner {
 public:
  /// Why a submission was not accepted.  kQueueFull is the retryable case
  /// (the service answers it with Busy); kRejected is terminal for this
  /// request (draining, or the ledger cannot ack durably).
  enum class Submit { kAccepted, kQueueFull, kRejected };

  JobRunner(BoundaryStore* store, JobRunnerOptions options,
            JobCallbacks callbacks);
  ~JobRunner();
  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Allocates a job id, write-ahead logs the submission (fsynced), and
  /// enqueues it.  On kAccepted fills `job_id` and `queue_depth` (jobs
  /// ahead of this one, including the running one); otherwise leaves a
  /// diagnostic in `error`.
  Submit submit(std::uint64_t client, const SubmitCampaignReq& req,
                std::uint64_t* job_id = nullptr,
                std::uint32_t* queue_depth = nullptr,
                std::string* error = nullptr);

  /// Same contract for a compositional recompute job (sections/driver.h):
  /// only the fingerprint-dirty sections re-campaign, the composed artifact
  /// is spliced and saved as "<key>.compose", and the materialized boundary
  /// publishes under the same store key a campaign would use.
  Submit submit_recompute(std::uint64_t client, const SubmitRecomputeReq& req,
                          std::uint64_t* job_id = nullptr,
                          std::uint32_t* queue_depth = nullptr,
                          std::string* error = nullptr);

  /// Stops accepting jobs, stops the running job at its next chunk edge
  /// (journal stays resumable), and fails queued jobs.  Does not block.
  void request_drain();

  /// Blocks until the runner thread has exited (call request_drain first,
  /// or wait for natural idleness forever).
  void join();

  /// True when no job is running and the queue is empty.
  bool idle() const;

  /// Queued plus running.
  std::size_t depth() const;

  /// What the ledger replay found at construction time.
  const JobLedger::ReplayResult& replay() const noexcept { return replay_; }

  /// False when the ledger could not be opened; submissions are rejected.
  bool ledger_ok() const noexcept { return ledger_.valid(); }

 private:
  void run_loop();
  void execute(const CampaignJob& job);
  void execute_campaign(const CampaignJob& job);
  void execute_recompute(const CampaignJob& job);
  template <class Request>
  campaign::CheckpointOptions checkpoint_options(const CampaignJob& job,
                                                 const Request& req,
                                                 const char* distributed);
  Submit enqueue(CampaignJob job, std::uint64_t* job_id,
                 std::uint32_t* queue_depth, std::string* error);
  void ledger_transition(std::uint64_t job, JobState state,
                         const std::string& note);

  BoundaryStore* store_;
  JobRunnerOptions options_;
  JobCallbacks callbacks_;

  /// Serialises ledger appends (submit runs on the event-loop thread,
  /// state transitions on the runner thread).  Always acquired after
  /// mutex_ when both are held.
  std::mutex ledger_mutex_;
  JobLedger ledger_;
  JobLedger::ReplayResult replay_;
  std::string ledger_error_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<CampaignJob> queue_;
  std::uint64_t next_job_id_ = 1;
  bool running_ = false;   ///< a job is executing right now
  bool draining_ = false;
  bool stop_ = false;      ///< runner thread should exit when idle
  std::thread thread_;
};

}  // namespace ftb::service
