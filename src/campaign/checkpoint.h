// Checkpointed campaign execution.
//
// A campaign over a hazard kernel can be killed at any moment -- by the
// sandbox watchdog's host-side twin (CI timeouts), by the machine, or by the
// user.  This runner makes that survivable: it executes experiments in
// chunks and appends each chunk's records to an append-only journal
// (CampaignJournal below, format v4 in campaign/log.h): one CRC-framed
// frame per chunk, so a flush costs O(chunk) instead of a rewrite of
// everything so far.  The journal writes behind, one frame deep: its
// writer thread writes and fsyncs chunk k's frame while chunk k+1 runs,
//
//   chunk k runs -> wait for frame k-1 -> report k-1 -> hand frame k over
//     -> chunk k+1 runs ...
//   last chunk (or should_stop) -> wait -> report it -> compact -> report {}
//
// so progress runs one chunk behind execution and never ahead of the disk.
// A kill -9 loses at most the chunk running and the frame being written.
// A re-invocation with the same journal path resumes from the last good
// frame: already-logged experiment ids are skipped, and a frame torn by a
// crash mid-append is dropped and its experiments re-run.  When the run
// completes or drains, the journal is compacted into the deduped v3 image
// -- byte-identical to what an uninterrupted run would have produced
// (experiment outcomes are deterministic).
//
// Where the executor can -- the in-process pool, and the supervised pool's
// forked workers -- the run also folds the boundary evidence of its masked
// experiments as they finish (campaign/evidence.h) and returns it, so
// fold_log_evidence replays only the records that have none.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/evidence.h"
#include "campaign/log.h"
#include "campaign/sample_space.h"
#include "campaign/supervisor.h"
#include "fi/program.h"
#include "fi/sandbox.h"
#include "telemetry/events.h"
#include "util/durable_file.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

/// Snapshot handed to CheckpointOptions::on_progress once a chunk's frame
/// is durable.  It describes that chunk: `chunk` holds its records (empty
/// for the final compaction), `executed` and `logged` are the counts right
/// after it, and `supervisor` -- non-null only on the supervisor path --
/// points at a copy of the stats taken when it finished, valid for the
/// duration of the callback.
struct CheckpointProgress {
  std::uint64_t executed = 0;  ///< experiments run so far this invocation
  std::uint64_t total = 0;     ///< experiments owed this invocation
  std::uint64_t logged = 0;    ///< journal records after this flush
  std::span<const ExperimentRecord> chunk;
  const SupervisorStats* supervisor = nullptr;
};

struct CheckpointOptions {
  /// Journal file path.  Must be non-empty; if the file exists it is loaded
  /// and its experiments are skipped (resume).
  std::string path;
  /// Experiments per chunk; each chunk's records become one journal frame,
  /// written and fsynced while the next chunk runs.
  std::size_t flush_every = 512;
  /// Run chunks through the process-isolation layer (fi/sandbox.h) so
  /// signal-crashes and hangs are classified instead of fatal.  Required for
  /// hazard kernels.
  bool use_sandbox = false;
  fi::SandboxOptions sandbox;
  /// Run chunks through one long-lived CampaignSupervisor instead: a
  /// persistent worker pool with heartbeats, respawn, and site quarantine
  /// (campaign/supervisor.h).  Takes precedence over use_sandbox.  The
  /// supervisor -- and with it the quarantine ledger and the workers --
  /// lives across all chunks of the invocation; a resumed invocation
  /// rebuilds the ledger and converges to the same journal bytes.
  bool use_supervisor = false;
  SupervisorOptions supervisor;
  /// Thread pool for the non-sandbox path; util::default_pool() when null.
  util::ThreadPool* pool = nullptr;

  /// Optional telemetry sink (telemetry/events.h): checkpoint.chunk and
  /// checkpoint.flush spans plus checkpoint.* counters; forwarded to the
  /// supervisor (and through it the pool) when supervisor.telemetry is
  /// unset.  Never owned; must outlive the call.
  telemetry::Telemetry* telemetry = nullptr;

  /// Invoked on the calling thread once per chunk, when the chunk's frame
  /// is durable and before the next frame can reach the file, so the file
  /// then ends with that frame.  Reports run one chunk behind execution --
  /// chunk k is reported after chunk k+1 has run -- and never describe a
  /// frame that is not on disk.  A final report with an empty `chunk`
  /// follows the compaction.  ftb_served streams these to the submitting
  /// client.
  std::function<void(const CheckpointProgress&)> on_progress;

  /// Polled before each chunk; returning true stops the run once every
  /// journaled chunk is durable and reported, leaving a resumable journal
  /// and setting CheckpointRunResult::stopped.  ftb_served's drain path
  /// uses this.
  std::function<bool()> should_stop;
};

/// The append-only journal behind both chunk loops: this runner and
/// service::ChunkDispatcher::run_job.
///
///   * Open: an existing file is loaded in any format version (a torn last
///     v4 frame is dropped and counted) and its config key checked; then it
///     is durably rewritten as a v4 header plus one frame holding the loaded
///     records (compact-on-open), so a torn tail never sits in front of new
///     appends and a v2/v3 file is upgraded in place.  A missing file
///     starts as a bare header.
///   * append(): one frame per chunk, written behind.  The caller encodes
///     it and hands it to the journal's writer thread, which writes and
///     fsyncs it through util::AppendLog (a failed append is rolled back)
///     while the caller goes on.  At most one frame is in flight, so only
///     the last frame can be torn.
///   * sync(): waits until every handed-over frame is durable.
///   * finish(): syncs, then dedupes and durably replaces the file with the
///     v3 image (tmp + fsync + rename + directory fsync).  Until then -- an
///     exception included -- the v4 file stays behind and resumes.
///
/// The constructing thread starts the writer, which inherits its CPU
/// affinity.  The writer touches only the file, the hand-off slot and the
/// telemetry sink; the destructor lets a frame in flight finish, stops it
/// and never throws.
///
/// With an active telemetry sink, each append records a checkpoint.flush
/// span on the caller's thread (records, bytes, compact) around what the
/// caller blocks on before the hand-off -- encoding the frame and waiting
/// for the frame before it -- and finish() one around the compaction;
/// `durable` runs outside both, and the hand-off is a lock and a notify.
/// The writer records a checkpoint.sync span (bytes) around each frame's
/// write and fsync, and the open a checkpoint.open span (records,
/// torn_frames, bytes); the counters checkpoint.flushes,
/// checkpoint.bytes_written and checkpoint.torn_frames add up across
/// journals.  Errors throw
/// std::invalid_argument (empty path, foreign journal) or
/// std::runtime_error (corrupt journal, failed write), with the path in the
/// message; a failed frame throws at the next append(), sync() or finish()
/// on the caller's thread, and at every one after it.
class CampaignJournal {
 public:
  CampaignJournal(std::string path, std::string config_key,
                  telemetry::Telemetry* telemetry = nullptr);
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// The ids of `ids` the journal does not hold, in order.
  std::vector<ExperimentId> owed(std::span<const ExperimentId> ids) const;

  /// Marks `id` as journaled; false if the journal already held or claimed
  /// it.  The dispatcher's guard against merging an experiment twice.
  bool claim(ExperimentId id) { return done_.insert(id).second; }

  /// Encodes `batch` as one frame and hands it to the writer thread.  One
  /// frame deep: first waits for the frame before it (sync()), then runs
  /// `durable` if set -- the file ends with that frame, fsynced -- and only
  /// then hands the new frame over.
  void append(std::span<const ExperimentRecord> batch,
              const std::function<void()>& durable = {});

  /// Blocks until every appended frame is durable.
  void sync();

  /// Makes room for `records` more records, so no append reallocates.
  void reserve(std::size_t records) { log_.reserve(log_.size() + records); }

  /// sync(), `durable` if set, then dedupes, writes the v3 image, and hands
  /// the log over; the journal is closed afterwards.
  CampaignLog finish(const std::function<void()>& durable = {});

  std::size_t size() const noexcept { return log_.size(); }
  bool resumed() const noexcept { return resumed_; }
  /// The records journaled so far; right after open, the loaded ones.
  std::span<const ExperimentRecord> records() const noexcept {
    return log_.records();
  }
  std::uint64_t torn_frames() const noexcept { return torn_frames_; }
  /// Durable appends plus the final compaction.
  std::uint64_t flushes() const noexcept { return flushes_.load(); }

 private:
  void write_behind();  // the writer thread
  void stop_writer() noexcept;
  void count_write(std::uint64_t bytes);

  std::string path_;
  telemetry::Telemetry* telemetry_;
  CampaignLog log_;
  std::unordered_set<ExperimentId> done_;
  util::AppendLog file_;  // the writer's while a frame is in flight
  bool resumed_ = false;
  std::uint64_t torn_frames_ = 0;
  std::atomic<std::uint64_t> flushes_{0};

  // The hand-off slot, under mutex_: `frame_` is the writer's while
  // `in_flight_`; `error_` is its first failure.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string frame_;
  bool in_flight_ = false;
  bool closing_ = false;
  std::string error_;
  std::thread writer_;
};

struct CheckpointRunResult {
  CampaignLog log;              ///< deduped, includes resumed records
  bool resumed = false;         ///< true if an existing journal was loaded
  std::uint64_t skipped = 0;    ///< experiments satisfied by the journal
  std::uint64_t executed = 0;   ///< experiments actually run this invocation
  std::uint64_t flushes = 0;    ///< journal writes (including the final one)
  std::uint64_t torn_frames = 0;  ///< torn journal frames dropped at open
  bool stopped = false;         ///< should_stop fired; journal is resumable
  fi::SandboxStats sandbox_stats;  ///< populated when use_sandbox
  SupervisorStats supervisor_stats;  ///< populated when use_supervisor
  /// Boundary evidence of the masked runs this invocation folded; pass it
  /// to fold_log_evidence / boundary_from_log with `log`.  Records loaded at
  /// open, and those run by the per-batch sandbox, the snapshot server, the
  /// in-process fallback or in a chunk with a worker death or hang, are not
  /// covered and get replayed.
  FirstPassEvidence evidence;
};

/// Runs (or resumes) the listed experiments with a journal append after
/// every chunk, written behind while the next chunk runs (see the top of
/// this file).  Where the executor folds evidence (the in-process pool;
/// the supervisor without snapshots), owed ids run in descending site order
/// and the settled cutoffs are published between chunks.  A supervisor's
/// workers are asked to exit right after the last chunk and reaped after
/// the compaction.  Throws std::invalid_argument if options.path is empty
/// or an existing journal belongs to a different program configuration,
/// and std::runtime_error if the journal exists but is corrupt or a frame
/// cannot be written; no report names a chunk whose frame failed.
CheckpointRunResult run_campaign_checkpointed(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, const CheckpointOptions& options);

}  // namespace ftb::campaign
