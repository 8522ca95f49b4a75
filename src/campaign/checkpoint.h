// Checkpointed campaign execution.
//
// A campaign over a hazard kernel can be killed at any moment -- by the
// sandbox watchdog's host-side twin (CI timeouts), by the machine, or by the
// user.  This runner makes that survivable: it executes experiments in
// chunks and appends each chunk's records to an append-only journal
// (CampaignJournal below, format v4 in campaign/log.h): one CRC-framed
// frame per chunk, fsynced before the run moves on, so a flush costs
// O(chunk) instead of a rewrite of everything so far.  A re-invocation with
// the same journal path resumes from the last good frame: already-logged
// experiment ids are skipped, and a frame torn by a crash mid-append is
// dropped and its experiments re-run.  When the run completes or drains,
// the journal is compacted into the deduped v3 image -- byte-identical to
// what an uninterrupted run would have produced (experiment outcomes are
// deterministic).
//
// Where the executor can -- the in-process pool, and the supervised pool's
// forked workers -- the run also folds the boundary evidence of its masked
// experiments as they finish (campaign/evidence.h) and returns it, so
// fold_log_evidence replays only the records that have none.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
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

/// Snapshot handed to CheckpointOptions::on_progress after every journal
/// flush.  `chunk` is the batch of records appended by the chunk that just
/// finished (empty for the final dedupe flush); `supervisor` is non-null
/// only on the supervisor path and points at a stats copy valid for the
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
  /// Experiments per chunk; the journal is flushed after every chunk.
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

  /// Invoked after every journal flush (so everything it reports is already
  /// durable on disk).  ftb_served streams these to the submitting client.
  std::function<void(const CheckpointProgress&)> on_progress;

  /// Polled before each chunk; returning true stops the run after the
  /// journal has been flushed, leaving a resumable journal and setting
  /// CheckpointRunResult::stopped.  ftb_served's drain path uses this.
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
///   * append(): one frame per chunk through util::AppendLog, which writes,
///     fsyncs and rolls back a failed append.
///   * finish(): dedupes and durably replaces the file with the v3 image
///     (tmp + fsync + rename + directory fsync).  Until then -- an
///     exception included -- the v4 file stays behind and resumes.
///
/// With an active telemetry sink, each append and the final compaction
/// record a checkpoint.flush span (records, bytes, compact) and the open a
/// checkpoint.open span (records, torn_frames, bytes); the counters
/// checkpoint.flushes, checkpoint.bytes_written and checkpoint.torn_frames
/// add up across journals.  Errors throw std::invalid_argument (empty path,
/// foreign journal) or std::runtime_error (corrupt journal, failed write),
/// with the path in the message.
class CampaignJournal {
 public:
  CampaignJournal(std::string path, std::string config_key,
                  telemetry::Telemetry* telemetry = nullptr);

  /// The ids of `ids` the journal does not hold, in order.
  std::vector<ExperimentId> owed(std::span<const ExperimentId> ids) const;

  /// Marks `id` as journaled; false if the journal already held or claimed
  /// it.  The dispatcher's guard against merging an experiment twice.
  bool claim(ExperimentId id) { return done_.insert(id).second; }

  /// Appends `batch` as one frame and fsyncs it.
  void append(std::span<const ExperimentRecord> batch);

  /// Dedupes, writes the v3 image, and hands the log over; the journal is
  /// closed afterwards.
  CampaignLog finish();

  std::size_t size() const noexcept { return log_.size(); }
  bool resumed() const noexcept { return resumed_; }
  /// The records journaled so far; right after open, the loaded ones.
  std::span<const ExperimentRecord> records() const noexcept {
    return log_.records();
  }
  std::uint64_t torn_frames() const noexcept { return torn_frames_; }
  /// Appends plus the final compaction.
  std::uint64_t flushes() const noexcept { return flushes_; }

 private:
  void count_write(std::uint64_t bytes);

  std::string path_;
  telemetry::Telemetry* telemetry_;
  CampaignLog log_;
  std::unordered_set<ExperimentId> done_;
  util::AppendLog file_;
  bool resumed_ = false;
  std::uint64_t torn_frames_ = 0;
  std::uint64_t flushes_ = 0;
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
/// every chunk.  Where the executor folds evidence (the in-process pool;
/// the supervisor without snapshots), owed ids run in descending site order
/// and the settled cutoffs are published between chunks.  Throws std::invalid_argument if options.path is empty or
/// an existing journal belongs to a different program configuration, and
/// std::runtime_error if the journal exists but is corrupt or a flush
/// cannot be written.
CheckpointRunResult run_campaign_checkpointed(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, const CheckpointOptions& options);

}  // namespace ftb::campaign
