// Campaign logs: persistent records of executed experiments.
//
// Fault-injection experiments are the expensive resource; their outcomes
// are tiny.  A CampaignLog captures every (experiment id, outcome,
// injected error) pair keyed by the program configuration, so that
//
//   * long campaigns survive interruption (campaign/checkpoint.h journals
//     every chunk, a re-invocation resumes from the file),
//   * logs from independent machines/seeds can be merged,
//   * boundaries can be *rebuilt* from a log under different analysis
//     settings (e.g. filter on/off) by re-running only the masked
//     experiments in compare mode (fold_log_evidence) -- a small fraction
//     of the original cost.  A checkpointed run folds that evidence while
//     it runs (campaign/evidence.h), so only records without it replay.
//
// On disk a log takes one of two shapes, both starting with the magic
// "FTB-CLOG" and a version word, and both storing each record as the same
// seven u64 words (id, outcome, crash reason, injected error, output error,
// crash site, flags):
//
//   * the image (v3, v2 still loads): config key, record count, records,
//     then a CRC-32 of everything before it.  save() writes it durably; a
//     finished or drained journal is one.  Any damage is refused.
//   * the in-flight journal (v4): config key and a CRC-32 of that header,
//     then frames, each a record count n, n records and a CRC-32 of the
//     frame.  A checkpointed run appends one frame per chunk
//     (encode_journal_frame) instead of rewriting the file.  A torn tail --
//     a last frame whose declared length runs past end-of-file, or that
//     ends exactly at end-of-file with a bad CRC -- is what a crash
//     mid-append leaves; the loader drops it and counts it.  A bad frame
//     with bytes after it is corruption and is refused with its offset.
//
// CRC-32 words are stored as u64.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "boundary/accumulator.h"
#include "boundary/boundary.h"
#include "campaign/campaign.h"
#include "campaign/evidence.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "telemetry/events.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

class CampaignLog {
 public:
  CampaignLog() = default;
  explicit CampaignLog(std::string config_key)
      : config_key_(std::move(config_key)) {}

  const std::string& config_key() const noexcept { return config_key_; }
  const std::vector<ExperimentRecord>& records() const noexcept {
    return records_;
  }
  std::size_t size() const noexcept { return records_.size(); }

  /// Appends records; duplicates (same experiment id) are kept -- dedupe()
  /// removes them (outcomes are deterministic, so any copy is as good).
  void append(std::span<const ExperimentRecord> batch);

  /// Makes room for `records` records in all.
  void reserve(std::size_t records) { records_.reserve(records); }

  /// Removes duplicate experiment ids and sorts by id.
  void dedupe();

  /// Merges another log for the same configuration (throws
  /// std::invalid_argument on key mismatch) and dedupes.
  void merge(const CampaignLog& other);

  /// Experiment ids in the log, sorted (after dedupe()).
  std::vector<ExperimentId> ids() const;

  /// Binary (de)serialisation.  serialize() and save() write the v3
  /// image; deserialize() and load() read v2, v3 and v4 (see the top of
  /// this file).  On failure they return nullopt and, when `error` is
  /// non-null, store a one-line diagnosis there (bad magic / unsupported
  /// version / CRC mismatch / truncated / corrupt frame at an offset /
  /// ...); load() prefixes it with the path.  A v4 load drops a torn last
  /// frame and, when `torn_frames` is non-null, stores how many it dropped
  /// (0 or 1) there.  Records load in file order, duplicates included.
  std::string serialize() const;
  static std::optional<CampaignLog> deserialize(
      const std::string& payload, std::string* error = nullptr,
      std::uint64_t* torn_frames = nullptr);
  bool save(const std::string& path) const;
  static std::optional<CampaignLog> load(const std::string& path,
                                         std::string* error = nullptr,
                                         std::uint64_t* torn_frames = nullptr);

 private:
  std::string config_key_;
  std::vector<ExperimentRecord> records_;
};

/// The v4 journal header for `config_key`: magic, version 4, the key and a
/// CRC-32 of those bytes.  A journal with no records is just this.
std::string encode_journal_header(const std::string& config_key);

/// One v4 journal frame: the record count, the records in the image's
/// encoding and a CRC-32 of the frame.
std::string encode_journal_frame(std::span<const ExperimentRecord> records);

/// What the masked replay of a log did.
struct ReplayStats {
  std::uint64_t replayed = 0;    // masked classic records re-run
  std::uint64_t mismatches = 0;  // re-runs that did not re-classify Masked
  std::size_t threads = 0;       // workers that shared the replay
  std::uint64_t folded = 0;      // masked records the first pass covered
  bool first_pass_dropped = false;  // first-pass evidence did not resolve
};

/// Sites [begin, end) whose *unfiltered* propagation maximum a caller wants
/// besides the boundary evidence (a section's exit window).
struct ReplayWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Everything a log contributes to a boundary.
struct LogEvidence {
  /// Injection evidence plus one propagation value per site; its
  /// propagation tallies (nonfinite_skipped, filter_rejected) do not count
  /// the values the replay dropped before folding.
  boundary::BoundaryAccumulator accumulator;
  ReplayStats stats;
  /// Largest finite propagated error any folded replay showed inside the
  /// requested window, ignoring the Section 3.5 filter (0 without one).
  double window_max = 0.0;
};

/// Builds a log's boundary evidence.  The record pass feeds every classic
/// record's injected error to the accumulator, which fixes each site's
/// final propagation_cutoff().  Each site then takes one propagation value:
/// the largest finite, positive diff below its cutoff that a masked run
/// showed there, from two sources merged by max.
///
///   * `first`, the evidence run_campaign_checkpointed folded as it ran
///     (campaign/evidence.h), resolved against the final cutoffs.  It
///     covers the masked records its run executed with folding on.
///   * The replay of every other masked classic record: re-run in Compare
///     mode on the pool's workers, each folding diffs[j] for j >= the
///     injection site into a private per-site max below the cutoff.  Only
///     re-runs that re-classify Masked are folded -- Algorithm 1's guard; a
///     record whose replay disagrees (a forged or foreign journal) is
///     dropped and counted in `stats.mismatches`.
///
/// Both merge by max and each site's value enters the accumulator once, so
/// the result is byte-identical to a serial fold for every thread count,
/// order and split between the two.  Evidence that does not resolve
/// against this log's cutoffs is dropped whole and everything replays
/// (`stats.first_pass_dropped`).  Burst and memory-resident records
/// (fi/memfault.h) describe a different fault model than the boundary and
/// are skipped.  With an active `telemetry`, records a `boundary.replay`
/// span (replayed, threads, mismatches, folded) and the counter
/// `boundary.replay_mismatches`.
LogEvidence fold_log_evidence(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              const CampaignLog& log,
                              const boundary::AccumulatorOptions& options,
                              util::ThreadPool& pool,
                              telemetry::Telemetry* telemetry = nullptr,
                              ReplayWindow window = {},
                              const FirstPassEvidence* first = nullptr);

/// Rebuilds a boundary from a log through fold_log_evidence.  The program
/// configuration must match the log's key (checked).
boundary::FaultToleranceBoundary boundary_from_log(
    const fi::Program& program, const fi::GoldenRun& golden,
    const CampaignLog& log, const boundary::AccumulatorOptions& options,
    util::ThreadPool& pool, telemetry::Telemetry* telemetry = nullptr,
    const FirstPassEvidence* first = nullptr);

}  // namespace ftb::campaign
