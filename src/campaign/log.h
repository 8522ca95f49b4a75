// Campaign logs: persistent records of executed experiments.
//
// Fault-injection experiments are the expensive resource; their outcomes
// are tiny.  A CampaignLog captures every (experiment id, outcome,
// injected error) pair keyed by the program configuration, so that
//
//   * long campaigns survive interruption (append + save, resume later),
//   * logs from independent machines/seeds can be merged,
//   * boundaries can be *rebuilt* from a log under different analysis
//     settings (e.g. filter on/off) by re-running only the masked
//     experiments in compare mode (fold_log_evidence) -- a small fraction
//     of the original cost.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "boundary/accumulator.h"
#include "boundary/boundary.h"
#include "campaign/campaign.h"
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

  /// Removes duplicate experiment ids and sorts by id.
  void dedupe();

  /// Merges another log for the same configuration (throws
  /// std::invalid_argument on key mismatch) and dedupes.
  void merge(const CampaignLog& other);

  /// Experiment ids in the log, sorted (after dedupe()).
  std::vector<ExperimentId> ids() const;

  /// Binary (de)serialisation.  Format v2 frames the payload with a magic
  /// number, a version word and a trailing CRC-32 of everything before it,
  /// so torn writes and bit rot are detected instead of silently yielding a
  /// short or garbled log.  On failure deserialize()/load() return nullopt
  /// and, when `error` is non-null, store a one-line diagnosis there
  /// (bad magic / unsupported version / CRC mismatch / truncated / ...).
  std::string serialize() const;
  static std::optional<CampaignLog> deserialize(const std::string& payload,
                                                std::string* error = nullptr);
  bool save(const std::string& path) const;
  static std::optional<CampaignLog> load(const std::string& path,
                                         std::string* error = nullptr);

 private:
  std::string config_key_;
  std::vector<ExperimentRecord> records_;
};

/// What the masked replay of a log did.
struct ReplayStats {
  std::uint64_t replayed = 0;    // masked classic records re-run
  std::uint64_t mismatches = 0;  // re-runs that did not re-classify Masked
  std::size_t threads = 0;       // workers that shared the replay
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

/// Builds a log's boundary evidence in two passes.  The record pass feeds
/// every classic record's injected error to the accumulator, which fixes
/// each site's final propagation_cutoff().  The replay then re-runs the
/// masked classic records in Compare mode on the pool's workers; each
/// worker folds diffs[j] for j >= the injection site into a private
/// per-site max when the value is finite, positive and below the cutoff.
/// The partials merge with max and each site's value enters the
/// accumulator once, so the result is byte-identical to a serial fold for
/// every thread count and order.  Only re-runs that re-classify Masked are
/// folded -- Algorithm 1's guard; a record whose replay disagrees (a forged
/// or foreign journal) is dropped and counted in `stats.mismatches`.
/// Burst and memory-resident records (fi/memfault.h) describe a different
/// fault model than the boundary and are skipped.  With an active
/// `telemetry`, records a `boundary.replay` span (replayed, threads,
/// mismatches) and the counter `boundary.replay_mismatches`.
LogEvidence fold_log_evidence(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              const CampaignLog& log,
                              const boundary::AccumulatorOptions& options,
                              util::ThreadPool& pool,
                              telemetry::Telemetry* telemetry = nullptr,
                              ReplayWindow window = {});

/// Rebuilds a boundary from a log through fold_log_evidence.  The program
/// configuration must match the log's key (checked).
boundary::FaultToleranceBoundary boundary_from_log(
    const fi::Program& program, const fi::GoldenRun& golden,
    const CampaignLog& log, const boundary::AccumulatorOptions& options,
    util::ThreadPool& pool, telemetry::Telemetry* telemetry = nullptr);

}  // namespace ftb::campaign
