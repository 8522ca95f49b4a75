// First-pass boundary evidence: Algorithm 1's propagation fold done while a
// campaign runs, instead of by re-running its masked experiments afterwards.
//
// A masked run injected at site s contributes diffs[j] = |x_j' - x_j| for
// every j >= s.  Each site keeps the largest finite positive value and,
// under the Section 3.5 filter, only values strictly below the site's
// cutoff: the smallest injected error of an SDC run at that site.  That
// cutoff is known only once every experiment at the site has run, which is
// why the masked runs used to be replayed after the campaign.
//
// The fold is exact in any order because a site's final cutoff is either
// +inf or the injected error of one of that site's own experiments,
// |flip(golden[j], b) - golden[j]|, and that value is known before anything
// runs.  Those values are the site's *candidate* cutoffs.  So:
//
//   * a *settled* site -- every experiment at it has a final record -- has
//     a published final cutoff, and a fold there is one compare and a max;
//   * a fold into an unsettled site keeps one max per interval between the
//     site's candidate cutoffs, resolved when the campaign has finished;
//   * every site also keeps an unfiltered max, so one pass serves the
//     filter on or off and a section's exit window.
//
// The runner executes owed ids in descending site order and, between
// journal chunks, publishes newly settled cutoffs and the *frontier*: the
// lowest site at and above which every site is settled.  A run folds
// [frontier, sites) on the cheap path without looking, and checks each
// site below the frontier; with descending order that is only the sites of
// the chunk in flight.
//
// Folders run *lane groups*: up to four consecutive owed ids that start at
// the same golden state, run through one kernel pass
// (fi::run_injected_group) when the program has a lane body.  A group's
// masked lanes fold together: each lane's values below the frontier take
// the settled or interval path one by one, and at and above it one
// vertical max over the lanes goes into the partial.  Max is exact in any
// order, so a group folds exactly what its experiments fold one at a time.
//
// Folders are the in-process pool's tasks or the supervised pool's forked
// workers.  Each folds into a private partial in one shared anonymous
// mapping, so a forked worker's folds are visible to the runner; partials
// merge by max after every chunk.  A chunk that saw a worker death, hang or
// in-process fallback has its partials discarded (a dying hazard flip may
// have scribbled on them) and its records replayed instead.  The replay
// (campaign::fold_log_evidence) is the same fold with every site settled,
// and also covers records loaded from a journal at resume and records from
// executors that do not fold (the per-batch sandbox, the snapshot server,
// the remote dispatcher).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sample_space.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

/// Counters of one first pass.
struct FirstPassStats {
  std::uint64_t folded = 0;           ///< masked classic runs folded
  std::uint64_t values = 0;           ///< suffix values those runs visited
  std::uint64_t interval_values = 0;  ///< of those, values at sites not yet
                                      ///< settled (the interval path)
  std::uint64_t discarded_chunks = 0; ///< chunks whose partials were dropped
};

/// Lane groups the folders of one chunk ran (FirstPass::settle): `lanes`
/// experiments in `groups` kernel passes.
struct GroupCounts {
  std::uint64_t groups = 0;
  std::uint64_t lanes = 0;
};

/// The merged evidence of a first pass (FirstPass::finish), consumed by
/// campaign::fold_log_evidence.  Every site is resolved against the cutoff
/// its records gave it.  Default-constructed, it covers nothing and every
/// masked record is replayed.
class FirstPassEvidence {
 public:
  /// True when the first pass folded nothing (or did not run).
  bool empty() const noexcept { return covered_count_ == 0; }

  /// True when the first pass ran `id` with folding on: if its run was
  /// masked, its propagation is already in this evidence.
  bool covers(ExperimentId id) const noexcept;

  /// Each site's propagation value from the folded runs: with `filter`, the
  /// largest value strictly below `cutoffs[j]` (the site's final Section
  /// 3.5 cutoff, +inf without SDC evidence); without, the largest finite
  /// value.  Returns false, with `values` empty, when the evidence does not
  /// fit these cutoffs -- a site was resolved against a different cutoff,
  /// or against one that was not among its candidates -- and the caller
  /// replays instead.
  bool resolve(std::span<const double> cutoffs, bool filter,
               std::vector<double>& values) const;

  /// Largest unfiltered value the folded runs showed at sites [begin, end).
  double window_max(std::uint64_t begin, std::uint64_t end) const;

  const FirstPassStats& stats() const noexcept { return stats_; }

 private:
  friend class FirstPass;
  std::vector<double> cutoffs_;        // the cutoff each site resolved against
  std::vector<double> best_;           // max strictly below it
  std::vector<double> raw_;            // max finite value
  std::vector<std::uint64_t> covered_; // per site, the bits of covered ids
  std::uint64_t covered_count_ = 0;
  bool fits_ = true;  // every settled site found its cutoff among candidates
  FirstPassStats stats_;
};

/// The fold engine one checkpointed run drives (campaign/checkpoint.h).
///
/// Folders call run_group() concurrently, each with its own index; the runner
/// calls settle() after every chunk, while no folder runs, and finish() at
/// the end.  The shared mapping is made before any worker forks and freed
/// with this object.
class FirstPass {
 public:
  /// `loaded` holds the records that are final before the run starts (a
  /// resumed journal's, including ids outside `owed`); `owed` the ids the
  /// run will execute; `folders` the number of concurrent folders.
  FirstPass(const fi::GoldenRun& golden,
            std::span<const ExperimentRecord> loaded,
            std::span<const ExperimentId> owed, std::size_t folders);
  ~FirstPass();
  FirstPass(const FirstPass&) = delete;
  FirstPass& operator=(const FirstPass&) = delete;

  /// False when the shared mapping could not be made; nothing then folds
  /// and every record is replayed.
  bool ok() const noexcept { return base_ != nullptr; }

  /// Runs one experiment as fi::run_injected would and, for a classic
  /// (single bit, trace) injection, in Compare mode: a Masked result folds
  /// its suffix into folder `folder`'s partial.  Results are identical to
  /// run_injected's.  Callable from pool threads and forked workers.
  fi::ExperimentResult run(const fi::Program& program,
                           const fi::GoldenRun& golden,
                           const fi::Injection& injection,
                           std::size_t folder);

  /// Runs the lane group at the front of `injections` -- its leading
  /// classic injections, at most fi::kLanes, that start at the same golden
  /// state, or just the first when the program has no lane body -- in one
  /// kernel pass, writes each experiment's result -- identical to
  /// run_injected's -- to the front of `results`, folds the masked ones
  /// into folder `folder`'s partial, and returns the group's size.
  /// Callable from pool threads and forked workers.
  std::size_t run_group(const fi::Program& program, const fi::GoldenRun& golden,
                        std::span<const fi::Injection> injections,
                        std::span<fi::ExperimentResult> results,
                        std::size_t folder);

  /// Runs `ids` on `pool`, each task claiming one lane group at a time
  /// with its own folder; records in `ids` order.
  std::vector<ExperimentRecord> run_chunk(const fi::Program& program,
                                          const fi::GoldenRun& golden,
                                          std::span<const ExperimentId> ids,
                                          util::ThreadPool& pool);

  /// Ends a chunk whose records are final: merges the partials (`keep`) or
  /// drops them, then settles the sites whose last owed record this was --
  /// resolving their interval slots and publishing their cutoffs -- and
  /// publishes the new frontier.  Returns the lane groups the chunk ran
  /// (none counted when its partials are dropped).
  GroupCounts settle(std::span<const ExperimentRecord> chunk, bool keep);

  /// The merged evidence.  Sites still owed records (a stopped run) are
  /// resolved against the records seen.  The engine is spent afterwards.
  FirstPassEvidence finish();

 private:
  struct Header;
  struct Partial;
  std::size_t group_size(const fi::Program& program,
                         const fi::GoldenRun& golden,
                         std::span<const fi::Injection> injections) const;
  Partial partial(std::size_t folder) const noexcept;
  void fold(std::uint64_t site, Partial& part) const noexcept;
  void fold_group(std::span<const fi::Injection> injections,
                  const fi::GroupResults& results,
                  Partial& part) const noexcept;
  std::uint64_t fold_below(std::uint64_t begin, std::uint64_t end,
                           const double* diffs, std::size_t stride,
                           std::ptrdiff_t top, Partial& part) const noexcept;
  void resolve_site(std::uint64_t site);

  std::size_t sites_;
  std::size_t folders_;
  std::vector<std::uint32_t> pending_;  // owed classic ids per site not yet final
  std::vector<double> min_sdc_;         // smallest finite SDC injected error so far
  std::uint64_t frontier_;              // the runner's copy
  // Candidate cutoffs: site j's are candidates_[offsets_[j], offsets_[j+1]),
  // ascending.  Slot k holds the max folded value v with
  // candidates_[k-1] <= v < candidates_[k] (0 below a site's first).
  std::vector<std::uint32_t> offsets_;
  std::vector<double> candidates_;
  std::unordered_map<std::uint32_t, double> slots_;  // merged, nonzero only
  FirstPassEvidence merged_;

  // The shared mapping: a header (the published frontier), the published
  // cutoffs (NaN while unsettled), then one block per folder.
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  Header* header_ = nullptr;
  double* cutoffs_ = nullptr;
  std::size_t folder_stride_ = 0;  // bytes per folder block
};

}  // namespace ftb::campaign
