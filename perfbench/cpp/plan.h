// Seeded op schedules, request streams, reply checks and sample statistics
// for the ftb_perf benchmark client.  Everything here is a pure function of
// its arguments, so two runs with one seed send the same ops and the same
// queries, and the unit tests can pin each rule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "boundary/boundary.h"
#include "net/frame.h"

namespace perfbench {

/// SplitMix64 finaliser: the single mixing step every derived seed uses.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Derived seeds carry this bit, so they never equal the small fixed seeds
/// of the fixtures and the canary ops.
inline constexpr std::uint64_t kDerivedSeedBit = std::uint64_t{1} << 48;

/// Job seed of op `index` in a run seeded with `workload_seed`.  Seeds of
/// one run are consecutive from a seeded base, so they are distinct for
/// every index below 2^48 and each job journals under a fresh key.
std::uint64_t job_seed(std::uint64_t workload_seed, std::uint64_t index) noexcept;

/// Builds the "--section-batches" value for one override state: every
/// section whose budget differs from `default_budget`, as "name=N", in
/// plan order, comma-separated.  Empty when nothing is overridden.
std::string section_batches(const std::vector<std::string>& sections,
                            const std::vector<std::uint64_t>& budgets,
                            std::uint64_t default_budget);

/// One recompose op: lower one section's budget by one.
struct Edit {
  std::uint64_t index = 0;    ///< 0-based position in the schedule
  std::string section;        ///< the section that becomes dirty
  std::uint64_t budget = 0;   ///< its new experiment budget
  std::string overrides;      ///< section_batches() of the whole new state
};

/// The recompose schedule: edits rotate through the sections in plan order
/// and earlier overrides stay in place, so each section's budget strictly
/// decreases and every edit dirties exactly one section.
class EditSchedule {
 public:
  EditSchedule(std::vector<std::string> sections, std::uint64_t default_budget);

  /// The next edit; throws std::runtime_error once a budget would reach 0.
  Edit next();

  /// Edits the schedule holds in all, counting those already made.
  std::uint64_t capacity() const noexcept;

 private:
  std::vector<std::string> sections_;
  std::vector<std::uint64_t> budgets_;
  std::uint64_t default_budget_;
  std::uint64_t next_ = 0;
};

/// One predict query: PredictSite when `site_query`, else PredictFlip.
struct QueryDraw {
  std::uint32_t key = 0;  ///< index into the caller's key list
  std::uint64_t site = 0;
  std::uint32_t bit = 0;
  bool site_query = false;
};

/// `n` seeded draws over keys with `key_sites[i]` sites each; half of them,
/// in a seeded order, are PredictSite.
std::vector<QueryDraw> query_draws(std::uint64_t seed,
                                   const std::vector<std::uint64_t>& key_sites,
                                   std::size_t n);

/// The request frame for `draw` against store key `key`.
ftb::net::Frame request_frame(const QueryDraw& draw, const std::string& key);

/// Empty when `reply` answers `draw` exactly (bit for bit) as
/// boundary::predict_flip / predict_site do on `boundary` with golden
/// values `trace`; otherwise a one-line diagnostic.
std::string check_reply(const QueryDraw& draw, const ftb::net::Frame& reply,
                        const ftb::boundary::FaultToleranceBoundary& boundary,
                        const std::vector<double>& trace);

/// Nearest-rank percentile `p` in (0, 100] of `samples`.  Refuses (nullopt)
/// when fewer than `min_beyond` samples rank above it, so a tail is only
/// reported where the sample supports it.
std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond);

/// Samples a tail needs beyond it before it is reported.
inline constexpr std::size_t kTailSupport = 10;

/// 64-bit FNV-1a of a byte string, printed in op counts to show that a
/// seed's artifacts repeat run to run (sha256 checks live in run.py).
std::uint64_t fnv1a64(const std::string& bytes) noexcept;

}  // namespace perfbench
