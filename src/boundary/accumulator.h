// BoundaryAccumulator: streaming construction of the fault tolerance
// boundary from fault-injection experiments.
//
// This implements Algorithm 1 of the paper -- the boundary is the pointwise
// max over the propagation errors of all *masked* experiments -- plus two
// refinements:
//
//   * the Section 3.5 *filter operation*: a masked propagation value at
//     site j is rejected if it is >= the smallest injected error of a known
//     SDC experiment at j (non-monotonic sites would otherwise inflate the
//     threshold and cost precision);
//   * the Section 4.4 *exact sites*: once all 64 bit flips of a site have
//     been tested directly, the threshold is taken from the exhaustive rule
//     (largest masked injected error strictly below the smallest SDC
//     injected error) instead of from inference.
//
// Memory: the unfiltered path is a pure streaming max (O(1) per site).  The
// filtered path keeps a small bounded buffer of the largest surviving
// propagation values per site (default 32) because SDC evidence arriving
// later can invalidate previously accepted values.  Eviction can only make
// thresholds smaller, i.e. the filter stays conservative: precision is
// never hurt, recall can drop marginally.  Values rejected at insert time
// (>= the then-current SDC minimum) would also be rejected at finalize time
// because the minimum only decreases, so insert-time filtering loses
// nothing.
//
// The buffer exists only for that interleaving (the streaming campaign in
// campaign/inference.h).  When every injection is recorded before any
// propagation -- a finished log (campaign/log.h) -- each site's
// propagation_cutoff() is already final, the buffer's largest value is
// simply the max of the values below it, and a replay can pre-filter and
// max-fold in any order and on any number of threads, handing each site a
// single value.  A checkpointed campaign hands over the same single value
// without waiting for the log to finish (campaign/evidence.h): it folds
// into one max per interval between a site's candidate cutoffs -- the
// injected errors its own experiments can have -- until the site settles.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "boundary/boundary.h"
#include "fi/outcome.h"

namespace ftb::boundary {

struct AccumulatorOptions {
  bool filter = false;           // Section 3.5 filter operation
  std::size_t prop_buffer_cap = 32;  // per-site buffer in filtered mode
};

class BoundaryAccumulator {
 public:
  BoundaryAccumulator(std::size_t sites, AccumulatorOptions options = {});

  std::size_t sites() const noexcept { return site_count_; }

  /// Records a direct injection experiment at `site` flipping `bit`.
  /// All outcomes matter here: masked injections are threshold evidence,
  /// SDC injections feed the filter and the exact-site rule, crash
  /// injections only mark the bit as tested.
  void record_injection(std::size_t site, int bit, fi::Outcome outcome,
                        double injected_error);

  /// Records the propagation data of one *masked* experiment: diffs[j] is
  /// the absolute error observed at site j (0 where untouched).  Only call
  /// for experiments whose final outcome was Masked -- that is precisely
  /// Algorithm 1's guard.
  void record_masked_propagation(std::span<const double> diffs);

  /// Streaming single-value form of the above for the low-memory pipeline
  /// (fi/lowmem.h), which never materialises a diff vector.
  void record_masked_value(std::size_t site, double value);

  /// The Section 3.5 cutoff at `site`: a masked propagation value counts
  /// only when it is strictly below it.  The smallest finite SDC injected
  /// error recorded there, or +inf when unfiltered (or with no SDC evidence
  /// yet).  Only ever decreases, and is final once every injection has been
  /// recorded.  record_masked_value() applies exactly this rule.
  double propagation_cutoff(std::size_t site) const noexcept {
    return options_.filter ? states_[site].min_sdc_inj : kNoSdc;
  }

  /// Per-site count of tested bits (64 -> the site is exact).
  std::uint32_t tested_bits(std::size_t site) const noexcept;

  /// Per-site detector evidence: direct injections at `site` that were
  /// classified Detected / SDC respectively.
  std::uint32_t detected_count(std::size_t site) const noexcept {
    return states_[site].detected;
  }
  std::uint32_t sdc_count(std::size_t site) const noexcept {
    return states_[site].sdc;
  }

  /// Detector coverage at `site`: detected / (detected + sdc), the share of
  /// wrong outputs originating here that the detector caught.  0 with no
  /// evidence (conservative: an untested site claims no coverage).
  double detected_coverage(std::size_t site) const noexcept {
    const std::uint64_t wrong = std::uint64_t{states_[site].detected} +
                                std::uint64_t{states_[site].sdc};
    return wrong ? static_cast<double>(states_[site].detected) /
                       static_cast<double>(wrong)
                 : 0.0;
  }

  /// Totals over all sites (the campaign-level detector summary).
  std::uint64_t total_detected() const noexcept;
  std::uint64_t total_sdc() const noexcept;

  /// Per-site detected_coverage() as a dense vector, for the phase report
  /// (boundary/report.h) and figure emitters.
  std::vector<double> coverage_profile() const;

  /// Masked propagation values dropped because they were NaN/Inf (an
  /// |x' - x| diff can overflow to +inf even between finite trace values).
  /// Surfaced by boundary::render_build_health; nonzero means some masked
  /// runs carried overflowing intermediate corruption.
  std::uint64_t nonfinite_skipped() const noexcept {
    return nonfinite_skipped_;
  }

  /// Filtered mode: propagation values rejected by the Section 3.5 filter,
  /// either at insert time (value >= the site's current SDC minimum) or
  /// pruned later when new SDC evidence lowered that minimum.
  std::uint64_t filter_rejected() const noexcept { return filter_rejected_; }

  /// Filtered mode: values evicted from a full per-site buffer (the
  /// smallest is dropped once prop_buffer_cap is exceeded).
  std::uint64_t prop_evicted() const noexcept { return prop_evicted_; }

  /// Builds the boundary from everything recorded so far.  Can be called
  /// repeatedly (the progressive sampler rebuilds every round).
  FaultToleranceBoundary finalize() const;

  const AccumulatorOptions& options() const noexcept { return options_; }

 private:
  struct SiteState {
    // Direct-injection evidence.
    std::uint64_t tested_mask = 0;       // bits already flipped at this site
    double masked_inj_max = 0.0;         // largest masked injected error
    double min_sdc_inj = kNoSdc;         // smallest SDC injected error
    // Largest masked injected error strictly below min_sdc_inj needs the
    // full set; 64 experiments max, so a compact sorted vector is exact.
    std::vector<double> masked_inj;      // all masked injected errors
    // Propagation evidence (Algorithm 1).
    double prop_max = 0.0;               // unfiltered running max
    std::vector<double> prop_buffer;     // filtered mode: top values kept
    // Detector evidence (fi/detector.h): coverage = detected/(detected+sdc).
    std::uint32_t detected = 0;          // injections classified kDetected
    std::uint32_t sdc = 0;               // injections classified kSdc
  };

  // +inf: no SDC evidence seen yet at a site.
  static constexpr double kNoSdc = std::numeric_limits<double>::infinity();

  void insert_filtered(SiteState& state, double value);

  std::size_t site_count_;
  AccumulatorOptions options_;
  std::vector<SiteState> states_;
  std::uint64_t nonfinite_skipped_ = 0;
  std::uint64_t filter_rejected_ = 0;
  std::uint64_t prop_evicted_ = 0;
};

}  // namespace ftb::boundary
