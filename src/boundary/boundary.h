// The fault tolerance boundary (paper Section 3.2): one threshold value per
// dynamic instruction.  An error of magnitude <= threshold injected at that
// site is predicted to yield a Masked (acceptable) outcome; anything larger
// is predicted SDC.  A threshold of 0 means "no information" (sites without
// samples are assumed vulnerable, Section 4.4); +infinity means the site
// provably cannot affect the output.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace ftb::boundary {

class FaultToleranceBoundary {
 public:
  FaultToleranceBoundary() = default;

  /// `thresholds[i]` is Delta-e_i.  `exact[i]` marks sites whose threshold
  /// came from enumerating all 64 bit flips rather than from inference
  /// (Section 4.4 uses the correct value for fully-tested sites).  A
  /// boundary without exact sites -- every sampled one -- keeps no flags.
  explicit FaultToleranceBoundary(std::vector<double> thresholds,
                                  std::vector<std::uint8_t> exact = {});

  std::size_t sites() const noexcept { return thresholds_.size(); }

  double threshold(std::size_t site) const noexcept { return thresholds_[site]; }
  bool is_exact(std::size_t site) const noexcept {
    return !exact_.empty() && exact_[site] != 0;
  }

  std::span<const double> thresholds() const noexcept { return thresholds_; }

  /// True when some site is exact; otherwise no per-site flags are stored.
  bool any_exact() const noexcept { return !exact_.empty(); }

  /// The paper's definition: errors <= Delta-e are tolerated.
  bool predict_masked(std::size_t site, double injected_error) const noexcept {
    return injected_error <= thresholds_[site];
  }

  /// Number of sites with any information (threshold > 0).
  std::size_t informed_sites() const noexcept;

  /// Pointwise max with another boundary over the same program (used when
  /// combining boundaries built from independent sample batches).
  void merge_max(const FaultToleranceBoundary& other);

  static constexpr double kUnknown = 0.0;
  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();

 private:
  std::vector<double> thresholds_;
  std::vector<std::uint8_t> exact_;
};

}  // namespace ftb::boundary
