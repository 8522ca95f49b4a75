#include "boundary/boundary.h"

#include <algorithm>
#include <cassert>

namespace ftb::boundary {

FaultToleranceBoundary::FaultToleranceBoundary(std::vector<double> thresholds,
                                               std::vector<std::uint8_t> exact)
    : thresholds_(std::move(thresholds)), exact_(std::move(exact)) {
  assert(exact_.empty() || exact_.size() == thresholds_.size());
  // All zero reads the same as none (is_exact, merge_max, serialize).
  if (std::none_of(exact_.begin(), exact_.end(),
                   [](std::uint8_t flag) { return flag != 0; })) {
    exact_ = std::vector<std::uint8_t>();
  }
}

std::size_t FaultToleranceBoundary::informed_sites() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(thresholds_.begin(), thresholds_.end(),
                    [](double t) { return t > 0.0; }));
}

void FaultToleranceBoundary::merge_max(const FaultToleranceBoundary& other) {
  assert(other.sites() == sites());
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    thresholds_[i] = std::max(thresholds_[i], other.thresholds_[i]);
  }
  if (!other.exact_.empty()) {
    if (exact_.empty()) {
      exact_ = other.exact_;
    } else {
      for (std::size_t i = 0; i < exact_.size(); ++i) {
        exact_[i] = exact_[i] || other.exact_[i];
      }
    }
  }
}

}  // namespace ftb::boundary
