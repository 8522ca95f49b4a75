// The value type of a lane group: four fault-injection experiments carried
// side by side, one per lane, through one pass of a kernel body.
//
// Every arithmetic operator applies the same IEEE operation to each lane,
// in the same order as on a double, so lane l computes bit for bit what a
// scalar run of its experiment computes.  The four doubles are two 128-bit
// halves: the baseline x86-64 build (SSE2) runs each operator as two packed
// instructions, and no wider vector ISA or fused multiply-add is involved.
// A kernel body written over its stepper's value type (fi/tracer.h) runs on
// double for one experiment and on Lanes for a group.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ftb::fi {

/// Lanes per group: the width of Lanes.
inline constexpr std::size_t kLanes = 4;

class Lanes {
 public:
  Lanes() noexcept = default;
  /// Broadcast: every lane holds `v` (constants, golden values).
  Lanes(double v) noexcept : lo_{v, v}, hi_{v, v} {}  // NOLINT: implicit

  double operator[](std::size_t lane) const noexcept {
    return lane < 2 ? lo_[lane] : hi_[lane - 2];
  }
  void set(std::size_t lane, double v) noexcept {
    if (lane < 2) {
      lo_[lane] = v;
    } else {
      hi_[lane - 2] = v;
    }
  }

  friend Lanes operator+(Lanes a, Lanes b) noexcept {
    return {a.lo_ + b.lo_, a.hi_ + b.hi_};
  }
  friend Lanes operator-(Lanes a, Lanes b) noexcept {
    return {a.lo_ - b.lo_, a.hi_ - b.hi_};
  }
  friend Lanes operator*(Lanes a, Lanes b) noexcept {
    return {a.lo_ * b.lo_, a.hi_ * b.hi_};
  }
  friend Lanes operator/(Lanes a, Lanes b) noexcept {
    return {a.lo_ / b.lo_, a.hi_ / b.hi_};
  }
  Lanes& operator+=(Lanes b) noexcept { return *this = *this + b; }
  Lanes& operator-=(Lanes b) noexcept { return *this = *this - b; }

  /// |a| lane by lane: the sign bit cleared, as std::fabs does.
  friend Lanes abs_lanes(Lanes a) noexcept {
    const Bits mask = {~kSign, ~kSign};
    return {reinterpret_cast<Half>(reinterpret_cast<Bits>(a.lo_) & mask),
            reinterpret_cast<Half>(reinterpret_cast<Bits>(a.hi_) & mask)};
  }

  /// Bit l set when lane l is NaN or infinite.  x - x is 0 for a finite
  /// x and NaN otherwise.
  friend unsigned nonfinite_lanes(Lanes a) noexcept {
    const Half lo = a.lo_ - a.lo_;
    const Half hi = a.hi_ - a.hi_;
#if defined(__SSE2__)
    return static_cast<unsigned>(_mm_movemask_pd(_mm_cmpunord_pd(lo, lo))) |
           static_cast<unsigned>(_mm_movemask_pd(_mm_cmpunord_pd(hi, hi)))
               << 2;
#else
    return (lo[0] != lo[0] ? 1u : 0u) | (lo[1] != lo[1] ? 2u : 0u) |
           (hi[0] != hi[0] ? 4u : 0u) | (hi[1] != hi[1] ? 8u : 0u);
#endif
  }

  /// True when any lane is NaN or infinite: one test for the whole group.
  friend bool any_nonfinite(Lanes a) noexcept {
    const Half sum = (a.lo_ - a.lo_) + (a.hi_ - a.hi_);
#if defined(__SSE2__)
    return _mm_movemask_pd(_mm_cmpunord_pd(sum, sum)) != 0;
#else
    return sum[0] != sum[0] || sum[1] != sum[1];
#endif
  }

  /// Writes the four lanes to out[0..3].
  void store(double* out) const noexcept {
    std::memcpy(out, &lo_, sizeof(lo_));
    std::memcpy(out + 2, &hi_, sizeof(hi_));
  }

 private:
  using Half = double __attribute__((vector_size(16)));
  using Bits = std::uint64_t __attribute__((vector_size(16)));
  static constexpr std::uint64_t kSign = std::uint64_t{1} << 63;

  Lanes(Half lo, Half hi) noexcept : lo_(lo), hi_(hi) {}

  Half lo_{};
  Half hi_{};
};

}  // namespace ftb::fi
