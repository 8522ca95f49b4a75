#include "kernels/fft.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <optional>
#include <utility>

#include "util/rng.h"
#include "util/table.h"

namespace ftb::kernels {

namespace {

[[maybe_unused]] bool is_power_of_two(std::size_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

/// In-place radix-2 DIT FFT over one contiguous row of a split complex
/// array.  Every store is traced.  The butterfly factors cos/sin(-2 pi k /
/// len) are pure functions of the loop indices (program constants, like
/// literal coefficients), so they are not injection sites themselves; the
/// *results* of every butterfly are.
template <typename Stepper, typename V = typename Stepper::value_type>
void fft_row(Stepper& t, V* re, V* im, std::size_t m,
             const double* butterfly_cos, const double* butterfly_sin) {
  // Bit-reversal permutation (index-driven; the moved values are stores).
  for (std::size_t i = 1, j = 0; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      const V tr = re[i];
      const V ti = im[i];
      re[i] = t.step(re[j]);
      im[i] = t.step(im[j]);
      re[j] = t.step(tr);
      im[j] = t.step(ti);
    }
  }

  for (std::size_t len = 2; len <= m; len <<= 1) {
    const std::size_t half = len / 2;
    const double* stage_cos = butterfly_cos + (half - 1);
    const double* stage_sin = butterfly_sin + (half - 1);
    for (std::size_t base = 0; base < m; base += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const double c = stage_cos[k];
        const double s = stage_sin[k];
        const std::size_t lo = base + k;
        const std::size_t hi = lo + half;
        const V ur = re[lo];
        const V ui = im[lo];
        const V vr = re[hi] * c - im[hi] * s;
        const V vi = re[hi] * s + im[hi] * c;
        re[lo] = t.step(ur + vr);
        im[lo] = t.step(ui + vi);
        re[hi] = t.step(ur - vr);
        im[hi] = t.step(ui - vi);
      }
    }
  }
}

}  // namespace

std::string FftConfig::key() const {
  return util::format("fft:n1=%zu:n2=%zu:seed=%llu:atol=%g:rtol=%g", n1, n2,
                      static_cast<unsigned long long>(signal_seed), atol, rtol);
}

FftProgram::FftProgram(FftConfig config) : config_(config) {
  assert(is_power_of_two(config_.n1));
  assert(is_power_of_two(config_.n2));
  const std::size_t n = config_.n();
  util::Rng rng(config_.signal_seed);
  signal_re_.resize(n);
  signal_im_.resize(n);
  for (double& v : signal_re_) v = rng.next_double(-1.0, 1.0);
  for (double& v : signal_im_) v = rng.next_double(-1.0, 1.0);

  table_cos_.resize(n);
  table_sin_.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(m) / static_cast<double>(n);
    table_cos_[m] = std::cos(angle);
    table_sin_[m] = std::sin(angle);
  }

  const std::size_t longest = std::max(config_.n1, config_.n2);
  for (std::size_t len = 2; len <= longest; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      butterfly_cos_.push_back(std::cos(angle * static_cast<double>(k)));
      butterfly_sin_.push_back(std::sin(angle * static_cast<double>(k)));
    }
  }
}

std::vector<double> FftProgram::run(fi::Tracer& t) const {
  return t.with_stepper([this](auto& stepper) { return body(stepper); });
}

std::optional<std::vector<fi::Lanes>> FftProgram::run_lanes(
    fi::LaneGroup& group) const {
  return group.with_stepper([this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<typename Stepper::value_type> FftProgram::body(Stepper& t) const {
  using V = typename Stepper::value_type;
  const std::size_t n1 = config_.n1;
  const std::size_t n2 = config_.n2;
  const std::size_t n = n1 * n2;
  std::vector<V> a_re(n), a_im(n), tw_re(n), tw_im(n);
  std::vector<V> b_re(n), b_im(n), c_re(n), c_im(n);
  std::vector<V> out(2 * n);

  // Stages (fi/tracer.h) start at every phase and every row FFT.  The input
  // and the twiddle table copy constructor constants, so a run that skips
  // them copies the constants; b and c are stored while they are read.

  // Input signal (traced fill), viewed as an n1 x n2 row-major matrix.
  if (t.stage({})) {
    t.phase("input");
    for (std::size_t i = 0; i < n; ++i) a_re[i] = t.step(signal_re_[i]);
    for (std::size_t i = 0; i < n; ++i) a_im[i] = t.step(signal_im_[i]);
  } else {
    a_re.assign(signal_re_.begin(), signal_re_.end());
    a_im.assign(signal_im_.begin(), signal_im_.end());
  }

  // Twiddle table w_n^m for m in [0, n) (traced; SPLASH-2 precomputes the
  // same "roots of unity" array).
  if (t.stage({})) {
    t.phase("twiddle-table");
    for (std::size_t m = 0; m < n; ++m) {
      tw_re[m] = t.step(table_cos_[m]);
      tw_im[m] = t.step(table_sin_[m]);
    }
  } else {
    tw_re.assign(table_cos_.begin(), table_cos_.end());
    tw_im.assign(table_sin_.begin(), table_sin_.end());
  }

  // Step 1: transpose a (n1 x n2) -> b (n2 x n1).
  if (t.stage({})) {
    t.phase("transpose-1");
    for (std::size_t j2 = 0; j2 < n2; ++j2) {
      for (std::size_t j1 = 0; j1 < n1; ++j1) {
        b_re[j2 * n1 + j1] = t.step(a_re[j1 * n2 + j2]);
        b_im[j2 * n1 + j1] = t.step(a_im[j1 * n2 + j2]);
      }
    }
  }

  // Step 2: n2 row FFTs of length n1.
  t.phase("row-ffts-1");
  for (std::size_t j2 = 0; j2 < n2; ++j2) {
    if (!t.stage({b_re, b_im})) continue;
    fft_row(t, b_re.data() + j2 * n1, b_im.data() + j2 * n1, n1,
            butterfly_cos_.data(), butterfly_sin_.data());
  }

  // Step 3: twiddle -- b[j2][k1] *= w_n^(j2 * k1).
  if (t.stage({b_re, b_im})) {
    t.phase("twiddle-multiply");
    for (std::size_t j2 = 0; j2 < n2; ++j2) {
      for (std::size_t k1 = 0; k1 < n1; ++k1) {
        const std::size_t m = (j2 * k1) % n;
        const V wr = tw_re[m];
        const V wi = tw_im[m];
        const std::size_t idx = j2 * n1 + k1;
        const V xr = b_re[idx];
        const V xi = b_im[idx];
        b_re[idx] = t.step(xr * wr - xi * wi);
        b_im[idx] = t.step(xr * wi + xi * wr);
      }
    }
  }

  // Step 4: transpose b (n2 x n1) -> c (n1 x n2).
  if (t.stage({b_re, b_im})) {
    t.phase("transpose-2");
    for (std::size_t k1 = 0; k1 < n1; ++k1) {
      for (std::size_t j2 = 0; j2 < n2; ++j2) {
        c_re[k1 * n2 + j2] = t.step(b_re[j2 * n1 + k1]);
        c_im[k1 * n2 + j2] = t.step(b_im[j2 * n1 + k1]);
      }
    }
  }

  // Step 5: n1 row FFTs of length n2.
  t.phase("row-ffts-2");
  for (std::size_t k1 = 0; k1 < n1; ++k1) {
    if (!t.stage({c_re, c_im})) continue;
    fft_row(t, c_re.data() + k1 * n2, c_im.data() + k1 * n2, n2,
            butterfly_cos_.data(), butterfly_sin_.data());
  }

  // Step 6: transpose into the natural-order spectrum: out[k2*n1 + k1].
  if (t.stage({c_re, c_im})) {
    t.phase("transpose-out");
    for (std::size_t k2 = 0; k2 < n2; ++k2) {
      for (std::size_t k1 = 0; k1 < n1; ++k1) {
        out[2 * (k2 * n1 + k1)] = t.step(c_re[k1 * n2 + k2]);
        out[2 * (k2 * n1 + k1) + 1] = t.step(c_im[k1 * n2 + k2]);
      }
    }
  }
  return out;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> FftProgram::body(fi::Tracer&) const;

}  // namespace ftb::kernels
