// Six-step 1-D FFT -- the SPLASH-2 FFT stand-in.
//
// The length-n input (n = n1 * n2, both powers of two) is viewed as an
// n1-by-n2 matrix and transformed with the classic six-step algorithm:
//
//   1. transpose (n1 x n2 -> n2 x n1)
//   2. n2 independent n1-point FFTs (rows)
//   3. twiddle multiplication by w_n^(j2*k1)
//   4. transpose
//   5. n1 independent n2-point FFTs (rows)
//   6. transpose into the natural-order spectrum
//
// The paper's Figure 4 FFT discussion -- "the early dynamic instructions
// transpose an n1 x n2 matrix ... most of the data elements in the early
// region are accessed only a few times, so errors introduced there do not
// propagate readily" -- is a direct property of this structure.
//
// Traced data elements: the input signal fill, the twiddle-factor table,
// every transpose store, and every butterfly/twiddle store (re and im are
// separate doubles, as in the split-layout SPLASH-2 kernel).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fi/program.h"

namespace ftb::kernels {

struct FftConfig {
  std::size_t n1 = 8;             // rows (power of two)
  std::size_t n2 = 8;             // cols (power of two)
  std::uint64_t signal_seed = 23; // deterministic input signal
  double atol = 1e-8;
  double rtol = 1e-6;

  std::size_t n() const noexcept { return n1 * n2; }
  std::string key() const;
};

class FftProgram final : public fi::Program {
 public:
  explicit FftProgram(FftConfig config);

  std::string name() const override { return "fft"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  /// Output: the interleaved complex spectrum [re0, im0, re1, im1, ...] in
  /// natural frequency order.
  std::vector<double> run(fi::Tracer& tracer) const override;
  std::optional<std::vector<fi::Lanes>> run_lanes(
      fi::LaneGroup& group) const override;

  /// The kernel, written once over any stepper and its value type
  /// (fi/tracer.h); see CgProgram::body.
  template <typename Stepper>
  std::vector<typename Stepper::value_type> body(Stepper& t) const;

  const FftConfig& config() const noexcept { return config_; }

 private:
  FftConfig config_;
  // Untraced per-config inputs, built once: the input signal, the twiddle
  // table's cos/sin values (both stepped like any other value), and the
  // butterfly factors of every radix-2 stage up to max(n1, n2), stage
  // `len` at index len / 2 - 1 + k.
  std::vector<double> signal_re_, signal_im_;
  std::vector<double> table_cos_, table_sin_;
  std::vector<double> butterfly_cos_, butterfly_sin_;
};

}  // namespace ftb::kernels
