// Blocked, non-pivoting dense LU factorisation -- the SPLASH-2 LU stand-in.
//
// The algorithm follows the SPLASH-2 kernel: the matrix is processed in
// BxB blocks; for each diagonal block step the kernel (1) factors the
// diagonal block, (2) updates the column panel (L blocks) and row panel
// (U blocks), and (3) applies rank-B updates to the trailing interior
// blocks.  The paper's Figure 4 attributes the four low-propagation regions
// of its LU profile to these per-block loop starts, which this structure
// reproduces.  The input matrix is diagonally dominant so factoring without
// pivoting is numerically safe (same requirement as SPLASH-2).
//
// Every stored matrix element passes through the tracer: the initial fill
// and every write performed by the factorisation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fi/program.h"

namespace ftb::kernels {

struct LuConfig {
  std::size_t n = 16;          // matrix dimension
  std::size_t block = 8;       // block size (must divide n)
  std::uint64_t matrix_seed = 11;
  double atol = 1e-8;
  double rtol = 1e-6;

  std::string key() const;
};

class LuProgram final : public fi::Program {
 public:
  explicit LuProgram(LuConfig config);

  std::string name() const override { return "lu"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  /// Output: the packed LU factors, row-major (L strictly below the
  /// diagonal with implicit unit diagonal, U on/above it).
  std::vector<double> run(fi::Tracer& tracer) const override;

  /// The kernel, written once over any stepper (fi/tracer.h); see
  /// CgProgram::body.
  template <typename Stepper>
  std::vector<double> body(Stepper& t) const;

  const LuConfig& config() const noexcept { return config_; }

 private:
  LuConfig config_;
  std::vector<double> source_;  // untraced input matrix, built once
};

}  // namespace ftb::kernels
