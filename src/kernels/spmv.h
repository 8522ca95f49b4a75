// Chained sparse matrix-vector products y <- A * y on the 2-D Poisson
// operator -- the "sparse ... matrix multiplication" case of the paper's
// Section 5 monotonicity analysis (f(eps) = C * eps), and the computational
// core of the iterative solvers whose resiliency the paper's Related Work
// studies (Shantharam et al.: error growth across a series of SpMVs).
//
// Traced data elements: the matrix-value array, the input vector, and every
// product element store per repetition.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fi/program.h"
#include "linalg/csr.h"

namespace ftb::kernels {

struct SpmvConfig {
  std::size_t nx = 6;          // Poisson grid (matrix is (nx*ny)^2, 5-point)
  std::size_t ny = 6;
  std::size_t repeats = 8;     // chained products
  std::uint64_t seed = 71;
  double atol = 1e-9;
  double rtol = 1e-6;
  std::size_t threads = 1;     // >1: deterministic sharded row loops
  bool detector = false;       // ABFT sum-checksum on the output vector

  std::string key() const;
};

class SpmvProgram final : public fi::Program {
 public:
  explicit SpmvProgram(SpmvConfig config);

  std::string name() const override { return "spmv"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  /// Output: y after `repeats` products (scaled to keep magnitudes stable).
  std::vector<double> run(fi::Tracer& tracer) const override;

  /// The kernel, written once over any stepper (fi/tracer.h); see
  /// CgProgram::body.
  template <typename Stepper>
  std::vector<double> body(Stepper& t) const;

  /// Column-checksum detector (sum(y) against the golden sum) when
  /// SpmvConfig::detector is set; nullptr otherwise.
  const fi::Detector* detector() const noexcept override {
    return detector_.get();
  }

  const SpmvConfig& config() const noexcept { return config_; }

 private:
  SpmvConfig config_;
  // Untraced per-config inputs, built once and stepped like any other
  // value: the operator and the input vector.
  linalg::CsrMatrix structure_;
  std::vector<double> init_;
  fi::DetectorPtr detector_;
};

}  // namespace ftb::kernels
