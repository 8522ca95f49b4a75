// 2-D five-point Jacobi stencil -- the paper's Section 5 example of a kernel
// whose output error is provably monotonic in the injected error
// (f(eps) = C * eps for the averaging stencil), used by the property tests
// and as a fourth analysis subject.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fi/program.h"

namespace ftb::kernels {

struct StencilConfig {
  std::size_t nx = 8;           // interior width
  std::size_t ny = 8;           // interior height
  std::size_t iterations = 6;   // Jacobi sweeps
  std::uint64_t init_seed = 31; // deterministic initial field
  double atol = 1e-9;
  double rtol = 1e-6;
  std::size_t threads = 1;      // >1: deterministic sharded sweep loops
  bool detector = false;        // ABFT row-sum invariant on the output

  std::string key() const;
};

/// Each sweep writes s(x_ij) = 0.2 * (c + n + s + e + w) into a second
/// buffer (Jacobi, not Gauss-Seidel, so the update order cannot leak
/// information).  Boundary values are a fixed frame of zeros.  Traced data
/// elements: the initial interior fill and every sweep's stores.
class StencilProgram final : public fi::Program {
 public:
  explicit StencilProgram(StencilConfig config);

  std::string name() const override { return "stencil2d"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  std::vector<double> run(fi::Tracer& tracer) const override;

  /// The kernel, written once over any stepper (fi/tracer.h); see
  /// CgProgram::body.
  template <typename Stepper>
  std::vector<double> body(Stepper& t) const;

  /// Alternating-sign row-sum invariant (stride nx) when
  /// StencilConfig::detector is set; nullptr otherwise.
  const fi::Detector* detector() const noexcept override {
    return detector_.get();
  }

  const StencilConfig& config() const noexcept { return config_; }

 private:
  StencilConfig config_;
  std::vector<double> init_;  // untraced interior fill, built once
  fi::DetectorPtr detector_;
};

}  // namespace ftb::kernels
