// Jacobi iterative solver for the 2-D Poisson system A x = b.  A second
// iterative method alongside CG with a very different resiliency character:
// Jacobi is a *stationary* method whose error contracts by the iteration
// matrix every sweep regardless of history, so -- unlike CG with its
// recursive residual -- corruption anywhere in the state is self-healing as
// long as enough sweeps remain.  Comparing the two is exactly the
// iterative-methods discussion in the paper's Related Work (Bronevetsky &
// de Supinski; Chen's Online-ABFT).
//
// Traced data elements: b and x0 fills and every sweep's writes of x.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fi/program.h"
#include "linalg/csr.h"

namespace ftb::kernels {

struct JacobiConfig {
  std::size_t nx = 6;           // grid width (unknowns = nx * ny)
  std::size_t ny = 6;
  std::size_t sweeps = 60;      // fixed sweep count
  std::uint64_t rhs_seed = 63;
  double atol = 1e-8;
  double rtol = 1e-6;

  std::string key() const;
};

class JacobiProgram final : public fi::Program {
 public:
  explicit JacobiProgram(JacobiConfig config);

  std::string name() const override { return "jacobi"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  /// Output: the solution estimate x after the fixed sweep count.
  std::vector<double> run(fi::Tracer& tracer) const override;

  /// The kernel, written once over any stepper (fi/tracer.h); see
  /// CgProgram::body.
  template <typename Stepper>
  std::vector<double> body(Stepper& t) const;

  const JacobiConfig& config() const noexcept { return config_; }
  std::size_t unknowns() const noexcept { return config_.nx * config_.ny; }

 private:
  JacobiConfig config_;
  // Untraced per-config inputs, built once and stepped like any other
  // value: the operator and the right-hand side.
  linalg::CsrMatrix structure_;
  std::vector<double> rhs_;
};

}  // namespace ftb::kernels
