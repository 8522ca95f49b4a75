// Mini BLAS kernels (daxpy, dot, dense matvec) as tiny instrumented
// programs.  They serve three purposes: fast unit-test subjects for the
// executor and boundary machinery, the Section 5 monotonicity cases
// (matrix-vector products have f(eps) = C * eps), and quickstart examples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fi/program.h"

namespace ftb::kernels {

struct DaxpyConfig {
  std::size_t n = 64;
  double alpha = 1.5;
  std::uint64_t seed = 41;
  double atol = 1e-9;
  double rtol = 1e-6;

  std::string key() const;
};

/// y = alpha * x + y, elementwise; output y.  Dynamic instructions: the
/// traced fills of x and y and the n update stores.
class DaxpyProgram final : public fi::Program {
 public:
  explicit DaxpyProgram(DaxpyConfig config);

  std::string name() const override { return "daxpy"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }
  std::vector<double> run(fi::Tracer& tracer) const override;

  /// The kernel, written once over any stepper (fi/tracer.h); see
  /// CgProgram::body.
  template <typename Stepper>
  std::vector<double> body(Stepper& t) const;

  const DaxpyConfig& config() const noexcept { return config_; }

 private:
  DaxpyConfig config_;
  std::vector<double> x_source_, y_source_;  // untraced inputs, built once
};

struct MatvecConfig {
  std::size_t n = 16;            // square matrix dimension
  std::size_t repeats = 4;       // chained products y <- A*y (error growth)
  std::uint64_t seed = 43;
  double atol = 1e-9;
  double rtol = 1e-6;

  std::string key() const;
};

/// Repeated dense matrix-vector products -- the Section 5 example of a
/// monotonic kernel (output error is linear in the injected error).
class MatvecProgram final : public fi::Program {
 public:
  explicit MatvecProgram(MatvecConfig config);

  std::string name() const override { return "matvec"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }
  std::vector<double> run(fi::Tracer& tracer) const override;

  /// The kernel, written once over any stepper (fi/tracer.h); see
  /// CgProgram::body.
  template <typename Stepper>
  std::vector<double> body(Stepper& t) const;

  const MatvecConfig& config() const noexcept { return config_; }

 private:
  MatvecConfig config_;
  // Untraced inputs, built once: the scaled matrix, then the vector.
  std::vector<double> a_source_, y_source_;
};

}  // namespace ftb::kernels
