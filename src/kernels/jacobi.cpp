#include "kernels/jacobi.h"

#include "util/rng.h"
#include "util/table.h"

namespace ftb::kernels {

std::string JacobiConfig::key() const {
  return util::format("jacobi:nx=%zu:ny=%zu:sweeps=%zu:seed=%llu:atol=%g:rtol=%g",
                      nx, ny, sweeps,
                      static_cast<unsigned long long>(rhs_seed), atol, rtol);
}

JacobiProgram::JacobiProgram(JacobiConfig config)
    : config_(config),
      structure_(linalg::CsrMatrix::poisson5(config_.nx, config_.ny)),
      rhs_(unknowns()) {
  util::Rng rng(config_.rhs_seed);
  for (double& v : rhs_) v = rng.next_double(-1.0, 1.0);
}

std::vector<double> JacobiProgram::run(fi::Tracer& t) const {
  return t.with_stepper([this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<double> JacobiProgram::body(Stepper& t) const {
  const std::size_t n = unknowns();
  const auto row_ptr = structure_.row_ptr();
  const auto col_idx = structure_.col_idx();
  const auto values = structure_.values();

  t.phase("setup");
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = t.step(rhs_[i]);
  std::vector<double> x(n), next(n);
  for (double& v : x) v = t.step(0.0);

  t.phase("sweeps");
  for (std::size_t sweep = 0; sweep < config_.sweeps; ++sweep) {
    for (std::size_t row = 0; row < n; ++row) {
      double diag = 1.0;
      double off_sum = 0.0;
      for (std::size_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
        const std::size_t col = col_idx[k];
        if (col == row) {
          diag = values[k];
        } else {
          off_sum += values[k] * x[col];
        }
      }
      next[row] = t.step((b[row] - off_sum) / diag);
    }
    x.swap(next);
  }
  return x;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> JacobiProgram::body(fi::Tracer&) const;

}  // namespace ftb::kernels
