#include "kernels/blas1.h"

#include "util/rng.h"
#include "util/table.h"

namespace ftb::kernels {

std::string DaxpyConfig::key() const {
  return util::format("daxpy:n=%zu:alpha=%g:seed=%llu:atol=%g:rtol=%g", n,
                      alpha, static_cast<unsigned long long>(seed), atol, rtol);
}

DaxpyProgram::DaxpyProgram(DaxpyConfig config)
    : config_(config), x_source_(config_.n), y_source_(config_.n) {
  util::Rng rng(config_.seed);
  for (double& v : x_source_) v = rng.next_double(-1.0, 1.0);
  for (double& v : y_source_) v = rng.next_double(-1.0, 1.0);
}

std::vector<double> DaxpyProgram::run(fi::Tracer& t) const {
  return t.with_stepper([this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<double> DaxpyProgram::body(Stepper& t) const {
  const std::size_t n = config_.n;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = t.step(x_source_[i]);
  for (std::size_t i = 0; i < n; ++i) y[i] = t.step(y_source_[i]);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = t.step(config_.alpha * x[i] + y[i]);
  }
  return y;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> DaxpyProgram::body(fi::Tracer&) const;

std::string MatvecConfig::key() const {
  return util::format("matvec:n=%zu:rep=%zu:seed=%llu:atol=%g:rtol=%g", n,
                      repeats, static_cast<unsigned long long>(seed), atol,
                      rtol);
}

MatvecProgram::MatvecProgram(MatvecConfig config)
    : config_(config),
      a_source_(config_.n * config_.n),
      y_source_(config_.n) {
  util::Rng rng(config_.seed);
  // Mildly scaled so repeated products neither explode nor vanish (rows
  // scaled to roughly unit 1-norm).
  for (double& v : a_source_) {
    v = rng.next_double(-1.0, 1.0) / static_cast<double>(config_.n);
  }
  for (double& v : y_source_) v = rng.next_double(-1.0, 1.0);
}

std::vector<double> MatvecProgram::run(fi::Tracer& t) const {
  return t.with_stepper([this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<double> MatvecProgram::body(Stepper& t) const {
  const std::size_t n = config_.n;

  // Traced matrix and vector fill.
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n * n; ++i) a[i] = t.step(a_source_[i]);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = t.step(y_source_[i]);

  std::vector<double> next(n);
  for (std::size_t rep = 0; rep < config_.repeats; ++rep) {
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) sum += a[i * n + j] * y[j];
      next[i] = t.step(sum);
    }
    y.swap(next);
  }
  return y;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> MatvecProgram::body(fi::Tracer&) const;

}  // namespace ftb::kernels
