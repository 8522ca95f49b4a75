#include "kernels/lu.h"

#include <cassert>
#include <span>

#include "linalg/dense.h"
#include "util/rng.h"
#include "util/table.h"

namespace ftb::kernels {

std::string LuConfig::key() const {
  return util::format("lu:n=%zu:b=%zu:seed=%llu:atol=%g:rtol=%g", n, block,
                      static_cast<unsigned long long>(matrix_seed), atol, rtol);
}

namespace {

/// The untraced input matrix.
std::vector<double> make_source(const LuConfig& config) {
  util::Rng rng(config.matrix_seed);
  const linalg::DenseMatrix source =
      linalg::DenseMatrix::random_diagonally_dominant(config.n, rng);
  return {source.data().begin(), source.data().end()};
}

}  // namespace

LuProgram::LuProgram(LuConfig config)
    : config_(config), source_(make_source(config_)) {
  assert(config_.block > 0 && config_.n % config_.block == 0);
}

std::vector<double> LuProgram::run(fi::Tracer& t) const {
  return t.with_stepper([this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<double> LuProgram::body(Stepper& t) const {
  const std::size_t n = config_.n;
  const std::size_t nb = config_.block;

  std::vector<double> a(n * n);
  const auto at = [&a, n](std::size_t r, std::size_t c) -> double& {
    return a[r * n + c];
  };

  // Stage 0 (fi/tracer.h): the initial fill (traced), diagonally dominant
  // so pivots stay healthy; a run that starts later copies the source
  // instead.  Then four stages per block step, each reading the whole
  // matrix.
  if (t.stage({})) {
    t.phase("init");
    for (std::size_t i = 0; i < n * n; ++i) a[i] = t.step(source_[i]);
  } else {
    a = source_;
  }

  for (std::size_t k0 = 0; k0 < n; k0 += nb) {
    const std::size_t k1 = k0 + nb;  // one past the diagonal block

    // (1) Factor the diagonal block in place (unblocked LU within it).  The
    // first block step starts from the source matrix itself.
    const std::span<double> live =
        k0 == 0 ? std::span<double>() : std::span<double>(a);
    if (t.stage({live})) {
      t.phase("block " + std::to_string(k0 / nb));
      for (std::size_t k = k0; k < k1; ++k) {
        const double pivot = at(k, k);
        for (std::size_t i = k + 1; i < k1; ++i) {
          const double factor = at(i, k) / pivot;
          at(i, k) = t.step(factor);
          for (std::size_t j = k + 1; j < k1; ++j) {
            at(i, j) = t.step(at(i, j) - factor * at(k, j));
          }
        }
      }
    }

    // (2a) Column panel: compute L blocks below the diagonal block.
    if (t.stage({a})) {
      for (std::size_t k = k0; k < k1; ++k) {
        const double pivot = at(k, k);
        for (std::size_t i = k1; i < n; ++i) {
          const double factor = at(i, k) / pivot;
          at(i, k) = t.step(factor);
          for (std::size_t j = k + 1; j < k1; ++j) {
            at(i, j) = t.step(at(i, j) - factor * at(k, j));
          }
        }
      }
    }

    // (2b) Row panel: forward-substitute the unit-L diagonal block through
    // the blocks to the right.
    if (t.stage({a})) {
      for (std::size_t k = k0; k < k1; ++k) {
        for (std::size_t i = k + 1; i < k1; ++i) {
          const double factor = at(i, k);
          for (std::size_t j = k1; j < n; ++j) {
            at(i, j) = t.step(at(i, j) - factor * at(k, j));
          }
        }
      }
    }

    // (3) Trailing submatrix: rank-nb update, one traced write per element
    // per block step (the blocked GEMM's single store).
    if (t.stage({a})) {
      for (std::size_t i = k1; i < n; ++i) {
        for (std::size_t j = k1; j < n; ++j) {
          double sum = at(i, j);
          for (std::size_t k = k0; k < k1; ++k) {
            sum -= at(i, k) * at(k, j);
          }
          at(i, j) = t.step(sum);
        }
      }
    }
  }

  return a;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> LuProgram::body(fi::Tracer&) const;

}  // namespace ftb::kernels
