#include "kernels/cg.h"

#include <cmath>
#include <limits>
#include <memory>

#include "kernels/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace ftb::kernels {

std::string CgConfig::key() const {
  std::string key = util::format(
      "cg:nx=%zu:ny=%zu:it=%zu:seed=%llu:atol=%g:rtol=%g", nx, ny, iterations,
      static_cast<unsigned long long>(rhs_seed), atol, rtol);
  // threads = 1 and detector off keep the historical key, so every golden
  // trace, journal, and boundary artifact recorded before these options
  // existed stays valid.
  if (threads > 1) key += util::format(":thr=%zu", threads);
  if (detector) key += ":det=1";
  return key;
}

namespace {

/// The deterministic right-hand side both run() and the residual detector
/// derive from the config seed.
std::vector<double> make_rhs(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> rhs(n);
  for (double& v : rhs) v = rng.next_double(-1.0, 1.0);
  return rhs;
}

}  // namespace

CgProgram::CgProgram(CgConfig config)
    : config_(config),
      structure_(linalg::CsrMatrix::poisson5(config_.nx, config_.ny)),
      rhs_(make_rhs(unknowns(), config_.rhs_seed)) {
  if (config_.detector) {
    // Recomputed residual ||b - A x||_2: the classic solver ABFT check.
    // The closure owns golden copies of the operator and rhs, so corrupted
    // program state can never perturb the check itself.
    auto structure = std::make_shared<linalg::CsrMatrix>(structure_);
    auto rhs = std::make_shared<std::vector<double>>(rhs_);
    detector_ = std::make_unique<fi::InvariantDetector>(
        "cg-residual",
        [structure, rhs](std::span<const double> x) {
          if (x.size() != rhs->size()) {
            return std::numeric_limits<double>::quiet_NaN();
          }
          const auto row_ptr = structure->row_ptr();
          const auto col_idx = structure->col_idx();
          const auto values = structure->values();
          double norm2 = 0.0;
          for (std::size_t row = 0; row < x.size(); ++row) {
            double sum = 0.0;
            for (std::size_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
              sum += values[k] * x[col_idx[k]];
            }
            const double r = (*rhs)[row] - sum;
            norm2 += r * r;
          }
          return std::sqrt(norm2);
        },
        // A single output error delta moves the residual by ~||A e_i|| *
        // delta (a factor of a few for the Poisson operator), so this
        // tolerance sits safely between the comparator's SDC threshold and
        // the fault-free residual's rounding noise.
        /*atol=*/1e-7, /*rtol=*/1e-3);
  }
}

std::vector<double> CgProgram::run(fi::Tracer& t) const {
  return run_body(t, config_.threads,
                  [this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<double> CgProgram::body(Stepper& t) const {
  const std::size_t n = unknowns();
  const std::size_t threads = config_.threads > 0 ? config_.threads : 1;
  const auto row_ptr = structure_.row_ptr();
  const auto col_idx = structure_.col_idx();
  const auto ref_values = structure_.values();

  std::vector<double> x(n), r(n), p(n), ap(n);
  std::vector<double> a_values(ref_values.size());
  double rr = 0.0;

  const auto matvec_into = [&](const std::vector<double>& in,
                               std::vector<double>& out) {
    traced_parallel_for(t, n, threads, [&](std::size_t row, auto& s) {
      double sum = 0.0;
      for (std::size_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
        sum += a_values[k] * in[col_idx[k]];
      }
      out[row] = s.step(sum);
    });
  };
  const auto dot = [&](const std::vector<double>& u,
                       const std::vector<double>& v) {
    // Partial sums are untraced and folded in fixed thread order; only the
    // final value passes through the tracer, exactly like the serial path.
    const double sum = reduced_parallel_sum(
        n, threads, [&](std::size_t i) { return u[i] * v[i]; });
    return t.step(sum);
  };

  // Stage 0 (fi/tracer.h): everything before the first iteration.  A run
  // that starts later takes the operator values it copied from the
  // constructor's.
  if (t.stage({})) {
    // --- Phase 0: zero-initialisation of all work vectors (traced). -------
    t.phase("zero-init");
    traced_parallel_for(t, n, threads,
                        [&](std::size_t i, auto& s) { x[i] = s.step(0.0); });
    traced_parallel_for(t, n, threads,
                        [&](std::size_t i, auto& s) { r[i] = s.step(0.0); });
    traced_parallel_for(t, n, threads,
                        [&](std::size_t i, auto& s) { p[i] = s.step(0.0); });
    traced_parallel_for(t, n, threads,
                        [&](std::size_t i, auto& s) { ap[i] = s.step(0.0); });

    // --- Phase 1: one-shot setup: right-hand side and operator assembly. --
    t.phase("setup");
    std::vector<double> b(n);
    traced_parallel_for(t, n, threads, [&](std::size_t i, auto& s) {
      b[i] = s.step(rhs_[i]);
    });
    traced_parallel_for(t, ref_values.size(), threads,
                        [&](std::size_t k, auto& s) {
                          a_values[k] = s.step(ref_values[k]);
                        });
    // Assembled state is now live in memory: a resident fault flipped here
    // is read back by every later matvec (fi/memfault.h).
    t.touch(a_values);
    t.touch(b);

    // r = b - A*x0, p = r, rr = <r, r>.
    matvec_into(x, ap);
    traced_parallel_for(t, n, threads, [&](std::size_t i, auto& s) {
      r[i] = s.step(b[i] - ap[i]);
    });
    traced_parallel_for(t, n, threads,
                        [&](std::size_t i, auto& s) { p[i] = s.step(r[i]); });
    rr = dot(r, r);

    // --- Phase 2: fixed-count CG iterations. -------------------------------
    t.phase("iterations");
    t.touch(r);
    t.touch(p);
  } else {
    a_values.assign(ref_values.begin(), ref_values.end());
  }

  // Stage 1 + iter: one iteration, reading x, r, p and rr (ap is written
  // before it is read).
  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    if (!t.stage({x, r, p, {&rr, 1}})) continue;
    matvec_into(p, ap);
    const double p_ap = dot(p, ap);
    const double alpha = t.step(rr / p_ap);
    traced_parallel_for(t, n, threads, [&](std::size_t i, auto& s) {
      x[i] = s.step(x[i] + alpha * p[i]);
    });
    traced_parallel_for(t, n, threads, [&](std::size_t i, auto& s) {
      r[i] = s.step(r[i] - alpha * ap[i]);
    });
    const double rr_next = dot(r, r);
    const double beta = t.step(rr_next / rr);
    traced_parallel_for(t, n, threads, [&](std::size_t i, auto& s) {
      p[i] = s.step(r[i] + beta * p[i]);
    });
    rr = rr_next;
  }

  return x;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> CgProgram::body(fi::Tracer&) const;

CgProgram::PhaseMarkers CgProgram::phase_markers() const {
  const std::uint64_t n = unknowns();
  PhaseMarkers markers;
  markers.zero_init = 0;
  markers.setup = 4 * n;
  // setup: b (n) + A values (nnz); then r/p/rr prologue: ap (n) + r (n) +
  // p (n) + rr (1) still belongs to setup for reporting purposes.
  markers.iterations = markers.setup + n + structure_.nonzeros() + 3 * n + 1;
  return markers;
}

}  // namespace ftb::kernels
