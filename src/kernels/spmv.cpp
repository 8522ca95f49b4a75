#include "kernels/spmv.h"

#include "kernels/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace ftb::kernels {

std::string SpmvConfig::key() const {
  std::string key = util::format(
      "spmv:nx=%zu:ny=%zu:rep=%zu:seed=%llu:atol=%g:rtol=%g", nx, ny, repeats,
      static_cast<unsigned long long>(seed), atol, rtol);
  // threads = 1 and detector off keep the historical key (see CgConfig).
  if (threads > 1) key += util::format(":thr=%zu", threads);
  if (detector) key += ":det=1";
  return key;
}

SpmvProgram::SpmvProgram(SpmvConfig config)
    : config_(config),
      structure_(linalg::CsrMatrix::poisson5(config_.nx, config_.ny)),
      init_(structure_.rows()) {
  util::Rng rng(config_.seed);
  for (double& v : init_) v = rng.next_double(-1.0, 1.0);
  if (config_.detector) {
    // The ABFT column-checksum equality sum(A y) = (c^T) y holds exactly in
    // the fault-free run, so comparing sum(output) against the golden sum
    // is precisely the check a checksum-augmented SpMV would maintain.
    detector_ = std::make_unique<fi::ChecksumDetector>(/*atol=*/1e-8,
                                                       /*rtol=*/1e-6);
  }
}

std::vector<double> SpmvProgram::run(fi::Tracer& t) const {
  return run_body(t, config_.threads,
                  [this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<double> SpmvProgram::body(Stepper& t) const {
  const std::size_t n = structure_.rows();
  const std::size_t threads = config_.threads > 0 ? config_.threads : 1;
  const auto row_ptr = structure_.row_ptr();
  const auto col_idx = structure_.col_idx();
  const auto ref_values = structure_.values();

  // The Poisson operator has spectral radius < 8; scale by 1/8 so chained
  // products neither explode nor vanish.
  t.phase("matrix");
  std::vector<double> values(ref_values.size());
  traced_parallel_for(t, ref_values.size(), threads,
                      [&](std::size_t k, auto& s) {
                        values[k] = s.step(ref_values[k] / 8.0);
                      });

  t.phase("vector");
  std::vector<double> y(n), next(n);
  traced_parallel_for(t, n, threads,
                      [&](std::size_t i, auto& s) { y[i] = s.step(init_[i]); });

  // Matrix and input vector are live between phases: memory-resident
  // faults land here and are read back by every product (fi/memfault.h).
  t.touch(values);
  t.touch(y);

  t.phase("products");
  for (std::size_t rep = 0; rep < config_.repeats; ++rep) {
    traced_parallel_for(t, n, threads, [&](std::size_t row, auto& s) {
      double sum = 0.0;
      for (std::size_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
        sum += values[k] * y[col_idx[k]];
      }
      next[row] = s.step(sum);
    });
    y.swap(next);
  }
  return y;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> SpmvProgram::body(fi::Tracer&) const;

}  // namespace ftb::kernels
