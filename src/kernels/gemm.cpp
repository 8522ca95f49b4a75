#include "kernels/gemm.h"

#include <cassert>

#include "util/rng.h"
#include "util/table.h"

namespace ftb::kernels {

std::string GemmConfig::key() const {
  std::string key =
      util::format("gemm:n=%zu:b=%zu:seed=%llu:atol=%g:rtol=%g", n, block,
                   static_cast<unsigned long long>(seed), atol, rtol);
  if (detector) key += ":det=1";  // detector off keeps the historical key
  return key;
}

GemmProgram::GemmProgram(GemmConfig config)
    : config_(config),
      a_source_(config_.n * config_.n),
      b_source_(config_.n * config_.n) {
  assert(config_.block > 0 && config_.n % config_.block == 0);
  util::Rng rng(config_.seed);
  for (double& v : a_source_) v = rng.next_double(-1.0, 1.0);
  for (double& v : b_source_) v = rng.next_double(-1.0, 1.0);
  if (config_.detector) {
    // Full-checksum GEMM (Huang & Abraham 1984): sum(C) equals the product
    // of the input checksum vectors in the fault-free run, so the golden
    // sum is the checksum the augmented kernel would carry.
    detector_ = std::make_unique<fi::ChecksumDetector>(/*atol=*/1e-8,
                                                       /*rtol=*/1e-6);
  }
}

std::vector<double> GemmProgram::run(fi::Tracer& t) const {
  return t.with_stepper([this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<double> GemmProgram::body(Stepper& t) const {
  const std::size_t n = config_.n;
  const std::size_t nb = config_.block;

  t.phase("fill-a");
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (std::size_t i = 0; i < n * n; ++i) a[i] = t.step(a_source_[i]);
  t.phase("fill-b");
  for (std::size_t i = 0; i < n * n; ++i) b[i] = t.step(b_source_[i]);

  t.phase("multiply");
  // Blocked i-k-j schedule: for each k tile, C tiles accumulate one rank-nb
  // update; the store after each update is the traced data element.
  for (std::size_t k0 = 0; k0 < n; k0 += nb) {
    for (std::size_t i0 = 0; i0 < n; i0 += nb) {
      for (std::size_t j0 = 0; j0 < n; j0 += nb) {
        for (std::size_t i = i0; i < i0 + nb; ++i) {
          for (std::size_t j = j0; j < j0 + nb; ++j) {
            double sum = c[i * n + j];
            for (std::size_t k = k0; k < k0 + nb; ++k) {
              sum += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = t.step(sum);
          }
        }
      }
    }
  }
  return c;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> GemmProgram::body(fi::Tracer&) const;

}  // namespace ftb::kernels
