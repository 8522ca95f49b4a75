// Blocked dense matrix-matrix multiply (C = A * B).  Section 5 of the paper
// derives that matrix products have a *monotonic* error function
// f(eps) = C * eps, which makes GEMM the cleanest large kernel for
// validating the boundary machinery -- and a realistic analysis subject
// (ABFT for matrix multiplication, Huang & Abraham 1984, is the classic
// related work the paper cites).
//
// Traced data elements: both input matrices' fills and every output tile
// store (one write per C element per k-block, as a blocked GEMM performs).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fi/program.h"

namespace ftb::kernels {

struct GemmConfig {
  std::size_t n = 12;       // square matrices, n x n
  std::size_t block = 4;    // tile size (must divide n)
  std::uint64_t seed = 57;
  double atol = 1e-9;
  double rtol = 1e-6;
  bool detector = false;    // ABFT sum-checksum over C (Huang & Abraham)

  std::string key() const;
};

class GemmProgram final : public fi::Program {
 public:
  explicit GemmProgram(GemmConfig config);

  std::string name() const override { return "gemm"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  /// Output: C, row-major.
  std::vector<double> run(fi::Tracer& tracer) const override;

  /// The kernel, written once over any stepper (fi/tracer.h); see
  /// CgProgram::body.
  template <typename Stepper>
  std::vector<double> body(Stepper& t) const;

  /// Sum-checksum over C (the Huang & Abraham 1984 full-checksum equality)
  /// when GemmConfig::detector is set; nullptr otherwise.
  const fi::Detector* detector() const noexcept override {
    return detector_.get();
  }

  const GemmConfig& config() const noexcept { return config_; }

 private:
  GemmConfig config_;
  // Untraced inputs, built once: both matrices, drawn a first, then b.
  std::vector<double> a_source_, b_source_;
  fi::DetectorPtr detector_;
};

}  // namespace ftb::kernels
