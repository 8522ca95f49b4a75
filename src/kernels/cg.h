// Conjugate gradient on a 2-D Poisson operator -- the MiniFE stand-in.
//
// The program structure deliberately mirrors the phases the paper's Figure 4
// discussion attributes to the CG/MiniFE benchmark:
//
//   phase 0: zero-initialisation of the solution and work vectors (the
//            paper's "first 80 dynamic instructions initialise floating
//            point variables to zero"),
//   phase 1: one-shot setup -- right-hand side and operator assembly (the
//            "initialization instructions ... executed only once", to which
//            later errors never propagate),
//   phase 2: the fixed-count CG iterations, whose values are repeatedly
//            overwritten and therefore receive lots of propagated error.
//
// Every stored floating-point data element (vector elements, matrix values,
// and the scalar alphas/betas/dot products) passes through the tracer.  The
// iteration count is fixed: no data-dependent control flow, so faulty runs
// execute the exact same dynamic-instruction sequence.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fi/program.h"
#include "linalg/csr.h"

namespace ftb::kernels {

struct CgConfig {
  std::size_t nx = 6;          // grid width  (unknowns = nx * ny)
  std::size_t ny = 6;          // grid height
  std::size_t iterations = 30; // fixed count, enough to converge at 6x6
  std::uint64_t rhs_seed = 7;  // deterministic right-hand side
  double atol = 1e-8;          // output acceptance (paper's user tolerance T)
  double rtol = 1e-6;
  std::size_t threads = 1;     // >1: deterministic sharded vector loops
  bool detector = false;       // ABFT residual-recompute check on the output

  std::string key() const;
};

class CgProgram final : public fi::Program {
 public:
  explicit CgProgram(CgConfig config);

  std::string name() const override { return "cg"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  std::vector<double> run(fi::Tracer& tracer) const override;
  std::optional<std::vector<fi::Lanes>> run_lanes(
      fi::LaneGroup& group) const override;

  /// The kernel, written once over any stepper and its value type
  /// (fi/tracer.h).  run() calls it on the stepper compiled for the
  /// tracer's mode, or on the Tracer itself; run_lanes() on a lane stepper;
  /// calling it on a Tracer directly always takes the generic path.
  template <typename Stepper>
  std::vector<typename Stepper::value_type> body(Stepper& t) const;

  /// Recomputed-residual ABFT check (||b - A x|| against the golden run's
  /// converged residual) when CgConfig::detector is set; nullptr otherwise.
  const fi::Detector* detector() const noexcept override {
    return detector_.get();
  }

  const CgConfig& config() const noexcept { return config_; }
  std::size_t unknowns() const noexcept { return config_.nx * config_.ny; }

  /// Dynamic-instruction index where each phase begins, for report labels:
  /// [0] zero-init start (always 0), [1] setup start, [2] iterations start.
  struct PhaseMarkers {
    std::uint64_t zero_init = 0;
    std::uint64_t setup = 0;
    std::uint64_t iterations = 0;
  };
  PhaseMarkers phase_markers() const;

 private:
  CgConfig config_;
  // Untraced per-config inputs, built once and stepped like any other
  // value: the operator's structure and reference values, and the
  // right-hand side.
  linalg::CsrMatrix structure_;
  std::vector<double> rhs_;
  fi::DetectorPtr detector_;
};

}  // namespace ftb::kernels
