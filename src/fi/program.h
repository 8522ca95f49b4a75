// The Program interface: a deterministic, instrumented computation whose
// resiliency the library analyses.  Implementations (src/kernels) route
// every produced floating-point data element through the Tracer and must
// have no data-dependent control flow, so the dynamic-instruction sequence
// is identical across fault-free and fault-injected runs.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fi/detector.h"
#include "fi/outcome.h"
#include "fi/tracer.h"

namespace ftb::fi {

class Program {
 public:
  virtual ~Program() = default;

  /// Human-readable kernel name ("cg", "lu", "fft", ...).
  virtual std::string name() const = 0;

  /// Executes the computation, routing every produced FP data element
  /// through `tracer`, and returns the final output vector that outcome
  /// classification compares against the golden output.  May throw
  /// CrashSignal (from the tracer) on simulated abnormal termination.  A
  /// body written as a template over its stepper can run on the one
  /// `tracer.with_stepper()` compiles for the tracer's mode (fi/tracer.h).
  virtual std::vector<double> run(Tracer& tracer) const = 0;

  /// The lane body: runs the group's experiments side by side through one
  /// pass of the body over fi::Lanes -- `group.with_stepper(...)`, the
  /// counterpart of `tracer.with_stepper()` -- and returns the output
  /// lanes.  Lane l must compute exactly what run() computes for
  /// experiment l.  nullopt, the default, when the program has none: each
  /// experiment then runs on its own (fi::run_injected_group).
  virtual std::optional<std::vector<Lanes>> run_lanes(LaneGroup& group) const {
    (void)group;
    return std::nullopt;
  }

  /// The acceptance tolerance for this program's output (paper: the
  /// "acceptable tolerance level defined by the domain user").
  virtual OutputComparator comparator() const { return {}; }

  /// A short string identifying the exact configuration (matrix size,
  /// iterations, seeds...).  Used as part of ground-truth cache keys, so it
  /// must change whenever run() behaviour changes *or* classification
  /// behaviour changes (e.g. a detector is enabled).
  virtual std::string config_key() const = 0;

  /// The program's ABFT output detector, or nullptr when it runs without
  /// one (the default).  When present, the executor reclassifies SDC
  /// outcomes the detector catches as Outcome::kDetected.  The returned
  /// pointer must stay valid for the program's lifetime.
  virtual const Detector* detector() const noexcept { return nullptr; }
};

using ProgramPtr = std::unique_ptr<Program>;

}  // namespace ftb::fi
