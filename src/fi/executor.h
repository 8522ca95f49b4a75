// Experiment executors: golden runs, fault-injected runs, and fault-injected
// runs with error-propagation capture.  These are the only places that run
// Programs, so outcome classification is centralised here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fi/outcome.h"
#include "fi/program.h"
#include "fi/tracer.h"

namespace ftb::fi {

/// Everything the analysis needs from the fault-free execution.  Holding the
/// full trace is the memory cost the paper's "Overhead" section discusses:
/// one double per dynamic instruction.
struct GoldenRun {
  std::vector<double> trace;    // value produced at every dynamic instruction
  std::vector<double> output;   // final program output
  std::vector<PhaseMark> phases;  // phase announcements, by start index
  std::vector<std::uint64_t> touch_sizes;  // span length of each touch() call
  // The live state at the start of each stage the program declares
  // (Tracer::stage), by strictly increasing index below trace.size().
  std::vector<GoldenState> states;
  double tolerance = 0.0;       // comparator threshold for this output

  std::uint64_t dynamic_instructions() const noexcept { return trace.size(); }

  /// Total single-bit-flip experiments: 64 per dynamic instruction.
  std::uint64_t sample_space_size() const noexcept {
    return trace.size() * static_cast<std::uint64_t>(kBitsPerValue);
  }
};

/// Runs the program fault-free and records its trace and output.
GoldenRun run_golden(const Program& program);

/// Counts dynamic instructions without recording (cheap sizing pass).
std::uint64_t count_dynamic_instructions(const Program& program);

/// The golden state a run of `injection` starts from: the last one at or
/// before a trace-target site.  nullptr -- a whole run from instruction 0
/// -- for a memory-target fault, a site before the first state, or a
/// program that declares none.  run_injected and run_injected_compare
/// start there on a mode stepper (fi/tracer.h); the generic Tracer, a
/// sharded run and an armed snapshot hook still run whole.
const GoldenState* start_state(const GoldenRun& golden,
                               const Injection& injection) noexcept;

/// Runs one fault-injection experiment and classifies the outcome.  For
/// trace-target injections the site must be < golden.trace.size(); for
/// memory-target injections (fi/memfault.h) the word/touch_point must lie
/// within golden.touch_sizes.  When the program carries a detector, SDC
/// outcomes the detector catches become Outcome::kDetected.
ExperimentResult run_injected(const Program& program, const GoldenRun& golden,
                              const Injection& injection);

/// Classifies a run that finished (program.run returned `output`): exactly
/// the rule run_injected applies after a non-crashing run.  Exposed so the
/// snapshot fork-server (fi/snapshot.h), whose experiment children resume a
/// paused execution instead of calling run_injected, produces bit-identical
/// results.
ExperimentResult classify_finished(const Program& program,
                                   const GoldenRun& golden,
                                   const Tracer& tracer,
                                   const std::vector<double>& output);

/// Classifies a run that trapped (CrashSignal at `crash_site`); the
/// CrashSignal counterpart of classify_finished.
ExperimentResult classify_crash(const Tracer& tracer,
                                std::uint64_t crash_site) noexcept;

/// As run_injected, but also captures the propagated absolute error
/// |x_i' - x_i| into diffs[i] for i >= injection.site.  `diffs` must have
/// golden.trace.size() elements; the executor zeroes it first.  On Crash the
/// diff contents are unspecified (callers only consume Masked propagation
/// data, per Algorithm 1).
ExperimentResult run_injected_compare(const Program& program,
                                      const GoldenRun& golden,
                                      const Injection& injection,
                                      std::span<double> diffs);

}  // namespace ftb::fi
