#include "fi/executor.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace ftb::fi {

namespace {

/// A run whose dynamic-instruction count differs from the golden run has
/// diverged control flow; the paper stops tracking at divergence and such
/// runs terminate "loudly" in our model, so we classify them as Crash.
bool step_count_matches(const Tracer& tracer, const GoldenRun& golden) noexcept {
  return tracer.steps() == golden.trace.size();
}

}  // namespace

ExperimentResult classify_finished(const Program& program,
                                   const GoldenRun& golden,
                                   const Tracer& tracer,
                                   const std::vector<double>& output) {
  ExperimentResult result;
  result.injected_error = tracer.injected_error();
  if (!step_count_matches(tracer, golden)) {
    result.outcome = Outcome::kCrash;
    result.crash_reason = CrashReason::kControlFlow;
    result.output_error = std::numeric_limits<double>::infinity();
    return result;
  }
  result.output_error = OutputComparator::linf_distance(output, golden.output);
  // A non-finite final output classifies as SDC here: the run finished
  // without trapping (the tracer's CrashSignal path handles mid-run
  // non-finites), so the corruption is silent by definition.
  result.outcome = program.comparator().classify(output, golden.output);
  // The program's ABFT detector (if any) sees the same finished output the
  // user would: an SDC it rejects is no longer *silent* (kDetected); a
  // rejection of an acceptable output stays Masked but is recorded as a
  // detector false positive.
  if (const Detector* detector = program.detector()) {
    result.detector_fired = detector->fires(output, golden.output);
    if (result.detector_fired && result.outcome == Outcome::kSdc) {
      result.outcome = Outcome::kDetected;
    }
  }
  return result;
}

ExperimentResult classify_crash(const Tracer& tracer,
                                std::uint64_t crash_site) noexcept {
  ExperimentResult result;
  result.outcome = Outcome::kCrash;
  result.crash_reason = CrashReason::kNonFinite;
  result.injected_error = tracer.injected_error();
  result.output_error = std::numeric_limits<double>::infinity();
  result.crash_site = crash_site;
  return result;
}

GoldenRun run_golden(const Program& program) {
  GoldenRun golden;
  golden.trace.reserve(1024);
  Tracer tracer = Tracer::recorder(golden.trace, &golden.phases,
                                   &golden.touch_sizes, &golden.states);
  golden.output = program.run(tracer);
  // A state at the end of the run starts no experiment.
  while (!golden.states.empty() &&
         golden.states.back().index >= golden.trace.size()) {
    golden.states.pop_back();
  }
  for (double v : golden.trace) {
    if (!std::isfinite(v)) {
      throw std::runtime_error(program.name() +
                               ": golden run produced a non-finite value");
    }
  }
  golden.tolerance = program.comparator().threshold_for(golden.output);
  return golden;
}

std::uint64_t count_dynamic_instructions(const Program& program) {
  Tracer tracer = Tracer::counter();
  (void)program.run(tracer);
  return tracer.steps();
}

const GoldenState* start_state(const GoldenRun& golden,
                               const Injection& injection) noexcept {
  if (injection.is_memory_fault()) return nullptr;
  const auto after = std::upper_bound(
      golden.states.begin(), golden.states.end(), injection.site,
      [](std::uint64_t site, const GoldenState& state) {
        return site < state.index;
      });
  return after == golden.states.begin() ? nullptr : &*std::prev(after);
}

ExperimentResult run_injected(const Program& program, const GoldenRun& golden,
                              const Injection& injection) {
  assert(injection.is_memory_fault() ||
         injection.site < golden.trace.size());
  Tracer tracer = Tracer::injector(injection, start_state(golden, injection));
  try {
    const std::vector<double> output = program.run(tracer);
    return classify_finished(program, golden, tracer, output);
  } catch (const CrashSignal& signal) {
    return classify_crash(tracer, signal.site);
  }
}

ExperimentResult run_injected_compare(const Program& program,
                                      const GoldenRun& golden,
                                      const Injection& injection,
                                      std::span<double> diffs) {
  assert(injection.is_memory_fault() ||
         injection.site < golden.trace.size());
  assert(diffs.size() == golden.trace.size());
  std::fill(diffs.begin(), diffs.end(), 0.0);
  Tracer tracer = Tracer::comparator(injection, golden.trace, diffs,
                                     start_state(golden, injection));
  try {
    const std::vector<double> output = program.run(tracer);
    return classify_finished(program, golden, tracer, output);
  } catch (const CrashSignal& signal) {
    return classify_crash(tracer, signal.site);
  }
}

}  // namespace ftb::fi
