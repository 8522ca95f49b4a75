// Bringing your own kernel: how a downstream user instruments their
// computation for fault-tolerance analysis.  The contract is small --
// subclass fi::Program, route every stored floating-point data element
// through Tracer::step(), keep control flow independent of the data -- and
// the whole toolbox (campaigns, boundary inference, adaptive sampling)
// works unchanged.
//
// A run(fi::Tracer& t) that calls t.step() directly is all the contract
// needs.  This kernel also opts in to mode-specialized stepping: it writes
// its body once as a template over the stepper and runs it through
// Tracer::with_stepper(), so each fault-injection experiment steps through
// code compiled for its tracer mode instead of the generic mode switch
// (same results, about half the cost per experiment on the shipped
// kernels).  And it opts in to golden fast-forward: it splits the body into
// stages (Tracer::stage), one per Euler step, naming the state each reads,
// so an experiment starts at the golden state before its site instead of
// at instruction 0.  A kernel that declares no stages still works; its
// experiments run whole.
//
// The kernel here is a damped pendulum integrated with explicit Euler:
// small physics state, long dependency chain, intuitive resiliency
// structure (early-state errors decay with the damping, late errors
// persist).
//
//   $ example_custom_kernel [--steps 400] [--fraction 0.05]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "boundary/exhaustive.h"
#include "boundary/predictor.h"
#include "campaign/ground_truth.h"
#include "campaign/inference.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace ftb;

/// theta'' = -(g/L) sin(theta) - c * theta', explicit Euler, fixed steps.
class PendulumProgram final : public fi::Program {
 public:
  explicit PendulumProgram(std::size_t steps) : steps_(steps) {}

  std::string name() const override { return "pendulum"; }
  std::string config_key() const override {
    return "pendulum:steps=" + std::to_string(steps_);
  }
  fi::OutputComparator comparator() const override { return {1e-9, 1e-6}; }

  std::vector<double> run(fi::Tracer& t) const override {
    return t.with_stepper([this](auto& stepper) { return body(stepper); });
  }

 private:
  /// The kernel, written once for every stepper: fi::Tracer itself or the
  /// mode stepper with_stepper() picks (anything with step, phase, touch
  /// and stage).
  template <typename Stepper>
  std::vector<double> body(Stepper& t) const {
    double theta = 0.75;  // initial angle (rad)
    double omega = 0.0;   // initial angular velocity
    double dt = 0.01;
    double damping = 0.9;
    double gravity_over_length = 9.81 / 1.0;

    // Stage 0, instrumented state initialisation: these stores are
    // injection sites.  A run that starts later keeps the constants above,
    // which is what the stores copied.
    if (t.stage({})) {
      theta = t.step(theta);
      omega = t.step(omega);
      dt = t.step(dt);
      damping = t.step(damping);
      gravity_over_length = t.step(gravity_over_length);
    }

    // One stage per Euler step, reading theta and omega.
    for (std::size_t i = 0; i < steps_; ++i) {
      if (!t.stage({{&theta, 1}, {&omega, 1}})) continue;
      const double acceleration =
          -gravity_over_length * std::sin(theta) - damping * omega;
      omega = t.step(omega + dt * acceleration);
      theta = t.step(theta + dt * omega);
    }
    return {theta, omega};
  }

  std::size_t steps_;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (cli.has("help")) {
    cli.describe("steps", "Euler integration steps");
    cli.describe("fraction", "sampling rate for the inferred boundary");
    cli.print_help("Analyse a user-written kernel with the ftb toolbox.");
    return 0;
  }
  const auto steps = static_cast<std::size_t>(cli.get_int("steps", 400));
  const double fraction = cli.get_double("fraction", 0.05);

  const PendulumProgram program(steps);
  const fi::GoldenRun golden = fi::run_golden(program);
  util::ThreadPool& pool = util::default_pool();

  std::printf("custom kernel '%s': %llu dynamic instructions, final state "
              "theta=%.6f omega=%.6f\n",
              program.name().c_str(),
              static_cast<unsigned long long>(golden.dynamic_instructions()),
              golden.output[0], golden.output[1]);

  // The pendulum is small enough to afford the exhaustive ground truth, so
  // we can show inference quality directly.
  const campaign::GroundTruth truth =
      campaign::GroundTruth::compute(program, golden, pool,
                                     /*use_cache=*/false);

  campaign::InferenceOptions options;
  options.sample_fraction = fraction;
  options.filter = true;
  const campaign::InferenceResult inference =
      campaign::infer_uniform(program, golden, options, pool);

  const double predicted =
      boundary::predicted_overall_sdc(inference.boundary, golden.trace);
  const util::Confusion self = campaign::confusion_on_records(
      inference.boundary, golden.trace, inference.records);

  std::printf("golden SDC ratio    : %.2f%% (exhaustive campaign, %llu runs)\n",
              100.0 * truth.overall_sdc_ratio(),
              static_cast<unsigned long long>(truth.experiments()));
  std::printf("predicted SDC ratio : %.2f%% (from %zu samples = %.1f%%)\n",
              100.0 * predicted, inference.sampled_ids.size(),
              100.0 * fraction);
  std::printf("self-verified uncertainty: %.2f%%\n", 100.0 * self.precision());

  // Show the damping intuition through the *fault tolerance thresholds*:
  // an error injected early has hundreds of damped steps to decay, so early
  // sites tolerate much larger perturbations than late ones (the SDC ratio
  // itself stays flat -- exponent-bit flips that kick the pendulum into a
  // different equilibrium basin are fatal in every quarter).
  const boundary::FaultToleranceBoundary exact =
      boundary::exhaustive_boundary(truth.outcomes(), golden.trace);
  util::Table table(
      {"execution quarter", "median tolerance threshold", "true SDC ratio"});
  const std::vector<double> profile = truth.sdc_profile();
  const std::size_t quarter = golden.trace.size() / 4;
  for (int q = 0; q < 4; ++q) {
    const std::size_t begin = q * quarter;
    const std::size_t end =
        q == 3 ? golden.trace.size() : begin + quarter;
    std::vector<double> thresholds;
    double sdc_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      thresholds.push_back(exact.threshold(i));
      sdc_sum += profile[i];
    }
    std::nth_element(thresholds.begin(),
                     thresholds.begin() + thresholds.size() / 2,
                     thresholds.end());
    table.add_row(
        {util::format("Q%d", q + 1),
         util::format("%.3g", thresholds[thresholds.size() / 2]),
         util::percent(sdc_sum / static_cast<double>(end - begin))});
  }
  std::fputs(
      table
          .render("\ndamping in action: early errors have time to decay, so "
                  "early sites\ntolerate visibly larger perturbations")
          .c_str(),
      stdout);
  return 0;
}
