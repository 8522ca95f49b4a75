// Mode steppers against the generic Tracer.  Program::run hands Inject and
// Compare runs a stepper compiled for that mode (Tracer::with_stepper),
// which starts a trace-target run at its golden state (fi::start_state);
// every other run, and any kernel body instantiated with fi::Tracer itself,
// steps through Tracer::step's mode switch from instruction 0.  For every
// shipped kernel (the hazard kernels only implement run(fi::Tracer&)) the
// two paths must agree on everything an executor or classifier reads:
// outcome, crash site, injected and output error, step count, fired state,
// and every diff.  Each fast run must also have started where
// fi::start_state says, so the suite fails if fast-forward is silently off.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "fi/executor.h"
#include "fi/fpbits.h"
#include "kernels/blas1.h"
#include "kernels/cg.h"
#include "kernels/fft.h"
#include "kernels/gemm.h"
#include "kernels/jacobi.h"
#include "kernels/lu.h"
#include "kernels/registry.h"
#include "kernels/spmv.h"
#include "kernels/stencil.h"

namespace ftb {
namespace {

using GenericRun = std::vector<double> (*)(const fi::Program&, fi::Tracer&);

/// The kernel body instantiated with fi::Tracer: every step takes the
/// generic path, whatever the tracer's mode.
template <typename Kernel>
std::vector<double> generic_run(const fi::Program& program,
                                fi::Tracer& tracer) {
  return static_cast<const Kernel&>(program).body(tracer);
}

const std::map<std::string, GenericRun>& generic_runs() {
  static const std::map<std::string, GenericRun> runs = {
      {"cg", &generic_run<kernels::CgProgram>},
      {"lu", &generic_run<kernels::LuProgram>},
      {"fft", &generic_run<kernels::FftProgram>},
      {"stencil2d", &generic_run<kernels::StencilProgram>},
      {"gemm", &generic_run<kernels::GemmProgram>},
      {"jacobi", &generic_run<kernels::JacobiProgram>},
      {"spmv", &generic_run<kernels::SpmvProgram>},
      {"daxpy", &generic_run<kernels::DaxpyProgram>},
      {"matvec", &generic_run<kernels::MatvecProgram>},
  };
  return runs;
}

bool is_hazard(const std::string& name) {
  return name == "hazard" || name == "hazard_spin";
}

/// The kernels whose bodies are split into stages (fi/tracer.h).
bool declares_states(const std::string& name) {
  return name == "cg" || name == "lu" || name == "fft";
}

constexpr int kBits[] = {0, 13, 31, 44, 51, 52, 62, 63};

/// Diff slots no rule may write: a propagated error is never negative.
constexpr double kUntouched = -1.0;

/// What one run leaves for the executor and the classifiers.
struct Observed {
  fi::ExperimentResult result;
  std::uint64_t steps = 0;
  std::uint64_t started_at = 0;
  bool fired = false;
  double original_value = 0.0;
  std::vector<double> diffs;  // compare runs only
};

/// Runs `injection` with the tracer the executor builds: started at
/// fi::start_state on a mode stepper.
Observed observe(const fi::Program& program, const fi::GoldenRun& golden,
                 const fi::Injection& injection, bool compare,
                 const std::function<std::vector<double>(fi::Tracer&)>& run) {
  Observed seen;
  seen.diffs.assign(compare ? golden.trace.size() : 0, kUntouched);
  const fi::GoldenState* start = fi::start_state(golden, injection);
  fi::Tracer tracer =
      compare ? fi::Tracer::comparator(injection, golden.trace, seen.diffs,
                                       start)
              : fi::Tracer::injector(injection, start);
  try {
    const std::vector<double> output = run(tracer);
    seen.result = fi::classify_finished(program, golden, tracer, output);
  } catch (const fi::CrashSignal& signal) {
    seen.result = fi::classify_crash(tracer, signal.site);
  }
  seen.steps = tracer.steps();
  seen.started_at = tracer.started_at();
  seen.fired = tracer.fired();
  seen.original_value = tracer.original_value();
  return seen;
}

/// Index of the first diff whose bits differ, or size() when none does.
std::size_t first_mismatch(const std::vector<double>& a,
                           const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fi::to_bits(a[i]) != fi::to_bits(b[i])) return i;
  }
  return a.size();
}

struct KernelCase {
  std::string kernel;
  kernels::Preset preset;
  std::size_t max_sites;  // sampled evenly when the trace has more

  std::string label() const { return kernel + "_" + kernels::to_string(preset); }
};

void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.label(); }

std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases;
  for (const std::string& name : kernels::program_names()) {
    if (!is_hazard(name)) cases.push_back({name, kernels::Preset::kTiny, 0});
  }
  for (const char* name : {"cg", "lu", "fft"}) {
    cases.push_back({name, kernels::Preset::kDefault, 160});
  }
  return cases;
}

/// The cases whose kernel announces live spans through touch().
std::vector<KernelCase> touching_cases() {
  std::vector<KernelCase> cases;
  for (const KernelCase& c : kernel_cases()) {
    const fi::ProgramPtr program = kernels::make_program(c.kernel, c.preset);
    if (!fi::run_golden(*program).touch_sizes.empty()) cases.push_back(c);
  }
  return cases;
}

class StepperEquivalence : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    program_ = kernels::make_program(GetParam().kernel, GetParam().preset);
    golden_ = fi::run_golden(*program_);
    const auto it = generic_runs().find(GetParam().kernel);
    ASSERT_NE(it, generic_runs().end()) << GetParam().kernel;
    generic_ = it->second;
  }

  /// Every site, or max_sites of them spread over the trace (first and
  /// last included) and every golden state's index and its neighbours.
  std::vector<std::uint64_t> sites() const {
    const std::uint64_t total = golden_.dynamic_instructions();
    const std::uint64_t wanted = GetParam().max_sites;
    std::vector<std::uint64_t> out;
    if (wanted == 0 || wanted >= total) {
      for (std::uint64_t s = 0; s < total; ++s) out.push_back(s);
      return out;
    }
    for (std::uint64_t i = 0; i < wanted; ++i) {
      out.push_back(i * (total - 1) / (wanted - 1));
    }
    for (const fi::GoldenState& state : golden_.states) {
      for (const std::uint64_t site :
           {state.index - 1, state.index, state.index + 1}) {
        if (site < total) out.push_back(site);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Where a run at `site` must start: the index of the last golden state
  /// at or before it, found without fi::start_state.
  std::uint64_t expected_start(std::uint64_t site) const {
    std::uint64_t start = 0;
    for (const fi::GoldenState& state : golden_.states) {
      if (state.index <= site) start = state.index;
    }
    return start;
  }

  /// Runs `injection` on both paths and checks they agree.  For trace
  /// faults, also checks no diff before the site was written.
  void expect_same(const fi::Injection& injection, bool compare) {
    const Observed fast =
        observe(*program_, golden_, injection, compare,
                [&](fi::Tracer& t) { return program_->run(t); });
    const Observed slow =
        observe(*program_, golden_, injection, compare,
                [&](fi::Tracer& t) { return generic_(*program_, t); });
    const std::string where =
        (injection.is_memory_fault()
             ? "touch " + std::to_string(injection.touch_point) + " word "
             : std::string("site ")) +
        std::to_string(injection.site) + " mask " +
        std::to_string(injection.kind == fi::Injection::Kind::kBitFlip
                           ? std::uint64_t{1} << injection.bit
                           : injection.mask) +
        (compare ? " compare" : " inject");
    EXPECT_EQ(fast.result.outcome, slow.result.outcome) << where;
    EXPECT_EQ(fast.result.crash_reason, slow.result.crash_reason) << where;
    EXPECT_EQ(fast.result.crash_site, slow.result.crash_site) << where;
    EXPECT_EQ(fi::to_bits(fast.result.injected_error),
              fi::to_bits(slow.result.injected_error))
        << where;
    EXPECT_EQ(fi::to_bits(fast.result.output_error),
              fi::to_bits(slow.result.output_error))
        << where;
    EXPECT_EQ(fast.result.detector_fired, slow.result.detector_fired) << where;
    EXPECT_EQ(fast.steps, slow.steps) << where;
    EXPECT_EQ(fast.started_at,
              injection.is_memory_fault() ? 0 : expected_start(injection.site))
        << where;
    EXPECT_EQ(slow.started_at, 0u) << where << ": the generic body skipped";
    EXPECT_EQ(fast.fired, slow.fired) << where;
    EXPECT_EQ(fi::to_bits(fast.original_value),
              fi::to_bits(slow.original_value))
        << where;
    if (!compare) return;
    const std::size_t mismatch = first_mismatch(fast.diffs, slow.diffs);
    EXPECT_EQ(mismatch, fast.diffs.size())
        << where << ": diff " << mismatch << " is "
        << fast.diffs[mismatch] << " on the stepper and "
        << slow.diffs[mismatch] << " on the Tracer";
    if (!injection.is_memory_fault()) {
      for (std::uint64_t i = 0; i < injection.site; ++i) {
        if (fi::to_bits(fast.diffs[i]) != fi::to_bits(kUntouched)) {
          ADD_FAILURE() << where << ": diff " << i
                        << " before the site was written";
          break;
        }
      }
    }
  }

  void sweep_trace_faults(bool compare) {
    std::uint64_t skipped = 0;
    for (const std::uint64_t site : sites()) {
      for (const int bit : kBits) {
        expect_same(fi::Injection::bit_flip(site, bit), compare);
        if (HasFailure()) return;  // one broken site says enough
      }
      skipped += expected_start(site);
    }
    // The kernels that declare stages must fast-forward some of these runs.
    if (declares_states(GetParam().kernel)) {
      EXPECT_GT(skipped, 0u);
    }
  }

  fi::ProgramPtr program_;
  fi::GoldenRun golden_;
  GenericRun generic_ = nullptr;
};

TEST_P(StepperEquivalence, TraceFaultsInject) { sweep_trace_faults(false); }

TEST_P(StepperEquivalence, TraceFaultsCompare) { sweep_trace_faults(true); }

INSTANTIATE_TEST_SUITE_P(Kernels, StepperEquivalence,
                         ::testing::ValuesIn(kernel_cases()),
                         [](const auto& test_info) {
                           return test_info.param.label();
                         });

class StepperMemoryFaults : public StepperEquivalence {};

// Memory-resident faults on the spans a kernel touch()es: the first, a
// middle and the last word of every span, at every tested bit.
TEST_P(StepperMemoryFaults, InjectAndCompare) {
  ASSERT_FALSE(golden_.touch_sizes.empty());
  for (std::uint32_t point = 0; point < golden_.touch_sizes.size(); ++point) {
    const std::uint64_t size = golden_.touch_sizes[point];
    for (const std::uint64_t word : {std::uint64_t{0}, size / 2, size - 1}) {
      for (const int bit : kBits) {
        const fi::Injection injection =
            fi::Injection::mem_xor(point, word, std::uint64_t{1} << bit);
        expect_same(injection, false);
        expect_same(injection, true);
        if (HasFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, StepperMemoryFaults,
                         ::testing::ValuesIn(touching_cases()),
                         [](const auto& test_info) {
                           return test_info.param.label();
                         });

// A new shipped kernel must join the table above, or its stepper path
// would go unchecked.
TEST(StepperCoverage, EveryShippedKernelHasAGenericPath) {
  for (const std::string& name : kernels::program_names()) {
    if (is_hazard(name)) continue;
    EXPECT_EQ(generic_runs().count(name), 1u) << name;
  }
}

/// Records which stepper type with_stepper() handed the body.
struct StepperProbe {
  const std::type_info* seen = nullptr;

  std::vector<double> operator()(fi::Tracer& tracer) {
    return tracer.with_stepper([this](auto& stepper) {
      seen = &typeid(stepper);
      return std::vector<double>{stepper.step(1.0), stepper.step(2.0)};
    });
  }
};

TEST(WithStepper, SpecializesInjectAndCompareOnly) {
  std::vector<double> golden = {1.0, 2.0};
  std::vector<double> diffs(2, 0.0);
  std::vector<double> trace;
  const fi::Injection flip = fi::Injection::bit_flip(1, 3);

  StepperProbe probe;
  fi::Tracer injector = fi::Tracer::injector(flip);
  probe(injector);
  EXPECT_EQ(*probe.seen, typeid(fi::Tracer::InjectStepper));
  EXPECT_EQ(injector.steps(), 2u);
  EXPECT_TRUE(injector.fired());

  fi::Tracer comparator = fi::Tracer::comparator(flip, golden, diffs);
  probe(comparator);
  EXPECT_EQ(*probe.seen, typeid(fi::Tracer::CompareStepper));
  EXPECT_EQ(comparator.steps(), 2u);
  EXPECT_EQ(diffs[1], comparator.injected_error());

  fi::Tracer counter = fi::Tracer::counter();
  probe(counter);
  EXPECT_EQ(*probe.seen, typeid(fi::Tracer));
  EXPECT_EQ(counter.steps(), 2u);

  fi::Tracer recorder = fi::Tracer::recorder(trace);
  probe(recorder);
  EXPECT_EQ(*probe.seen, typeid(fi::Tracer));
  EXPECT_EQ(trace, golden);

  fi::Tracer::StreamHooks hooks;
  hooks.next_golden = [](void*) { return 1.0; };
  fi::Tracer streaming = fi::Tracer::stream_comparator(flip, hooks);
  probe(streaming);
  EXPECT_EQ(*probe.seen, typeid(fi::Tracer));

  // An armed checkpoint hook must see every step: no specialization.
  fi::Tracer hooked = fi::Tracer::injector(flip);
  hooked.arm_checkpoint_hook(
      {nullptr,
       [](void*, fi::Tracer&, std::uint64_t) { return fi::Tracer::kNoCheckpoint; }},
      1);
  probe(hooked);
  EXPECT_EQ(*probe.seen, typeid(fi::Tracer));
  EXPECT_TRUE(hooked.fired());
}

// The state a crash leaves behind is what classify_crash reads: the
// stepper must write it back while the CrashSignal unwinds.
TEST(WithStepper, CrashLeavesTheRunStateOnTheTracer) {
  const fi::Injection to_inf = fi::Injection::set_value(
      1, std::numeric_limits<double>::infinity());
  for (const bool compare : {false, true}) {
    std::vector<double> golden = {1.0, 2.0, 3.0};
    std::vector<double> diffs(3, 0.0);
    fi::Tracer tracer = compare ? fi::Tracer::comparator(to_inf, golden, diffs)
                                : fi::Tracer::injector(to_inf);
    std::uint64_t crash_site = 0;
    try {
      tracer.with_stepper([](auto& stepper) {
        for (double v : {1.0, 2.0, 3.0}) stepper.step(v);
        return 0;
      });
      ADD_FAILURE() << "no CrashSignal";
    } catch (const fi::CrashSignal& signal) {
      crash_site = signal.site;
    }
    EXPECT_EQ(crash_site, 1u);
    EXPECT_EQ(tracer.steps(), 2u);
    EXPECT_TRUE(tracer.fired());
    EXPECT_EQ(tracer.original_value(), 2.0);
    EXPECT_TRUE(std::isinf(tracer.injected_error()));
    EXPECT_TRUE(std::isinf(fi::classify_crash(tracer, crash_site).injected_error));
  }
}

}  // namespace
}  // namespace ftb
