// Golden fast-forward (fi/tracer.h): the states a golden run records, and
// the runs that must never start from one.  stepper_equivalence.cpp checks
// that the runs which do start from one equal the whole generic body.
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "campaign/checkpoint.h"
#include "campaign/sampler.h"
#include "fi/executor.h"
#include "fi/fpbits.h"
#include "fi/lowmem.h"
#include "kernels/registry.h"
#include "telemetry/events.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb {
namespace {

using kernels::Preset;

bool same_result(const fi::ExperimentResult& a, const fi::ExperimentResult& b) {
  return a.outcome == b.outcome && a.crash_reason == b.crash_reason &&
         a.crash_site == b.crash_site &&
         fi::to_bits(a.injected_error) == fi::to_bits(b.injected_error) &&
         fi::to_bits(a.output_error) == fi::to_bits(b.output_error) &&
         a.detector_fired == b.detector_fired;
}

/// Runs `injection` on `program` through a tracer started as the executor
/// starts it, and reports where the run began.
struct Observed {
  fi::ExperimentResult result;
  std::uint64_t started_at = 0;
};

Observed run_from(const fi::Program& program, const fi::GoldenRun& golden,
                  const fi::Injection& injection,
                  const fi::GoldenState* start, bool hook = false) {
  fi::Tracer tracer = fi::Tracer::injector(injection, start);
  if (hook) {
    tracer.arm_checkpoint_hook(
        {nullptr,
         [](void*, fi::Tracer&, std::uint64_t) {
           return fi::Tracer::kNoCheckpoint;
         }},
        0);
  }
  Observed run;
  try {
    run.result =
        fi::classify_finished(program, golden, tracer, program.run(tracer));
  } catch (const fi::CrashSignal& signal) {
    run.result = fi::classify_crash(tracer, signal.site);
  }
  run.started_at = tracer.started_at();
  return run;
}

TEST(GoldenStates, RecordedIdenticallyAtStrictlyIncreasingIndices) {
  for (const char* kernel : {"cg", "lu", "fft"}) {
    for (const Preset preset : {Preset::kTiny, Preset::kDefault}) {
      const std::string where =
          std::string(kernel) + "_" + kernels::to_string(preset);
      const fi::ProgramPtr program = kernels::make_program(kernel, preset);
      const fi::GoldenRun first = fi::run_golden(*program);
      const fi::GoldenRun second = fi::run_golden(*program);
      ASSERT_FALSE(first.states.empty()) << where;
      EXPECT_EQ(first.states, second.states) << where;
      std::uint64_t index = 0;
      std::uint32_t stage = 0;
      for (const fi::GoldenState& state : first.states) {
        EXPECT_GT(state.index, index) << where;
        EXPECT_LT(state.index, first.trace.size()) << where;
        EXPECT_GT(state.stage, stage) << where;
        index = state.index;
        stage = state.stage;
      }
    }
  }
}

// CG keeps x, r, p and rr at the start of each iteration: b is not read
// after the prologue, and the operator values copy constructor constants.
TEST(GoldenStates, CgDefaultStoresOnlyWhatTheSuffixReads) {
  const fi::ProgramPtr program = kernels::make_program("cg", Preset::kDefault);
  const fi::GoldenRun golden = fi::run_golden(*program);
  ASSERT_EQ(golden.states.size(), 30u);
  EXPECT_EQ(golden.states.front().index, 445u);
  for (std::size_t i = 0; i < golden.states.size(); ++i) {
    EXPECT_EQ(golden.states[i].index, 445u + 148u * i);
    EXPECT_EQ(golden.states[i].values.size(), 3u * 36u + 1u);
  }
}

TEST(GoldenStates, ShardedHazardAndStatelessKernelsRunWhole) {
  for (const char* kernel : {"cg+t2", "spmv+t2", "stencil2d+t2", "hazard",
                             "hazard_spin", "stencil2d", "gemm", "jacobi",
                             "spmv", "daxpy", "matvec"}) {
    const fi::ProgramPtr program =
        kernels::make_program(kernel, Preset::kDefault);
    const fi::GoldenRun golden = fi::run_golden(*program);
    EXPECT_TRUE(golden.states.empty()) << kernel;
    const std::uint64_t last = golden.trace.size() - 1;
    EXPECT_EQ(fi::start_state(golden, fi::Injection::bit_flip(last, 3)),
              nullptr)
        << kernel;
  }

  // A sharded run steps the Tracer, which never starts late, even when a
  // caller hands it a state of the serial kernel.
  const fi::ProgramPtr serial = kernels::make_program("cg", Preset::kDefault);
  const fi::ProgramPtr sharded =
      kernels::make_program("cg+t2", Preset::kDefault);
  const fi::GoldenRun serial_golden = fi::run_golden(*serial);
  const fi::GoldenRun sharded_golden = fi::run_golden(*sharded);
  const fi::Injection flip = fi::Injection::bit_flip(4000, 40);
  const fi::GoldenState* start = fi::start_state(serial_golden, flip);
  ASSERT_NE(start, nullptr);
  const Observed run = run_from(*sharded, sharded_golden, flip, start);
  EXPECT_EQ(run.started_at, 0u);
  EXPECT_TRUE(same_result(run.result,
                          fi::run_injected(*sharded, sharded_golden, flip)));
}

TEST(FastForward, MemoryStreamAndHookedRunsStayWhole) {
  const fi::ProgramPtr program = kernels::make_program("cg", Preset::kDefault);
  const fi::GoldenRun golden = fi::run_golden(*program);
  ASSERT_FALSE(golden.states.empty());

  // A memory-target fault names a touch() span, not a site: no state.
  const fi::Injection memory = fi::Injection::mem_xor(2, 5, 1ULL << 51);
  EXPECT_EQ(fi::start_state(golden, memory), nullptr);
  EXPECT_EQ(run_from(*program, golden, memory, nullptr).started_at, 0u);

  // A trace-target fault late in the run starts late on the mode stepper,
  // but whole with a snapshot checkpoint hook armed and when streamed.
  const fi::Injection flip = fi::Injection::bit_flip(4000, 40);
  const fi::GoldenState* start = fi::start_state(golden, flip);
  ASSERT_NE(start, nullptr);
  const fi::ExperimentResult expected =
      fi::run_injected(*program, golden, flip);
  const Observed fast = run_from(*program, golden, flip, start);
  EXPECT_EQ(fast.started_at, start->index);
  EXPECT_TRUE(same_result(fast.result, expected));
  const Observed hooked =
      run_from(*program, golden, flip, start, /*hook=*/true);
  EXPECT_EQ(hooked.started_at, 0u);
  EXPECT_TRUE(same_result(hooked.result, expected));

  struct Stream {
    const std::vector<double>* trace;
    std::size_t next = 0;
  } stream{&golden.trace};
  fi::Tracer::StreamHooks hooks;
  hooks.ctx = &stream;
  hooks.next_golden = [](void* ctx) {
    auto* s = static_cast<Stream*>(ctx);
    return (*s->trace)[s->next++];
  };
  fi::Tracer streaming = fi::Tracer::stream_comparator(flip, hooks);
  (void)program->run(streaming);
  EXPECT_EQ(streaming.started_at(), 0u);
  EXPECT_EQ(streaming.steps(), golden.trace.size());
  const fi::CompressedGoldenTrace compressed =
      fi::CompressedGoldenTrace::from(golden);
  EXPECT_TRUE(same_result(
      fi::run_injected_compare_lowmem(*program, compressed, flip, {}),
      expected));
}

struct StepCounts {
  std::uint64_t run = 0;
  std::uint64_t skipped = 0;
  double span_run = 0.0;
  double span_skipped = 0.0;
};

/// Runs `ids` through a fresh journal with a telemetry sink and reads the
/// runner's step counters and checkpoint.chunk span arguments.
StepCounts count_steps(const fi::Program& program, const fi::GoldenRun& golden,
                       std::span<const campaign::ExperimentId> ids,
                       bool sandboxed) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ftb_steps_" + std::to_string(::getpid()) + ".clog"))
          .string();
  std::filesystem::remove(path);
  telemetry::Telemetry sink;
  sink.set_enabled(true);
  util::ThreadPool pool(2);
  campaign::CheckpointOptions options;
  options.path = path;
  options.flush_every = 256;
  options.pool = &pool;
  options.use_sandbox = sandboxed;
  options.telemetry = &sink;
  (void)campaign::run_campaign_checkpointed(program, golden, ids, options);
  std::filesystem::remove(path);
  StepCounts counts;
  counts.run = sink.metrics().counter("checkpoint.steps_run").value();
  counts.skipped = sink.metrics().counter("checkpoint.steps_skipped").value();
  for (const telemetry::TraceEvent& event : sink.events()) {
    if (event.name != "checkpoint.chunk") continue;
    for (const auto& [key, value] : event.args) {
      if (key == "steps_run") counts.span_run += value;
      if (key == "steps_skipped") counts.span_skipped += value;
    }
  }
  return counts;
}

// The in-process runner reports the instructions its experiments run and
// skip; a uniform CG default sample skips about 48% of them.
TEST(FastForward, CheckpointRunnerCountsStepsRunAndSkipped) {
  const fi::ProgramPtr program = kernels::make_program("cg", Preset::kDefault);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(19);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, golden.sample_space_size(), 1000);
  std::uint64_t skipped = 0;
  for (const campaign::ExperimentId id : ids) {
    const std::uint64_t site = campaign::site_of(id);
    std::uint64_t start = 0;
    for (const fi::GoldenState& state : golden.states) {
      if (state.index <= site) start = state.index;
    }
    skipped += start;
  }
  const std::uint64_t total = ids.size() * golden.trace.size();

  const StepCounts first = count_steps(*program, golden, ids, false);
  EXPECT_EQ(first.skipped, skipped);
  EXPECT_EQ(first.run, total - skipped);
  EXPECT_EQ(first.span_skipped, static_cast<double>(first.skipped));
  EXPECT_EQ(first.span_run, static_cast<double>(first.run));
  const double share =
      static_cast<double>(skipped) / static_cast<double>(total);
  EXPECT_GT(share, 0.4);
  EXPECT_LT(share, 0.56);

  const StepCounts second = count_steps(*program, golden, ids, false);
  EXPECT_EQ(second.run, first.run);
  EXPECT_EQ(second.skipped, first.skipped);

  // The per-batch sandbox does not fold, and is not counted.
  const StepCounts sandboxed = count_steps(*program, golden, ids, true);
  EXPECT_EQ(sandboxed.run, 0u);
  EXPECT_EQ(sandboxed.skipped, 0u);
}

}  // namespace
}  // namespace ftb
