// Microbenchmarks for the tracer hot path: the per-dynamic-instruction cost
// of each tracer mode, which bounds how fast campaigns can run (every
// experiment replays the whole kernel through the tracer), and the cost of
// one whole experiment per kernel and mode.
#include <benchmark/benchmark.h>

#include <vector>

#include "fi/executor.h"
#include "fi/tracer.h"
#include "kernels/registry.h"

namespace {

using namespace ftb;

constexpr std::size_t kSteps = 4096;

double drive(fi::Tracer& tracer) {
  double accumulator = 1.000001;
  for (std::size_t i = 0; i < kSteps; ++i) {
    accumulator = tracer.step(accumulator * 1.0000003 + 1e-9);
  }
  return accumulator;
}

void BM_TracerCount(benchmark::State& state) {
  for (auto _ : state) {
    fi::Tracer tracer = fi::Tracer::counter();
    benchmark::DoNotOptimize(drive(tracer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_TracerCount);

void BM_TracerRecord(benchmark::State& state) {
  std::vector<double> trace;
  trace.reserve(kSteps);
  for (auto _ : state) {
    trace.clear();
    fi::Tracer tracer = fi::Tracer::recorder(trace);
    benchmark::DoNotOptimize(drive(tracer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_TracerRecord);

void BM_TracerInject(benchmark::State& state) {
  for (auto _ : state) {
    fi::Tracer tracer =
        fi::Tracer::injector(fi::Injection::bit_flip(kSteps / 2, 3));
    benchmark::DoNotOptimize(drive(tracer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_TracerInject);

void BM_TracerCompare(benchmark::State& state) {
  std::vector<double> golden;
  golden.reserve(kSteps);
  {
    fi::Tracer recorder = fi::Tracer::recorder(golden);
    drive(recorder);
  }
  std::vector<double> diffs(golden.size());
  for (auto _ : state) {
    std::fill(diffs.begin(), diffs.end(), 0.0);
    fi::Tracer tracer = fi::Tracer::comparator(
        fi::Injection::bit_flip(kSteps / 2, 3), golden, diffs);
    benchmark::DoNotOptimize(drive(tracer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_TracerCompare);

// End-to-end cost of one fault-injection experiment per kernel.
void BM_ExperimentCg(benchmark::State& state) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  std::uint64_t site = 0;
  for (auto _ : state) {
    site = (site + 97) % golden.trace.size();
    benchmark::DoNotOptimize(fi::run_injected(
        *program, golden, fi::Injection::bit_flip(site, 30)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(golden.trace.size()));
}
BENCHMARK(BM_ExperimentCg);

void BM_ExperimentCgWithCompare(benchmark::State& state) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  std::vector<double> diffs(golden.trace.size());
  std::uint64_t site = 0;
  for (auto _ : state) {
    site = (site + 97) % golden.trace.size();
    benchmark::DoNotOptimize(fi::run_injected_compare(
        *program, golden, fi::Injection::bit_flip(site, 30), diffs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(golden.trace.size()));
}
BENCHMARK(BM_ExperimentCgWithCompare);

// One default-preset experiment, outcome-only (inject) or with propagation
// capture (compare): the constant every campaign experiment pays.  Sites
// stride the trace and bits cycle through all 64, so crashing, SDC and
// masked runs mix as in a uniform campaign.
void BM_DefaultExperiment(benchmark::State& state, const char* kernel,
                          bool compare) {
  const fi::ProgramPtr program =
      kernels::make_program(kernel, kernels::Preset::kDefault);
  const fi::GoldenRun golden = fi::run_golden(*program);
  std::vector<double> diffs(golden.trace.size());
  std::uint64_t site = 0;
  int bit = 0;
  for (auto _ : state) {
    site = (site + 97) % golden.trace.size();
    bit = (bit + 13) % 64;
    const fi::Injection injection = fi::Injection::bit_flip(site, bit);
    benchmark::DoNotOptimize(
        compare ? fi::run_injected_compare(*program, golden, injection, diffs)
                : fi::run_injected(*program, golden, injection));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(golden.trace.size()));
}
BENCHMARK_CAPTURE(BM_DefaultExperiment, cg_inject, "cg", false);
BENCHMARK_CAPTURE(BM_DefaultExperiment, cg_compare, "cg", true);
BENCHMARK_CAPTURE(BM_DefaultExperiment, lu_inject, "lu", false);
BENCHMARK_CAPTURE(BM_DefaultExperiment, lu_compare, "lu", true);
BENCHMARK_CAPTURE(BM_DefaultExperiment, fft_inject, "fft", false);
BENCHMARK_CAPTURE(BM_DefaultExperiment, fft_compare, "fft", true);

}  // namespace
