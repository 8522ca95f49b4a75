// Journal cost of a checkpointed campaign as it grows: one
// run_campaign_checkpointed call per measurement on CG `default` (4885
// sites), 5000 / 20000 / 80000 uniform experiments (seed 1) on an
// in-process 2-thread pool, flush_every 512, a fresh journal each time.
// Besides the wall time of the whole call it reports
//
//   flush_ms       summed checkpoint.flush spans (every journal write)
//   flushes        CheckpointRunResult::flushes
//   bytes_written  bytes the process handed to write() during the call
//                  (/proc/self/io wchar; the in-process pool writes
//                  nothing else), 0 where /proc is unavailable
//   final_bytes    size of the finished journal
//
// Only APIs that predate the append-only journal are used, so the same
// source measures a build that rewrites the journal per flush.
// bench/BENCH_journal.json records these numbers.
//
//   $ micro_journal --benchmark_repetitions=3 --benchmark_report_aggregates_only
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "telemetry/events.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ftb;

struct Kernel {
  Kernel()
      : program(kernels::make_program("cg", kernels::Preset::kDefault)),
        golden(fi::run_golden(*program)),
        pool(2) {}
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  util::ThreadPool pool;
};

Kernel& kernel() {
  static Kernel instance;
  return instance;
}

/// The process's write() byte count so far (0 without /proc).
std::uint64_t bytes_written_so_far() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

void BM_CheckpointedCampaign(benchmark::State& state) {
  Kernel& k = kernel();
  util::Rng rng(1);
  const std::vector<campaign::ExperimentId> ids = campaign::sample_uniform(
      rng, k.golden.sample_space_size(),
      static_cast<std::uint64_t>(state.range(0)));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ftb_micro_journal_" + std::to_string(::getpid()) + ".clog"))
          .string();

  double flush_ms = 0.0;
  double flushes = 0.0;
  double bytes = 0.0;
  for (auto _ : state) {
    std::filesystem::remove(path);
    telemetry::Telemetry telemetry;
    telemetry.set_enabled(true);
    campaign::CheckpointOptions options;
    options.path = path;
    options.flush_every = 512;
    options.pool = &k.pool;
    options.telemetry = &telemetry;
    const std::uint64_t before = bytes_written_so_far();
    const campaign::CheckpointRunResult run =
        campaign::run_campaign_checkpointed(*k.program, k.golden, ids, options);
    bytes = static_cast<double>(bytes_written_so_far() - before);
    benchmark::DoNotOptimize(run.log.size());
    flush_ms = 0.0;
    for (const telemetry::TraceEvent& event : telemetry.events()) {
      if (event.name == "checkpoint.flush") {
        flush_ms += static_cast<double>(event.duration_ns) / 1e6;
      }
    }
    flushes = static_cast<double>(run.flushes);
  }
  state.counters["flush_ms"] = flush_ms;
  state.counters["flushes"] = flushes;
  state.counters["bytes_written"] = bytes;
  state.counters["final_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
}
BENCHMARK(BM_CheckpointedCampaign)
    ->ArgName("experiments")
    ->Arg(5000)
    ->Arg(20000)
    ->Arg(80000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
