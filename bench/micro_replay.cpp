// The masked replay behind campaign::boundary_from_log on a CG `default`
// journal of 20000 uniform experiments (seed 1): the boundary rebuild at
// 1, 2 and 4 pool threads with the Section 3.5 filter off and on, and
// beside it the bare Compare-mode re-run of the same masked ids with no
// fold -- the floor any fold sits on.  bench/BENCH_campaign.json records
// these numbers.
//
//   $ micro_replay --benchmark_repetitions=5 --benchmark_report_aggregates_only
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/log.h"
#include "campaign/sample_space.h"
#include "campaign/sampler.h"
#include "fi/executor.h"
#include "kernels/registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ftb;

constexpr std::uint64_t kExperiments = 20000;

util::ThreadPool& pool_of(std::size_t threads) {
  static std::map<std::size_t, std::unique_ptr<util::ThreadPool>> pools;
  auto& pool = pools[threads];
  if (!pool) pool = std::make_unique<util::ThreadPool>(threads);
  return *pool;
}

struct Journal {
  Journal()
      : program(kernels::make_program("cg", kernels::Preset::kDefault)),
        golden(fi::run_golden(*program)),
        log(program->config_key()) {
    util::Rng rng(1);
    const std::vector<campaign::ExperimentId> ids =
        campaign::sample_uniform(rng, golden.sample_space_size(), kExperiments);
    log.append(campaign::run_experiments(*program, golden, ids, pool_of(4)));
    log.dedupe();
    for (const campaign::ExperimentRecord& record : log.records()) {
      if (campaign::is_classic(record.id) &&
          record.result.outcome == fi::Outcome::kMasked) {
        masked_ids.push_back(record.id);
      }
    }
  }
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  campaign::CampaignLog log;
  std::vector<campaign::ExperimentId> masked_ids;
};

const Journal& journal() {
  static const Journal instance;
  return instance;
}

void BM_BoundaryFromLog(benchmark::State& state) {
  const Journal& j = journal();
  util::ThreadPool& pool = pool_of(static_cast<std::size_t>(state.range(0)));
  const boundary::AccumulatorOptions options{state.range(1) != 0, 32};
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign::boundary_from_log(
        *j.program, j.golden, j.log, options, pool));
  }
  state.counters["replayed"] = static_cast<double>(j.masked_ids.size());
}
BENCHMARK(BM_BoundaryFromLog)
    ->ArgNames({"threads", "filter"})
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CompareRerunNoFold(benchmark::State& state) {
  const Journal& j = journal();
  util::ThreadPool& pool = pool_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign::run_experiments_compare(
        *j.program, j.golden, j.masked_ids, pool, nullptr));
  }
  state.counters["replayed"] = static_cast<double>(j.masked_ids.size());
}
BENCHMARK(BM_CompareRerunNoFold)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
