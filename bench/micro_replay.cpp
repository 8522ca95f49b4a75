// The masked replay behind campaign::boundary_from_log on a CG `default`
// journal of 20000 uniform experiments (seed 1): the boundary rebuild at
// 1, 2 and 4 pool threads with the Section 3.5 filter off and on, and
// beside it the bare Compare-mode re-run of the same masked ids with no
// fold -- the floor any fold sits on.
//
// Then the whole campaign -> boundary path on the same ids, chunked by 512
// like the checkpointed runner (journal writes left out), three ways:
//
//   OutcomeOnlyPass  the experiments alone, outcome-only: the floor;
//   PassPlusReplay   that pass, then boundary_from_log replays every
//                    masked record (the two-pass path);
//   SinglePass       the first pass folds as it runs (campaign::FirstPass,
//                    descending site order, cutoffs published between
//                    chunks), then boundary_from_log resolves its evidence
//                    and replays nothing.
//
// each on the in-process pool at 1, 2 and 4 threads and on a supervised
// pool of 2 workers (forked per iteration, as a campaign forks its own).
// All boundaries use the filter.  The interval_share counter is the share
// of folded suffix values that sat at a site not yet settled.
// bench/BENCH_campaign.json records these numbers.
//
//   $ micro_replay --benchmark_repetitions=5 --benchmark_report_aggregates_only
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/evidence.h"
#include "campaign/log.h"
#include "campaign/sample_space.h"
#include "campaign/sampler.h"
#include "campaign/supervisor.h"
#include "fi/executor.h"
#include "kernels/registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ftb;

constexpr std::uint64_t kExperiments = 20000;
constexpr std::size_t kChunk = 512;

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
    ids = campaign::sample_uniform(rng, golden.sample_space_size(),
                                   kExperiments);
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
  std::vector<campaign::ExperimentId> ids;
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

// ---------------------------------------------------------------------------
// Campaign -> boundary
// ---------------------------------------------------------------------------

enum class Path { kOutcomeOnly, kPassPlusReplay, kSinglePass };

/// One campaign over the journal's ids in chunks of kChunk, on `pool`
/// (workers == 0) or on a supervised pool of `workers`, then (unless
/// outcome-only) the filtered boundary.  Returns the first pass's counters.
campaign::FirstPassStats campaign_to_boundary(Path path,
                                              util::ThreadPool& pool,
                                              int workers) {
  const Journal& j = journal();
  std::vector<campaign::ExperimentId> ids = j.ids;
  const bool single = path == Path::kSinglePass;
  if (single) std::sort(ids.begin(), ids.end(), std::greater<>());
  const std::span<const campaign::ExperimentId> owed =
      single ? std::span<const campaign::ExperimentId>(ids)
             : std::span<const campaign::ExperimentId>();
  campaign::FirstPass first(j.golden, {}, owed,
                            workers > 0 ? static_cast<std::size_t>(workers)
                                        : pool.thread_count());
  std::optional<campaign::CampaignSupervisor> supervisor;
  if (workers > 0) {
    campaign::SupervisorOptions options;
    options.pool.workers = workers;
    if (single) {
      options.pool.run_experiment = [&](const fi::Injection& injection,
                                        std::size_t slot) {
        return first.run(*j.program, j.golden, injection, slot);
      };
    }
    supervisor.emplace(*j.program, j.golden, options);
  }
  campaign::CampaignLog log(j.program->config_key());
  for (std::size_t begin = 0; begin < ids.size(); begin += kChunk) {
    const std::span<const campaign::ExperimentId> chunk(
        ids.data() + begin, std::min(kChunk, ids.size() - begin));
    std::vector<campaign::ExperimentRecord> batch =
        supervisor ? supervisor->run(chunk)
        : single   ? first.run_chunk(*j.program, j.golden, chunk, pool)
                   : campaign::run_experiments(*j.program, j.golden, chunk,
                                               pool);
    if (single) first.settle(batch, true);
    log.append(batch);
  }
  supervisor.reset();
  const campaign::FirstPassEvidence evidence = first.finish();
  if (path == Path::kOutcomeOnly) return evidence.stats();
  log.dedupe();
  benchmark::DoNotOptimize(campaign::boundary_from_log(
      *j.program, j.golden, log, {true, 32}, pool, nullptr,
      single ? &evidence : nullptr));
  return evidence.stats();
}

void BM_Campaign(benchmark::State& state, Path path) {
  const int workers = static_cast<int>(state.range(1));
  util::ThreadPool& pool = pool_of(static_cast<std::size_t>(state.range(0)));
  journal();  // built outside the timed region
  campaign::FirstPassStats stats;
  for (auto _ : state) stats = campaign_to_boundary(path, pool, workers);
  state.counters["experiments"] = static_cast<double>(kExperiments);
  state.counters["interval_share"] =
      static_cast<double>(stats.interval_values) /
      static_cast<double>(std::max<std::uint64_t>(stats.values, 1));
}

void campaign_args(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "workers"})
      ->Args({1, 0})
      ->Args({2, 0})
      ->Args({4, 0})
      ->Args({2, 2})
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

BENCHMARK_CAPTURE(BM_Campaign, OutcomeOnlyPass, Path::kOutcomeOnly)
    ->Apply(campaign_args);
BENCHMARK_CAPTURE(BM_Campaign, PassPlusReplay, Path::kPassPlusReplay)
    ->Apply(campaign_args);
BENCHMARK_CAPTURE(BM_Campaign, SinglePass, Path::kSinglePass)
    ->Apply(campaign_args);

}  // namespace
