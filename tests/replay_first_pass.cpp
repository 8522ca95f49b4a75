// First-pass boundary evidence (campaign/evidence.h): what a checkpointed
// run folds while it executes must give boundaries and section records
// byte-identical to boundary_from_log / build_section_record of the
// finished journal, which replay every masked record.  The matrix covers
// the paper's kernels and a threaded variant, the filter on and off, the
// in-process pool at 1, 2 and 4 threads and the supervisor at 1 and 2
// workers, and fresh, drained-then-resumed and torn-copy-resumed runs.
// Besides bytes, every case pins how many masked records were replayed:
// none after a fresh run, exactly the loaded ones after a resume.  Beside
// the matrix: a hazard campaign whose death chunks are replayed, executors
// that do not fold, an ascending-order fold, a journal holding ids outside
// the run, and evidence that does not fit its log.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "boundary/serialize.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/evidence.h"
#include "campaign/log.h"
#include "campaign/sample_space.h"
#include "campaign/sampler.h"
#include "fi/executor.h"
#include "kernels/hazard.h"
#include "kernels/registry.h"
#include "sections/compose.h"
#include "sections/driver.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::campaign {
namespace {

namespace fs = std::filesystem;

#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

util::ThreadPool& pool_of(std::size_t threads) {
  static std::map<std::size_t, std::unique_ptr<util::ThreadPool>> pools;
  auto& pool = pools[threads];
  if (!pool) pool = std::make_unique<util::ThreadPool>(threads);
  return *pool;
}

std::string temp_path(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("ftb_first_pass_" + tag + "_" + std::to_string(::getpid()) +
           ".clog"))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t masked_classic(std::span<const ExperimentRecord> records) {
  std::uint64_t masked = 0;
  for (const ExperimentRecord& record : records) {
    masked += is_classic(record.id) &&
              record.result.outcome == fi::Outcome::kMasked;
  }
  return masked;
}

/// Masked classic records of the journal at `path`, which a resumed run
/// loads and so has to replay.
std::uint64_t loaded_masked(const std::string& path) {
  std::optional<CampaignLog> log = CampaignLog::load(path);
  if (!log) return 0;
  log->dedupe();
  return masked_classic(log->records());
}

CampaignLog reference_log(const fi::Program& program,
                          const fi::GoldenRun& golden,
                          std::span<const ExperimentId> ids) {
  CampaignLog log(program.config_key());
  log.append(run_experiments(program, golden, ids, pool_of(2)));
  log.dedupe();
  return log;
}

std::string section_bytes(const sections::SectionRecord& record) {
  sections::ComposedArtifact artifact;
  artifact.config_key = "first-pass";
  artifact.sections.push_back(record);
  return sections::serialize(artifact);
}

/// The check behind every case: with the filter on and off, the boundary
/// and a mid-trace section record built from `evidence` are byte-identical
/// to the replay-only ones, and exactly `replayed` masked records were
/// replayed while the rest came from the first pass.
void expect_matches_replay(const fi::Program& program,
                           const fi::GoldenRun& golden, const CampaignLog& log,
                           const FirstPassEvidence& evidence,
                           std::uint64_t replayed) {
  util::ThreadPool& pool = pool_of(2);
  const std::uint64_t masked = masked_classic(log.records());
  sections::SectionSpec spec;
  spec.name = "mid";
  spec.begin = golden.trace.size() / 3;
  spec.end = std::max(spec.begin + 1, 2 * golden.trace.size() / 3);
  for (const bool filter : {false, true}) {
    SCOPED_TRACE("filter=" + std::to_string(filter));
    const boundary::AccumulatorOptions options{filter, 32};
    const LogEvidence folded = fold_log_evidence(
        program, golden, log, options, pool, nullptr, {}, &evidence);
    EXPECT_EQ(boundary::serialize(folded.accumulator.finalize(),
                                  program.config_key()),
              boundary::serialize(
                  boundary_from_log(program, golden, log, options, pool),
                  program.config_key()));
    EXPECT_EQ(folded.stats.replayed, replayed);
    EXPECT_EQ(folded.stats.folded, masked - replayed);
    EXPECT_EQ(folded.stats.mismatches, 0u);
    EXPECT_FALSE(folded.stats.first_pass_dropped);

    sections::SectionCampaignOptions section_options;
    section_options.stem = "first";
    section_options.filter = filter;
    section_options.pool = &pool;
    EXPECT_EQ(section_bytes(sections::build_section_record(
                  program, golden, spec, log, "first.mid", section_options,
                  &evidence)),
              section_bytes(sections::build_section_record(
                  program, golden, spec, log, "first.mid", section_options)));
  }
}

// ---------------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------------

struct KernelCase {
  const char* kernel;
  std::uint64_t batch;  // journal chunks of batch / 8 experiments
};

struct Executor {
  const char* name;
  std::size_t threads;  // in-process pool size
  int workers;          // supervised workers; 0 = in-process
};

enum class Start { kFresh, kDrained, kTorn };

const char* name_of(Start start) {
  return start == Start::kFresh     ? "fresh"
         : start == Start::kDrained ? "drained"
                                    : "torn";
}

// Readable parameters in test listings.
void PrintTo(const KernelCase& c, std::ostream* out) { *out << c.kernel; }
void PrintTo(const Executor& e, std::ostream* out) { *out << e.name; }
void PrintTo(Start start, std::ostream* out) { *out << name_of(start); }

constexpr std::size_t kFlushEvery = 64;
constexpr int kChunksBeforeCut = 3;

CheckpointOptions options_for(const Executor& executor,
                              const std::string& path,
                              std::size_t flush_every = kFlushEvery) {
  CheckpointOptions options;
  options.path = path;
  options.flush_every = flush_every;
  options.pool = &pool_of(executor.threads);
  if (executor.workers > 0) {
    options.use_supervisor = true;
    options.supervisor.pool.workers = executor.workers;
    options.supervisor.allow_in_process_fallback = false;
  }
  return options;
}

class FirstPassMatrix
    : public ::testing::TestWithParam<std::tuple<KernelCase, Executor, Start>> {
};

TEST_P(FirstPassMatrix, BytesMatchReplayOfTheFinishedJournal) {
  const auto& [kernel, executor, start] = GetParam();
  if (kThreadSanitizer && executor.workers > 0 &&
      std::string(kernel.kernel).find("+t") != std::string::npos) {
    // The threaded kernel starts threads inside each forked worker, which
    // the race detector's runtime cannot follow; the worker dies on it.
    GTEST_SKIP() << "threads started in a forked worker under TSan";
  }
  const fi::ProgramPtr program =
      kernels::make_program(kernel.kernel, kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(7);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), kernel.batch);
  const std::string path = temp_path("matrix");
  fs::remove(path);
  const std::size_t flush_every = kernel.batch / 8;

  std::uint64_t replayed = 0;
  if (start == Start::kDrained) {
    CheckpointOptions options = options_for(executor, path, flush_every);
    int flushes = 0;
    options.on_progress = [&](const CheckpointProgress& p) {
      flushes += !p.chunk.empty();
    };
    options.should_stop = [&] { return flushes >= kChunksBeforeCut; };
    ASSERT_TRUE(run_campaign_checkpointed(*program, golden, ids, options)
                    .stopped);
    replayed = loaded_masked(path);
  } else if (start == Start::kTorn) {
    // Copy the in-flight v4 journal after a few appends and cut its last
    // frame short, as a crash mid-append would.
    const std::string side = temp_path("side");
    fs::remove(side);
    CheckpointOptions options = options_for(executor, side, flush_every);
    int flushes = 0;
    options.on_progress = [&](const CheckpointProgress& p) {
      if (!p.chunk.empty() && ++flushes == kChunksBeforeCut) {
        const std::string bytes = read_file(side);
        write_file(path, bytes.substr(0, bytes.size() - 9));
      }
    };
    run_campaign_checkpointed(*program, golden, ids, options);
    fs::remove(side);
    replayed = loaded_masked(path);
  }

  const CheckpointRunResult run = run_campaign_checkpointed(
      *program, golden, ids, options_for(executor, path, flush_every));
  fs::remove(path);
  EXPECT_FALSE(run.stopped);
  EXPECT_EQ(run.resumed, start != Start::kFresh);
  EXPECT_EQ(run.torn_frames, start == Start::kTorn ? 1u : 0u);
  if (start != Start::kFresh) {
    EXPECT_GT(replayed, 0u);
  }
  // Compare-mode runs classify exactly as outcome-only ones.
  EXPECT_EQ(run.log.serialize(),
            reference_log(*program, golden, ids).serialize());
  EXPECT_EQ(run.evidence.stats().discarded_chunks, 0u);
  expect_matches_replay(*program, golden, run.log, run.evidence, replayed);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, FirstPassMatrix,
    ::testing::Combine(
        ::testing::Values(KernelCase{"cg", 2000}, KernelCase{"lu", 1500},
                          KernelCase{"fft", 2000}, KernelCase{"cg+t2", 80}),
        ::testing::Values(Executor{"pool1", 1, 0}, Executor{"pool2", 2, 0},
                          Executor{"pool4", 4, 0},
                          Executor{"supervisor1", 2, 1},
                          Executor{"supervisor2", 2, 2}),
        ::testing::Values(Start::kFresh, Start::kDrained, Start::kTorn)),
    [](const auto& param) {
      std::string name = std::get<0>(param.param).kernel;
      std::replace(name.begin(), name.end(), '+', '_');
      return name + "_" + std::get<1>(param.param).name + "_" +
             name_of(std::get<2>(param.param));
    });

// ---------------------------------------------------------------------------
// Chunks whose partials cannot be trusted, and executors that do not fold
// ---------------------------------------------------------------------------

TEST(FirstPassHazard, ChunksWithWorkerDeathsAreReplayedNotFolded) {
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  std::vector<ExperimentId> ids;
  for (std::uint64_t site = 0; site < golden.trace.size(); ++site) {
    for (const int bit : {1, 2, 3, 8}) ids.push_back(encode(site, bit));
  }
  ids.push_back(encode(program.offset_site(1), 61));   // lethal SIGSEGV
  ids.push_back(encode(program.divisor_site(0), 62));  // lethal SIGFPE

  const std::string path = temp_path("hazard");
  fs::remove(path);
  CheckpointOptions options;
  options.path = path;
  options.flush_every = 16;
  options.use_supervisor = true;
  options.supervisor.pool.workers = 2;
  options.supervisor.chunk_size = 4;
  options.supervisor.quarantine_after = 2;
  options.supervisor.allow_in_process_fallback = false;
  // Every masked record of a chunk that saw a death must be replayed.
  std::uint64_t lost = 0;
  std::uint64_t deaths_seen = 0;
  std::uint64_t death_chunks = 0;
  options.on_progress = [&](const CheckpointProgress& p) {
    if (p.chunk.empty() || p.supervisor == nullptr) return;
    const std::uint64_t deaths =
        p.supervisor->worker_deaths + p.supervisor->worker_hangs;
    if (deaths > deaths_seen) {
      lost += masked_classic(p.chunk);
      ++death_chunks;
    }
    deaths_seen = deaths;
  };
  const CheckpointRunResult run =
      run_campaign_checkpointed(program, golden, ids, options);
  fs::remove(path);
  EXPECT_GT(run.supervisor_stats.worker_deaths, 0u);
  EXPECT_EQ(run.supervisor_stats.quarantined, 2u);
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(run.evidence.stats().discarded_chunks, death_chunks);
  expect_matches_replay(program, golden, run.log, run.evidence, lost);
}

TEST(FirstPassExecutors, SandboxAndSnapshotRunsReplayEverything) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(9);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 300);
  const CampaignLog reference = reference_log(*program, golden, ids);

  CheckpointOptions sandbox;
  sandbox.use_sandbox = true;
  CheckpointOptions snapshot;
  snapshot.use_supervisor = true;
  snapshot.supervisor.pool.workers = 2;
  snapshot.supervisor.pool.use_snapshots = true;
  for (CheckpointOptions options : {sandbox, snapshot}) {
    SCOPED_TRACE(options.use_sandbox ? "sandbox" : "snapshot");
    options.path = temp_path("nofold");
    options.flush_every = kFlushEvery;
    fs::remove(options.path);
    const CheckpointRunResult run =
        run_campaign_checkpointed(*program, golden, ids, options);
    fs::remove(options.path);
    EXPECT_EQ(run.log.serialize(), reference.serialize());
    EXPECT_TRUE(run.evidence.empty());
    expect_matches_replay(*program, golden, run.log, run.evidence,
                          masked_classic(run.log.records()));
  }
}

// ---------------------------------------------------------------------------
// Order, foreign ids, and evidence that does not fit
// ---------------------------------------------------------------------------

struct DrivenPass {
  CampaignLog log;
  FirstPassEvidence evidence;
};

/// Drives FirstPass chunk by chunk over `ids` in the given order, as the
/// runner does but without reordering.
DrivenPass drive(const fi::Program& program, const fi::GoldenRun& golden,
                 std::span<const ExperimentId> ids) {
  FirstPass first(golden, {}, ids, 2);
  DrivenPass out{CampaignLog(program.config_key()), {}};
  for (std::size_t begin = 0; begin < ids.size(); begin += kFlushEvery) {
    const std::span<const ExperimentId> chunk =
        ids.subspan(begin, std::min(kFlushEvery, ids.size() - begin));
    const std::vector<ExperimentRecord> batch =
        first.run_chunk(program, golden, chunk, pool_of(2));
    first.settle(batch, true);
    out.log.append(batch);
  }
  out.log.dedupe();
  out.evidence = first.finish();
  return out;
}

double interval_share(const FirstPassEvidence& evidence) {
  return static_cast<double>(evidence.stats().interval_values) /
         static_cast<double>(std::max<std::uint64_t>(evidence.stats().values, 1));
}

TEST(FirstPassOrder, AscendingOrderFoldsThroughIntervalsToTheSameBytes) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(11);
  std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 3000);
  std::sort(ids.begin(), ids.end());
  const DrivenPass ascending = drive(*program, golden, ids);
  std::reverse(ids.begin(), ids.end());
  const DrivenPass descending = drive(*program, golden, ids);

  EXPECT_EQ(ascending.log.serialize(), descending.log.serialize());
  EXPECT_GT(interval_share(ascending.evidence), 0.9);
  EXPECT_LT(interval_share(descending.evidence), 0.25);
  {
    SCOPED_TRACE("ascending");
    expect_matches_replay(*program, golden, ascending.log, ascending.evidence,
                          0);
  }
  {
    SCOPED_TRACE("descending");
    expect_matches_replay(*program, golden, descending.log,
                          descending.evidence, 0);
  }
}

TEST(FirstPassJournal, LoadedIdsOutsideTheRunAreReplayed) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng_a(3);
  util::Rng rng_b(4);
  const std::vector<ExperimentId> ids_a =
      sample_uniform(rng_a, golden.sample_space_size(), 1500);
  const std::vector<ExperimentId> ids_b =
      sample_uniform(rng_b, golden.sample_space_size(), 1500);
  std::vector<ExperimentId> both = ids_a;
  both.insert(both.end(), ids_b.begin(), ids_b.end());
  const CampaignLog reference = reference_log(*program, golden, both);

  for (const Executor& executor :
       {Executor{"pool2", 2, 0}, Executor{"supervisor2", 2, 2}}) {
    SCOPED_TRACE(executor.name);
    const std::string path = temp_path("foreign");
    fs::remove(path);
    run_campaign_checkpointed(*program, golden, ids_a,
                              options_for(executor, path));
    const std::uint64_t loaded = loaded_masked(path);
    const CheckpointRunResult run = run_campaign_checkpointed(
        *program, golden, ids_b, options_for(executor, path));
    fs::remove(path);
    EXPECT_EQ(run.log.serialize(), reference.serialize());
    expect_matches_replay(*program, golden, run.log, run.evidence, loaded);
  }
}

TEST(FirstPassJournal, EvidenceThatDoesNotFitItsLogIsDroppedWhole) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(5);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 1500);
  const std::string path = temp_path("misfit");
  fs::remove(path);
  CheckpointOptions options = options_for(Executor{"pool2", 2, 0}, path);
  const CheckpointRunResult run =
      run_campaign_checkpointed(*program, golden, ids, options);
  fs::remove(path);

  // Halve one SDC record's injected error: its site's final cutoff is no
  // longer the one the run published.
  std::vector<ExperimentRecord> records = run.log.records();
  const auto sdc = std::find_if(
      records.begin(), records.end(), [](const ExperimentRecord& record) {
        return is_classic(record.id) &&
               record.result.outcome == fi::Outcome::kSdc &&
               std::isfinite(record.result.injected_error);
      });
  ASSERT_NE(sdc, records.end());
  sdc->result.injected_error /= 2;
  CampaignLog forged(run.log.config_key());
  forged.append(records);

  for (const bool filter : {false, true}) {
    SCOPED_TRACE("filter=" + std::to_string(filter));
    const boundary::AccumulatorOptions accumulate{filter, 32};
    const LogEvidence folded =
        fold_log_evidence(*program, golden, forged, accumulate, pool_of(2),
                          nullptr, {}, &run.evidence);
    EXPECT_TRUE(folded.stats.first_pass_dropped);
    EXPECT_EQ(folded.stats.replayed, masked_classic(forged.records()));
    EXPECT_EQ(boundary::serialize(folded.accumulator.finalize(),
                                  program->config_key()),
              boundary::serialize(boundary_from_log(*program, golden, forged,
                                                    accumulate, pool_of(2)),
                                  program->config_key()));
  }
}

}  // namespace
}  // namespace ftb::campaign
