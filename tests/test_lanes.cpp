// Lane groups against the one-experiment path they replace.
//
// fi::run_injected_group runs up to four injections through one kernel
// pass on fi::Lanes; every lane must return exactly what run_injected /
// run_injected_compare return for its injection -- outcome, crash site,
// injected and output error, diffs from its site on -- on every kernel with
// a lane body (cg, lu, fft).  campaign::FirstPass folds a group's masked
// lanes in one pass, which must fold exactly what one experiment at a time
// folds.  The supervised pool runs those groups in its workers and reports
// how long each chunk kept a worker busy.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boundary/boundary.h"
#include "boundary/serialize.h"
#include "campaign/checkpoint.h"
#include "campaign/evidence.h"
#include "campaign/sample_space.h"
#include "campaign/sampler.h"
#include "fi/executor.h"
#include "fi/fpbits.h"
#include "kernels/cg.h"
#include "kernels/registry.h"
#include "telemetry/events.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb {
namespace {

constexpr int kBits[] = {0, 30, 51, 52, 62, 63};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool same_result(const fi::ExperimentResult& a, const fi::ExperimentResult& b) {
  return a.outcome == b.outcome && a.crash_reason == b.crash_reason &&
         a.crash_site == b.crash_site &&
         fi::to_bits(a.injected_error) == fi::to_bits(b.injected_error) &&
         fi::to_bits(a.output_error) == fi::to_bits(b.output_error) &&
         a.detector_fired == b.detector_fired;
}

std::string describe(const fi::Injection& injection) {
  return "site " + std::to_string(injection.site) + " bit " +
         std::to_string(injection.bit);
}

/// What a test learns from checking one group.
struct Checked {
  std::size_t crashes = 0;
};

/// Runs `group` as a lane group in Inject and Compare mode and checks each
/// lane against the scalar executor: results, diffs and, for a program
/// with a lane body, the output itself.
Checked expect_group_matches(const fi::Program& program,
                             const fi::GoldenRun& golden,
                             std::span<const fi::Injection> group) {
  Checked checked;
  const fi::GroupResults inject = fi::run_injected_group(program, golden, group);
  std::vector<double> diffs(golden.trace.size() * fi::kLanes, kNaN);
  const fi::GroupResults compare =
      fi::run_injected_group(program, golden, group, diffs);
  // The lanes' outputs themselves, from the group's own start state.
  const fi::GoldenState* start = fi::start_state(
      golden, *std::min_element(group.begin(), group.end(),
                                [](const fi::Injection& a,
                                   const fi::Injection& b) {
                                  return a.site < b.site;
                                }));
  fi::LaneGroup lanes(group, start);
  std::optional<std::vector<fi::Lanes>> outputs;
  try {
    outputs = program.run_lanes(lanes);
  } catch (const fi::CrashSignal&) {
  }
  std::vector<double> own(golden.trace.size());
  for (std::size_t l = 0; l < group.size(); ++l) {
    const fi::Injection& injection = group[l];
    const fi::ExperimentResult expected =
        fi::run_injected(program, golden, injection);
    if (outputs && expected.outcome != fi::Outcome::kCrash) {
      fi::Tracer tracer =
          fi::Tracer::injector(injection, fi::start_state(golden, injection));
      const std::vector<double> scalar = program.run(tracer);
      EXPECT_EQ(outputs->size(), scalar.size());
      for (std::size_t i = 0; i < std::min(scalar.size(), outputs->size());
           ++i) {
        if (fi::to_bits((*outputs)[i][l]) != fi::to_bits(scalar[i])) {
          ADD_FAILURE() << program.name() << " lane " << l << ", "
                        << describe(injection) << ": output " << i;
          break;
        }
      }
    }
    EXPECT_TRUE(same_result(inject[l], expected))
        << program.name() << " inject lane " << l << ", " << describe(injection);
    const fi::ExperimentResult expected_compare =
        fi::run_injected_compare(program, golden, injection, own);
    EXPECT_TRUE(same_result(compare[l], expected_compare))
        << program.name() << " compare lane " << l << ", "
        << describe(injection);
    if (expected.outcome == fi::Outcome::kCrash) {
      ++checked.crashes;
      continue;  // a crash's diffs are unspecified
    }
    for (std::uint64_t i = injection.site; i < golden.trace.size(); ++i) {
      if (fi::to_bits(diffs[i * fi::kLanes + l]) != fi::to_bits(own[i])) {
        ADD_FAILURE() << program.name() << " lane " << l << ", "
                      << describe(injection) << ": diff " << i << " is "
                      << diffs[i * fi::kLanes + l] << ", scalar " << own[i];
        break;
      }
    }
  }
  return checked;
}

/// Checks `injections` in groups of fi::kLanes, in order.
Checked expect_groups_match(const fi::Program& program,
                            const fi::GoldenRun& golden,
                            const std::vector<fi::Injection>& injections) {
  Checked checked;
  for (std::size_t begin = 0; begin < injections.size(); begin += fi::kLanes) {
    const std::size_t size =
        std::min(fi::kLanes, injections.size() - begin);
    checked.crashes +=
        expect_group_matches(program, golden,
                             std::span(injections).subspan(begin, size))
            .crashes;
    if (::testing::Test::HasFailure()) break;  // one broken group says enough
  }
  return checked;
}

class LaneKernels : public ::testing::TestWithParam<const char*> {};

// Every site and bits {0, 30, 51, 52, 62, 63} of the tiny preset, grouped
// site-major and also with each group's lanes a quarter of the trace apart,
// so that groups span stage boundaries.
TEST_P(LaneKernels, TinyEverySiteAndBitMatchesScalar) {
  const fi::ProgramPtr program =
      kernels::make_program(GetParam(), kernels::Preset::kTiny);
  ASSERT_TRUE(fi::has_lane_body(*program));
  const fi::GoldenRun golden = fi::run_golden(*program);
  ASSERT_FALSE(golden.states.empty());
  std::vector<fi::Injection> injections;
  for (std::uint64_t site = 0; site < golden.trace.size(); ++site) {
    for (const int bit : kBits) {
      injections.push_back(fi::Injection::bit_flip(site, bit));
    }
  }
  const Checked site_major = expect_groups_match(*program, golden, injections);
  EXPECT_GT(site_major.crashes, 0u);

  std::vector<fi::Injection> spread;
  const std::size_t quarter = (injections.size() + 3) / 4;
  for (std::size_t k = 0; k < quarter; ++k) {
    for (std::size_t l = 0; l < fi::kLanes; ++l) {
      if (k + l * quarter < injections.size()) {
        spread.push_back(injections[k + l * quarter]);
      }
    }
  }
  expect_groups_match(*program, golden, spread);
}

// 2000 seeded random ids of the default preset: in a campaign's descending
// order and in sampled order.
TEST_P(LaneKernels, DefaultRandomIdsMatchScalar) {
  const fi::ProgramPtr program =
      kernels::make_program(GetParam(), kernels::Preset::kDefault);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(23);
  std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, golden.sample_space_size(), 2000);
  std::vector<fi::Injection> sampled;
  for (const campaign::ExperimentId id : ids) {
    sampled.push_back(campaign::injection_of(id));
  }
  const Checked unordered = expect_groups_match(*program, golden, sampled);
  EXPECT_GT(unordered.crashes, 0u);
  std::sort(ids.begin(), ids.end(), std::greater<>());
  std::vector<fi::Injection> descending;
  for (const campaign::ExperimentId id : ids) {
    descending.push_back(campaign::injection_of(id));
  }
  expect_groups_match(*program, golden, descending);
}

INSTANTIATE_TEST_SUITE_P(Lanes, LaneKernels,
                         ::testing::Values("cg", "lu", "fft"));

struct CgDefault {
  fi::ProgramPtr program = kernels::make_program("cg", kernels::Preset::kDefault);
  fi::GoldenRun golden = fi::run_golden(*program);

  /// A site whose golden value turns non-finite when bit 62 flips.
  std::uint64_t lethal_site(std::uint64_t from) const {
    for (std::uint64_t site = from; site < golden.trace.size(); ++site) {
      if (!std::isfinite(fi::flip_bit(golden.trace[site], 62))) return site;
    }
    return golden.trace.size();
  }
};

TEST(LaneGroups, ALaneThatTrapsWhenItFiresLeavesTheOthersAlone) {
  const CgDefault cg;
  const std::uint64_t lethal = cg.lethal_site(100);
  ASSERT_LT(lethal + 3, cg.golden.trace.size());
  const std::vector<fi::Injection> group = {
      fi::Injection::bit_flip(lethal - 2, 20),
      fi::Injection::bit_flip(lethal, 62),
      fi::Injection::bit_flip(lethal + 1, 40),
      fi::Injection::bit_flip(lethal + 3, 3)};
  const fi::GroupResults results =
      fi::run_injected_group(*cg.program, cg.golden, group);
  EXPECT_EQ(results[1].outcome, fi::Outcome::kCrash);
  EXPECT_EQ(results[1].crash_site, lethal);
  EXPECT_TRUE(std::isinf(results[1].injected_error));
  for (const std::size_t l : {0u, 2u, 3u}) {
    EXPECT_NE(results[l].outcome, fi::Outcome::kCrash) << "lane " << l;
  }
  expect_group_matches(*cg.program, cg.golden, group);
}

TEST(LaneGroups, AGroupWhoseEveryLaneTrapsStopsAtTheLastTrap) {
  const CgDefault cg;
  std::vector<fi::Injection> group;
  for (std::uint64_t site = cg.lethal_site(100);
       group.size() < fi::kLanes && site < cg.golden.trace.size();
       site = cg.lethal_site(site + 37)) {
    group.push_back(fi::Injection::bit_flip(site, 62));
  }
  // One lane that traps later, through propagation: NaN at its own site.
  group.back() = fi::Injection::set_value(group.back().site + 5, kNaN);
  ASSERT_EQ(group.size(), fi::kLanes);
  const fi::GroupResults results =
      fi::run_injected_group(*cg.program, cg.golden, group);
  for (std::size_t l = 0; l < fi::kLanes; ++l) {
    EXPECT_EQ(results[l].outcome, fi::Outcome::kCrash) << "lane " << l;
    EXPECT_EQ(results[l].crash_reason, fi::CrashReason::kNonFinite);
  }
  expect_group_matches(*cg.program, cg.golden, group);
}

TEST(LaneGroups, PartialGroupsOfOneToThreeLanes) {
  for (const char* kernel : {"cg", "lu", "fft"}) {
    const fi::ProgramPtr program =
        kernels::make_program(kernel, kernels::Preset::kDefault);
    const fi::GoldenRun golden = fi::run_golden(*program);
    const std::uint64_t last = golden.trace.size() - 1;
    const std::vector<fi::Injection> all = {
        fi::Injection::bit_flip(last / 3, 51),
        fi::Injection::bit_flip(last / 2, 62),
        fi::Injection::bit_flip(last, 63)};
    for (std::size_t size = 1; size <= all.size(); ++size) {
      expect_group_matches(*program, golden,
                           std::span(all).first(size));
    }
  }
}

// Each lane's output goes through the program's ABFT detector, as a
// scalar run's does.
TEST(LaneGroups, LanesClassifyThroughTheDetector) {
  kernels::CgConfig config;
  config.detector = true;
  const kernels::CgProgram program(config);
  ASSERT_TRUE(fi::has_lane_body(program));
  const fi::GoldenRun golden = fi::run_golden(program);
  util::Rng rng(29);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, golden.sample_space_size(), 400);
  std::vector<fi::Injection> injections;
  for (const campaign::ExperimentId id : ids) {
    injections.push_back(campaign::injection_of(id));
  }
  expect_groups_match(program, golden, injections);
  std::size_t detected = 0;
  for (const fi::Injection& injection : injections) {
    detected += fi::run_injected(program, golden, injection).outcome ==
                fi::Outcome::kDetected;
  }
  EXPECT_GT(detected, 0u);
}

TEST(LaneGroups, GroupsSpanningAStageBoundaryStartAtTheLowestSitesState) {
  for (const char* kernel : {"cg", "lu", "fft"}) {
    const fi::ProgramPtr program =
        kernels::make_program(kernel, kernels::Preset::kDefault);
    const fi::GoldenRun golden = fi::run_golden(*program);
    ASSERT_GE(golden.states.size(), 3u) << kernel;
    for (std::size_t k = 1; k + 1 < golden.states.size(); k += 3) {
      const std::uint64_t edge = golden.states[k].index;
      const std::uint64_t next = golden.states[k + 1].index;
      const std::vector<fi::Injection> group = {
          fi::Injection::bit_flip(next, 52),
          fi::Injection::bit_flip(edge - 1, 30),
          fi::Injection::bit_flip(edge, 51),
          fi::Injection::bit_flip(next - 1, 63)};
      expect_group_matches(*program, golden, group);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(LaneGroups, ProgramsWithoutALaneBodyRunEachInjectionAlone) {
  EXPECT_TRUE(fi::has_lane_body(
      *kernels::make_program("cg", kernels::Preset::kTiny)));
  kernels::CgConfig sharded;
  sharded.threads = 2;
  EXPECT_FALSE(fi::has_lane_body(kernels::CgProgram(sharded)));
  for (const char* kernel : {"daxpy", "gemm", "hazard"}) {
    const fi::ProgramPtr program =
        kernels::make_program(kernel, kernels::Preset::kTiny);
    EXPECT_FALSE(fi::has_lane_body(*program)) << kernel;
    if (std::string(kernel) == "hazard") continue;  // lethal flips
    const fi::GoldenRun golden = fi::run_golden(*program);
    std::vector<fi::Injection> group;
    for (std::size_t l = 0; l < fi::kLanes; ++l) {
      group.push_back(fi::Injection::bit_flip(
          (l * 7 + 3) % golden.trace.size(), kBits[l]));
    }
    expect_group_matches(*program, golden, group);
  }
  // A memory-target fault in a lane-body program takes the scalar path.
  const CgDefault cg;
  const std::vector<fi::Injection> memory = {
      fi::Injection::mem_xor(0, 5, std::uint64_t{1} << 52),
      fi::Injection::bit_flip(900, 52)};
  const fi::GroupResults results =
      fi::run_injected_group(*cg.program, cg.golden, memory);
  for (std::size_t l = 0; l < memory.size(); ++l) {
    EXPECT_TRUE(same_result(
        results[l], fi::run_injected(*cg.program, cg.golden, memory[l])));
  }
}

// ---------------------------------------------------------------------------
// The group fold
// ---------------------------------------------------------------------------

struct FoldRun {
  std::vector<campaign::ExperimentRecord> records;
  campaign::FirstPassEvidence evidence;
  campaign::GroupCounts groups;
};

/// Drives a FirstPass over `ids` in chunks of 256, in the given order:
/// grouped (run_chunk) or one experiment at a time (run).
FoldRun first_pass(const fi::Program& program, const fi::GoldenRun& golden,
                   std::span<const campaign::ExperimentId> ids, bool grouped) {
  util::ThreadPool pool(1);
  campaign::FirstPass first(golden, {}, ids, 1);
  EXPECT_TRUE(first.ok());
  FoldRun run;
  for (std::size_t begin = 0; begin < ids.size(); begin += 256) {
    const auto chunk = ids.subspan(begin, std::min<std::size_t>(256, ids.size() - begin));
    std::vector<campaign::ExperimentRecord> records;
    if (grouped) {
      records = first.run_chunk(program, golden, chunk, pool);
    } else {
      for (const campaign::ExperimentId id : chunk) {
        records.push_back(
            {id, first.run(program, golden, campaign::injection_of(id), 0)});
      }
    }
    const campaign::GroupCounts counts = first.settle(records, true);
    run.groups.groups += counts.groups;
    run.groups.lanes += counts.lanes;
    run.records.insert(run.records.end(), records.begin(), records.end());
  }
  run.evidence = first.finish();
  return run;
}

/// The final Section 3.5 cutoff of every site: its smallest SDC error.
std::vector<double> final_cutoffs(
    std::size_t sites, const std::vector<campaign::ExperimentRecord>& records) {
  std::vector<double> cutoffs(sites, kInf);
  for (const campaign::ExperimentRecord& record : records) {
    if (record.result.outcome == fi::Outcome::kSdc &&
        std::isfinite(record.result.injected_error)) {
      double& cutoff = cutoffs[campaign::site_of(record.id)];
      cutoff = std::min(cutoff, record.result.injected_error);
    }
  }
  return cutoffs;
}

void expect_same_fold(const fi::Program& program, const fi::GoldenRun& golden,
                      const std::vector<campaign::ExperimentId>& ids) {
  const FoldRun grouped = first_pass(program, golden, ids, true);
  const FoldRun single = first_pass(program, golden, ids, false);
  ASSERT_EQ(grouped.records.size(), single.records.size());
  for (std::size_t i = 0; i < grouped.records.size(); ++i) {
    ASSERT_EQ(grouped.records[i].id, single.records[i].id);
    ASSERT_TRUE(same_result(grouped.records[i].result, single.records[i].result))
        << "record " << i;
  }
  const campaign::FirstPassStats& a = grouped.evidence.stats();
  const campaign::FirstPassStats& b = single.evidence.stats();
  EXPECT_EQ(a.folded, b.folded);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.interval_values, b.interval_values);
  EXPECT_EQ(a.discarded_chunks, b.discarded_chunks);
  EXPECT_GT(a.folded, 0u);
  EXPECT_GT(a.interval_values, 0u);            // the interval path ran
  EXPECT_GT(a.values, a.interval_values);      // and the settled path
  EXPECT_EQ(grouped.groups.lanes, ids.size());
  EXPECT_LT(grouped.groups.groups, ids.size() / 2);  // lanes were filled
  const std::vector<double> cutoffs =
      final_cutoffs(golden.trace.size(), grouped.records);
  for (const bool filter : {false, true}) {
    std::vector<double> mine;
    std::vector<double> theirs;
    ASSERT_TRUE(grouped.evidence.resolve(cutoffs, filter, mine));
    ASSERT_TRUE(single.evidence.resolve(cutoffs, filter, theirs));
    ASSERT_EQ(mine.size(), theirs.size());
    for (std::size_t j = 0; j < mine.size(); ++j) {
      ASSERT_EQ(fi::to_bits(mine[j]), fi::to_bits(theirs[j]))
          << "site " << j << (filter ? " filtered" : " raw");
    }
  }
  for (const campaign::ExperimentId id : ids) {
    ASSERT_EQ(grouped.evidence.covers(id), single.evidence.covers(id));
  }
}

// Descending site order: each chunk's sites are unsettled while it runs
// (the interval path) and the sites above it settled.
TEST(FirstPassGroups, DescendingFoldEqualsOneExperimentAtATime) {
  for (const char* kernel : {"cg", "fft"}) {
    const fi::ProgramPtr program =
        kernels::make_program(kernel, kernels::Preset::kDefault);
    const fi::GoldenRun golden = fi::run_golden(*program);
    util::Rng rng(31);
    std::vector<campaign::ExperimentId> ids =
        campaign::sample_uniform(rng, golden.sample_space_size(), 2000);
    std::sort(ids.begin(), ids.end(), std::greater<>());
    expect_same_fold(*program, golden, ids);
  }
}

// Sampled order: the frontier stays high, and below it settled and
// unsettled sites mix.
TEST(FirstPassGroups, UnorderedFoldEqualsOneExperimentAtATime) {
  const CgDefault cg;
  util::Rng rng(37);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, cg.golden.sample_space_size(), 2000);
  expect_same_fold(*cg.program, cg.golden, ids);
}

// ---------------------------------------------------------------------------
// The checkpoint runner
// ---------------------------------------------------------------------------

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ftb_lanes_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(LaneCheckpoint, SupervisedWorkersRunGroupsAndReportBusyTime) {
  const CgDefault cg;
  util::Rng rng(41);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, cg.golden.sample_space_size(), 1500);
  const std::string supervised_path = temp_path("supervised.clog");
  const std::string local_path = temp_path("local.clog");
  std::filesystem::remove(supervised_path);
  std::filesystem::remove(local_path);

  telemetry::Telemetry sink;
  sink.set_enabled(true);
  campaign::CheckpointOptions options;
  options.path = supervised_path;
  options.flush_every = 256;
  options.use_supervisor = true;
  options.supervisor.pool.workers = 2;
  options.telemetry = &sink;
  const campaign::CheckpointRunResult run =
      campaign::run_campaign_checkpointed(*cg.program, cg.golden, ids, options);
  EXPECT_EQ(run.executed, ids.size());
  EXPECT_EQ(run.supervisor_stats.worker_deaths, 0u);

  auto& metrics = sink.metrics();
  const auto& busy = metrics.histogram("pool.chunk_busy_ns");
  const auto& round_trip = metrics.histogram("pool.chunk_round_trip_ns");
  EXPECT_GT(busy.count(), 0u);
  EXPECT_EQ(busy.count(), round_trip.count());
  EXPECT_GT(busy.sum(), 0u);
  EXPECT_LE(busy.sum(), round_trip.sum());
  EXPECT_LE(busy.max(), round_trip.max());
  EXPECT_EQ(metrics.counter("checkpoint.lanes").value(), ids.size());
  const std::uint64_t groups = metrics.counter("checkpoint.lane_groups").value();
  EXPECT_GT(groups, 0u);
  EXPECT_LT(groups, ids.size() / 2);

  // The same bytes as the in-process pool's.
  util::ThreadPool pool(2);
  campaign::CheckpointOptions local;
  local.path = local_path;
  local.flush_every = 256;
  local.pool = &pool;
  (void)campaign::run_campaign_checkpointed(*cg.program, cg.golden, ids, local);
  EXPECT_EQ(read_bytes(supervised_path), read_bytes(local_path));
  std::filesystem::remove(supervised_path);
  std::filesystem::remove(local_path);
}

TEST(LaneCheckpoint, AFinishedJournalSpawnsNoWorkers) {
  const CgDefault cg;
  util::Rng rng(43);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, cg.golden.sample_space_size(), 2000);
  const std::string path = temp_path("finished.clog");
  std::filesystem::remove(path);
  campaign::CheckpointOptions options;
  options.path = path;
  options.use_supervisor = true;
  options.supervisor.pool.workers = 2;
  (void)campaign::run_campaign_checkpointed(*cg.program, cg.golden, ids, options);
  const std::string finished = read_bytes(path);

  telemetry::Telemetry sink;
  sink.set_enabled(true);
  options.telemetry = &sink;
  std::vector<std::uint64_t> reported;
  options.on_progress = [&](const campaign::CheckpointProgress& progress) {
    reported.push_back(progress.executed);
  };
  const campaign::CheckpointRunResult again =
      campaign::run_campaign_checkpointed(*cg.program, cg.golden, ids, options);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.skipped, ids.size());
  EXPECT_EQ(again.supervisor_stats.pool.workers_spawned, 0u);
  EXPECT_EQ(sink.metrics().counter("pool.spawns").value(), 0u);
  EXPECT_EQ(read_bytes(path), finished);
  ASSERT_FALSE(reported.empty());
  EXPECT_EQ(reported.back(), 0u);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Boundaries without exact sites
// ---------------------------------------------------------------------------

TEST(LaneBoundary, ASampledBoundaryKeepsNoExactFlags) {
  const boundary::FaultToleranceBoundary sampled(
      {0.0, 1e-3, 2.5, kInf}, std::vector<std::uint8_t>(4, 0));
  EXPECT_FALSE(sampled.any_exact());
  for (std::size_t site = 0; site < sampled.sites(); ++site) {
    EXPECT_FALSE(sampled.is_exact(site));
  }
  const std::string bytes = boundary::serialize(sampled, "cfg");
  const boundary::FaultToleranceBoundary flagless({0.0, 1e-3, 2.5, kInf});
  EXPECT_EQ(bytes, boundary::serialize(flagless, "cfg"));
  const auto loaded = boundary::deserialize_artifact(bytes, "cfg");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->boundary.any_exact());
  EXPECT_EQ(boundary::serialize(loaded->boundary, "cfg"), bytes);

  const boundary::FaultToleranceBoundary exact({1.0, 2.0}, {0, 1});
  EXPECT_TRUE(exact.any_exact());
  EXPECT_TRUE(exact.is_exact(1));
  boundary::FaultToleranceBoundary merged = sampled;
  merged.merge_max(boundary::FaultToleranceBoundary({0.0, 0.0, 0.0, 0.0}));
  EXPECT_FALSE(merged.any_exact());
}

}  // namespace
}  // namespace ftb
