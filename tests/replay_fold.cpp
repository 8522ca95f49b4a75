// The shared masked replay (campaign::fold_log_evidence) against a
// reference fold kept here: the serial record-then-replay consumer that
// fed every replay's diffs to BoundaryAccumulator::record_masked_propagation.
// Serialized boundaries, section slices, exit bounds and entry tolerances
// must be byte-identical for every pool size, with the filter on and off,
// on the paper's kernels, a threaded variant, and an edge-case journal.
// A forged record whose replay does not re-classify Masked must be dropped
// and counted instead of folded.  These suites carry the `replay` ctest
// label so the race detector job can run them by name.
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boundary/serialize.h"
#include "campaign/campaign.h"
#include "campaign/log.h"
#include "campaign/sample_space.h"
#include "campaign/sampler.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "kernels/registry.h"
#include "sections/driver.h"
#include "sections/section.h"
#include "telemetry/events.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::campaign {
namespace {

constexpr std::size_t kPoolSizes[] = {1, 2, 4};

util::ThreadPool& pool_of(std::size_t threads) {
  static std::map<std::size_t, std::unique_ptr<util::ThreadPool>> pools;
  auto& pool = pools[threads];
  if (!pool) pool = std::make_unique<util::ThreadPool>(threads);
  return *pool;
}

struct ReferenceFold {
  boundary::FaultToleranceBoundary boundary;
  double window_max = 0.0;
};

/// The serial fold: every injection first, then each masked record's
/// replay diffs through record_masked_propagation in log order, plus the
/// exit-window maximum build_section_record used to take from them.
ReferenceFold reference_fold(const fi::Program& program,
                             const fi::GoldenRun& golden,
                             const CampaignLog& log,
                             const boundary::AccumulatorOptions& options,
                             ReplayWindow window = {}) {
  boundary::BoundaryAccumulator accumulator(golden.trace.size(), options);
  std::vector<ExperimentId> masked_ids;
  for (const ExperimentRecord& record : log.records()) {
    if (!is_classic(record.id)) continue;
    accumulator.record_injection(site_of(record.id), bit_of(record.id),
                                 record.result.outcome,
                                 record.result.injected_error);
    if (record.result.outcome == fi::Outcome::kMasked) {
      masked_ids.push_back(record.id);
    }
  }
  ReferenceFold out;
  std::vector<double> diffs(golden.trace.size());
  for (const ExperimentId id : masked_ids) {
    (void)fi::run_injected_compare(program, golden, injection_of(id), diffs);
    accumulator.record_masked_propagation(diffs);
    for (std::uint64_t j = window.begin; j < window.end; ++j) {
      if (std::isfinite(diffs[j]) && diffs[j] > out.window_max) {
        out.window_max = diffs[j];
      }
    }
  }
  out.boundary = accumulator.finalize();
  return out;
}

std::string bytes_of(const boundary::FaultToleranceBoundary& boundary,
                     const fi::Program& program) {
  return boundary::serialize(boundary, program.config_key());
}

CampaignLog run_log(const fi::Program& program, const fi::GoldenRun& golden,
                    std::uint64_t batch, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), batch);
  CampaignLog log(program.config_key());
  log.append(run_experiments(program, golden, ids, pool_of(2)));
  log.dedupe();
  return log;
}

// ---------------------------------------------------------------------------
// Byte identity on real kernels
// ---------------------------------------------------------------------------

struct KernelCase {
  const char* kernel;
  std::uint64_t batch;
};

class ReplayIdentity : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ReplayIdentity, BoundaryBytesMatchSerialFoldAtEveryPoolSize) {
  const KernelCase c = GetParam();
  const fi::ProgramPtr program =
      kernels::make_program(c.kernel, kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  const CampaignLog log = run_log(*program, golden, c.batch, 5);
  const std::uint64_t masked = count_outcomes(log.records()).masked;
  ASSERT_GT(masked, 0u);

  for (const bool filter : {false, true}) {
    const boundary::AccumulatorOptions options{filter, 32};
    const std::string expected =
        bytes_of(reference_fold(*program, golden, log, options).boundary,
                 *program);
    EXPECT_EQ(bytes_of(boundary_from_log(*program, golden, log, options,
                                         pool_of(2)),
                       *program),
              expected);
    for (const std::size_t threads : kPoolSizes) {
      SCOPED_TRACE(std::string(c.kernel) + " filter=" +
                   std::to_string(filter) + " threads=" +
                   std::to_string(threads));
      const LogEvidence evidence = fold_log_evidence(
          *program, golden, log, options, pool_of(threads));
      EXPECT_EQ(bytes_of(evidence.accumulator.finalize(), *program),
                expected);
      EXPECT_EQ(evidence.stats.replayed, masked);
      EXPECT_EQ(evidence.stats.mismatches, 0u);
      EXPECT_EQ(evidence.stats.threads, threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ReplayIdentity,
    ::testing::Values(KernelCase{"cg", 2000}, KernelCase{"lu", 1500},
                      KernelCase{"fft", 2000}, KernelCase{"cg+t2", 150}),
    [](const ::testing::TestParamInfo<KernelCase>& param) {
      std::string name = param.param.kernel;
      for (char& ch : name) {
        if (ch == '+') ch = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Edge-case journal
// ---------------------------------------------------------------------------

/// A small kernel built to produce the records a real journal can carry
/// but the paper's kernels rarely do.  Site layout:
///   0..15  a damped recurrence the output depends on (SDC and Masked),
///   16     1e308, folded into the output at 1e-320 scale: a sign flip is a
///          finite value whose injected error overflows to +inf (Masked),
///   17     1.0, and 18 = site17 * 1.5e308 folded in the same way: a sign
///          flip at 17 has a finite injected error but a diff at 18 that
///          overflows to +inf (Masked),
///   19..21 a = 1, b = a * 1e6, c = b - a * 1e6 (output): a flip at 19
///          cancels at 21 (Masked) but reaches 20 amplified, above the
///          errors that are SDC when injected at 20 directly -- the
///          non-monotonic site the Section 3.5 filter exists for,
///   22..   a tail over a touched state vector (memory faults).
class EdgeProgram final : public fi::Program {
 public:
  std::string name() const override { return "edge"; }
  std::string config_key() const override { return "edge:v1"; }

  std::vector<double> run(fi::Tracer& t) const override {
    double x = t.step(1.0);
    for (int i = 1; i < 16; ++i) x = t.step(0.75 * x + 0.25);
    const double big = t.step(1e308);
    const double one = t.step(1.0);
    const double huge = t.step(one * 1.5e308);
    const double a = t.step(1.0);
    const double b = t.step(a * 1e6);
    const double c = t.step(b - a * 1e6);
    std::vector<double> state = {x, 2.0 * x, 3.0 * x};
    t.touch(state);
    double tail = 0.0;
    for (const double s : state) tail = t.step(tail + 0.5 * s);
    const double faint = t.step(big * 1e-320 + huge * 1e-320);
    return {t.step(x + tail), faint, c};
  }
};

constexpr std::uint64_t kExactSite = 5;
constexpr std::uint64_t kBigSite = 16;
constexpr std::uint64_t kOneSite = 17;
constexpr std::uint64_t kHugeSite = 18;
constexpr std::uint64_t kGainSite = 20;

ExperimentRecord run_record(const fi::Program& program,
                            const fi::GoldenRun& golden, ExperimentId id) {
  return {id, fi::run_injected(program, golden, injection_of(id))};
}

/// Every site's low, middle and high bits, every bit of kExactSite, burst
/// and memory-resident ids, a forged SDC record with an infinite injected
/// error, and a few ids journaled twice.
CampaignLog edge_log(const fi::Program& program, const fi::GoldenRun& golden) {
  CampaignLog log(program.config_key());
  std::vector<ExperimentRecord> records;
  for (std::uint64_t site = 0; site < golden.trace.size(); ++site) {
    for (const int bit : {3, 30, 51, 52, 62, 63}) {
      records.push_back(run_record(program, golden, encode(site, bit)));
    }
  }
  for (int bit = 0; bit < fi::kBitsPerValue; ++bit) {
    records.push_back(run_record(program, golden, encode(kExactSite, bit)));
  }
  records.push_back(run_record(program, golden, encode_burst(3, 40, 4)));
  records.push_back(run_record(program, golden, encode_burst(9, 60, 3)));
  fi::MemFault fault;
  fault.touch_point = 0;
  fault.word = 1;
  fault.start_bit = 62;
  records.push_back(run_record(program, golden, encode_mem(fault)));
  fault.width = 4;
  fault.start_bit = 48;
  records.push_back(run_record(program, golden, encode_mem(fault)));
  ExperimentRecord forged = run_record(program, golden, encode(12, 20));
  forged.result.outcome = fi::Outcome::kSdc;
  forged.result.injected_error = std::numeric_limits<double>::infinity();
  records.push_back(forged);
  // Duplicates: the overflowing masked record and an SDC one, twice.
  records.push_back(run_record(program, golden, encode(kOneSite, 63)));
  records.push_back(run_record(program, golden, encode(0, 52)));
  log.append(records);
  return log;
}

TEST(ReplayEdgeJournal, ByteIdenticalToSerialFoldAtEveryPoolSize) {
  const EdgeProgram program;
  const fi::GoldenRun golden = fi::run_golden(program);
  const CampaignLog log = edge_log(program, golden);

  // The journal really holds what it is meant to.
  std::map<ExperimentId, int> copies;
  bool masked_inf_injection = false;
  for (const ExperimentRecord& record : log.records()) {
    ++copies[record.id];
    if (record.id == encode(kBigSite, 63)) {
      EXPECT_EQ(record.result.outcome, fi::Outcome::kMasked);
      masked_inf_injection = std::isinf(record.result.injected_error);
    }
  }
  EXPECT_TRUE(masked_inf_injection);
  EXPECT_EQ(copies[encode(kOneSite, 63)], 2);
  std::vector<double> diffs(golden.trace.size());
  const fi::ExperimentResult overflow = fi::run_injected_compare(
      program, golden, injection_of(encode(kOneSite, 63)), diffs);
  EXPECT_EQ(overflow.outcome, fi::Outcome::kMasked);
  EXPECT_TRUE(std::isfinite(overflow.injected_error));
  EXPECT_TRUE(std::isinf(diffs[kHugeSite]));
  const OutcomeCounts counts = count_outcomes(log.records());
  EXPECT_GT(counts.sdc, 0u);
  EXPECT_GT(counts.masked, 0u);

  for (const bool filter : {false, true}) {
    const boundary::AccumulatorOptions options{filter, 32};
    const boundary::FaultToleranceBoundary expected =
        reference_fold(program, golden, log, options).boundary;
    EXPECT_TRUE(expected.is_exact(kExactSite));
    EXPECT_TRUE(std::isfinite(expected.threshold(kHugeSite)));
    for (const std::size_t threads : kPoolSizes) {
      SCOPED_TRACE("filter=" + std::to_string(filter) +
                   " threads=" + std::to_string(threads));
      const LogEvidence evidence =
          fold_log_evidence(program, golden, log, options, pool_of(threads));
      EXPECT_EQ(bytes_of(evidence.accumulator.finalize(), program),
                bytes_of(expected, program));
      EXPECT_EQ(evidence.stats.mismatches, 0u);
    }
  }

  // A section around kGainSite, so its exit window is sites 19..21: the
  // filter rejects the masked propagation there that the exit bound, an
  // unfiltered maximum, must still count.
  sections::SectionSpec spec;
  spec.name = "gain";
  spec.begin = kGainSite - 1;
  spec.end = kGainSite + 2;
  sections::SectionCampaignOptions options;
  options.stem = "edge";
  const ReferenceFold reference =
      reference_fold(program, golden, log, {true, 32}, {spec.begin, spec.end});
  for (const std::size_t threads : kPoolSizes) {
    SCOPED_TRACE("section threads=" + std::to_string(threads));
    options.pool = &pool_of(threads);
    const sections::SectionRecord record = sections::build_section_record(
        program, golden, spec, log, "edge.gain", options);
    EXPECT_EQ(record.exit_bound, reference.window_max);
    for (std::uint64_t s = spec.begin; s < spec.end; ++s) {
      EXPECT_EQ(record.thresholds[s - spec.begin],
                reference.boundary.threshold(s));
    }
    const LogEvidence evidence =
        fold_log_evidence(program, golden, log, {true, 32}, pool_of(threads));
    EXPECT_GE(record.exit_bound,
              evidence.accumulator.propagation_cutoff(kGainSite));
  }
}

// ---------------------------------------------------------------------------
// Section records
// ---------------------------------------------------------------------------

class ReplaySectionRecord : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplaySectionRecord, SlicesAndEdgeBoundsMatchSerialFold) {
  const fi::ProgramPtr program =
      kernels::make_program(GetParam(), kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  sections::CarveOptions carve;
  carve.batch_per_section = 400;
  const sections::SectionPlan plan =
      sections::carve_sections(program->config_key(), golden, carve);
  ASSERT_GE(plan.sections.size(), 2u);

  for (const sections::SectionSpec& spec : plan.sections) {
    const std::vector<ExperimentId> ids =
        sections::section_sample_ids(spec, plan.seed);
    CampaignLog log(program->config_key());
    log.append(run_experiments(*program, golden, ids, pool_of(2)));
    log.dedupe();
    for (const bool filter : {false, true}) {
      sections::SectionCampaignOptions options;
      options.stem = "replay";
      options.filter = filter;
      const std::uint64_t window =
          std::min<std::uint64_t>(options.edge_window, spec.size());
      const ReferenceFold reference =
          reference_fold(*program, golden, log, {filter, 32},
                         {spec.end - window, spec.end});
      double entry_tolerance = boundary::FaultToleranceBoundary::kUnbounded;
      bool informed = false;
      for (std::uint64_t s = spec.begin; s < spec.begin + window; ++s) {
        const double threshold = reference.boundary.threshold(s);
        if (threshold > 0.0) {
          informed = true;
          entry_tolerance = std::min(entry_tolerance, threshold);
        }
      }
      for (const std::size_t threads : kPoolSizes) {
        SCOPED_TRACE(spec.name + " filter=" + std::to_string(filter) +
                     " threads=" + std::to_string(threads));
        options.pool = &pool_of(threads);
        const sections::SectionRecord record = sections::build_section_record(
            *program, golden, spec, log, "replay." + spec.name, options);
        ASSERT_EQ(record.thresholds.size(), spec.size());
        for (std::uint64_t s = spec.begin; s < spec.end; ++s) {
          EXPECT_EQ(record.thresholds[s - spec.begin],
                    reference.boundary.threshold(s));
          EXPECT_EQ(record.exact[s - spec.begin] != 0,
                    reference.boundary.is_exact(s));
        }
        EXPECT_EQ(record.exit_bound, reference.window_max);
        EXPECT_EQ(record.entry_tolerance, informed ? entry_tolerance : 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ReplaySectionRecord, ::testing::Values("cg", "lu"),
    [](const ::testing::TestParamInfo<const char*>& param) {
      return std::string(param.param);
    });

// ---------------------------------------------------------------------------
// Algorithm 1's guard
// ---------------------------------------------------------------------------

TEST(ReplayGuard, ForgedMaskedRecordIsDroppedAndCounted) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  const CampaignLog honest = run_log(*program, golden, 3000, 11);
  const boundary::AccumulatorOptions options{true, 32};
  const boundary::FaultToleranceBoundary truth =
      boundary_from_log(*program, golden, honest, options, pool_of(2));

  // Relabel SDC records as Masked with a zero injected error, one at a
  // time, until the serial fold -- which folds whatever the replay
  // re-classifies as -- turns optimistic downstream of the forged site.
  bool exercised = false;
  int tries = 0;
  for (std::size_t i = 0; i < honest.records().size() && !exercised; ++i) {
    const ExperimentRecord& original = honest.records()[i];
    if (original.result.outcome != fi::Outcome::kSdc) continue;
    if (++tries > 40) break;
    std::vector<ExperimentRecord> records = honest.records();
    records[i].result.outcome = fi::Outcome::kMasked;
    records[i].result.injected_error = 0.0;
    CampaignLog forged(honest.config_key());
    forged.append(records);
    const std::uint64_t site = site_of(original.id);

    const boundary::FaultToleranceBoundary unguarded =
        reference_fold(*program, golden, forged, options).boundary;
    bool optimistic = false;
    for (std::uint64_t j = site + 1; j < golden.trace.size(); ++j) {
      optimistic |= unguarded.threshold(j) > truth.threshold(j);
    }
    if (!optimistic) continue;
    exercised = true;

    for (const std::size_t threads : kPoolSizes) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      telemetry::Telemetry sink;
      sink.set_enabled(true);
      const LogEvidence evidence = fold_log_evidence(
          *program, golden, forged, options, pool_of(threads), &sink);
      EXPECT_EQ(evidence.stats.mismatches, 1u);
      const boundary::FaultToleranceBoundary guarded =
          evidence.accumulator.finalize();
      for (std::uint64_t j = 0; j < golden.trace.size(); ++j) {
        if (j == site) continue;  // its own SDC evidence was forged away
        EXPECT_EQ(guarded.threshold(j), truth.threshold(j)) << "site " << j;
      }
      EXPECT_EQ(sink.metrics().counter("boundary.replay_mismatches").value(),
                1u);
      bool spanned = false;
      for (const telemetry::TraceEvent& event : sink.events()) {
        if (event.name != "boundary.replay") continue;
        spanned = true;
        std::map<std::string, double> args(event.args.begin(),
                                           event.args.end());
        EXPECT_EQ(args["mismatches"], 1.0);
        EXPECT_EQ(args["threads"], static_cast<double>(threads));
        EXPECT_EQ(args["replayed"],
                  static_cast<double>(evidence.stats.replayed));
      }
      EXPECT_TRUE(spanned);
    }
  }
  EXPECT_TRUE(exercised)
      << "no forged SDC record made the unguarded fold optimistic";
}

}  // namespace
}  // namespace ftb::campaign
