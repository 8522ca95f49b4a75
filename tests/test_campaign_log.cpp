#include "campaign/log.h"

#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>

#include <gtest/gtest.h>

#include "campaign/inference.h"
#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "util/cache.h"
#include "util/rng.h"

namespace ftb::campaign {
namespace {

struct Prepared {
  explicit Prepared(const char* name)
      : program(kernels::make_program(name, kernels::Preset::kTiny)),
        golden(fi::run_golden(*program)),
        pool(1) {}
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  util::ThreadPool pool;
};

CampaignLog make_log(Prepared& p, std::uint64_t seed, std::uint64_t count) {
  util::Rng rng(seed);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, p.golden.sample_space_size(), count);
  CampaignLog log(p.program->config_key());
  log.append(run_experiments(*p.program, p.golden, ids, p.pool));
  return log;
}

TEST(CampaignLog, SerializeRoundTrip) {
  Prepared p("daxpy");
  const CampaignLog log = make_log(p, 1, 50);
  const auto restored = CampaignLog::deserialize(log.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->config_key(), log.config_key());
  ASSERT_EQ(restored->size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(restored->records()[i].id, log.records()[i].id);
    EXPECT_EQ(restored->records()[i].result.outcome,
              log.records()[i].result.outcome);
    EXPECT_DOUBLE_EQ(restored->records()[i].result.injected_error,
                     log.records()[i].result.injected_error);
  }
}

TEST(CampaignLog, CorruptPayloadRejected) {
  Prepared p("daxpy");
  std::string payload = make_log(p, 2, 10).serialize();
  EXPECT_FALSE(CampaignLog::deserialize(payload.substr(0, 12)).has_value());
  payload[0] ^= 0x40;
  EXPECT_FALSE(CampaignLog::deserialize(payload).has_value());
}

TEST(CampaignLog, LoadErrorsAreDiagnosed) {
  Prepared p("daxpy");
  const std::string payload = make_log(p, 11, 10).serialize();
  std::string error;

  // Truncated mid-write: drop the tail (including the CRC frame).
  EXPECT_FALSE(
      CampaignLog::deserialize(payload.substr(0, payload.size() / 2), &error)
          .has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  // Single bit of rot in the record area: caught by the CRC.
  std::string rotted = payload;
  rotted[payload.size() / 2] ^= 0x01;
  EXPECT_FALSE(CampaignLog::deserialize(rotted, &error).has_value());
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;

  // Wrong magic: not mistaken for corruption.
  std::string not_a_log(payload.size(), 'x');
  EXPECT_FALSE(CampaignLog::deserialize(not_a_log, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // Wrong version word (byte 8 is the version's low byte).
  std::string wrong_version = payload;
  wrong_version[8] ^= 0x70;
  EXPECT_FALSE(CampaignLog::deserialize(wrong_version, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(CampaignLog, TruncatedFileReportsPath) {
  Prepared p("daxpy");
  const CampaignLog log = make_log(p, 12, 20);
  const auto path = std::filesystem::temp_directory_path() /
                    ("ftb_trunc_" + std::to_string(::getpid()) + ".bin");
  const std::string payload = log.serialize();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size() - 16));
  }
  std::string error;
  EXPECT_FALSE(CampaignLog::load(path.string(), &error).has_value());
  EXPECT_NE(error.find(path.string()), std::string::npos) << error;
  std::filesystem::remove(path);
}

TEST(CampaignLog, CrashReasonSurvivesRoundTrip) {
  CampaignLog log("reason-round-trip");
  ExperimentRecord record;
  record.id = 42;
  record.result.outcome = fi::Outcome::kCrash;
  record.result.crash_reason = fi::CrashReason::kSigSegv;
  record.result.injected_error = 1.5;
  record.result.output_error = 2.5;
  record.result.crash_site = 7;
  ExperimentRecord hang;
  hang.id = 43;
  hang.result.outcome = fi::Outcome::kHang;
  const ExperimentRecord batch[] = {record, hang};
  log.append(batch);

  const auto restored = CampaignLog::deserialize(log.serialize());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ(restored->records()[0].result.crash_reason,
            fi::CrashReason::kSigSegv);
  EXPECT_EQ(restored->records()[1].result.outcome, fi::Outcome::kHang);
  EXPECT_EQ(restored->records()[1].result.crash_reason, fi::CrashReason::kNone);
}

TEST(CampaignLog, DetectorFlagAndModeTaggedIdsSurviveRoundTrip) {
  // v3 payload: the detector_fired flag and mode-tagged (burst / memory-
  // resident) experiment ids must come back exactly.
  ExperimentRecord detected;
  detected.id = encode(11, 52);
  detected.result.outcome = fi::Outcome::kDetected;
  detected.result.detector_fired = true;
  detected.result.output_error = 0.5;
  ExperimentRecord false_positive;  // Masked but the detector cried wolf
  false_positive.id = encode(12, 1);
  false_positive.result.outcome = fi::Outcome::kMasked;
  false_positive.result.detector_fired = true;
  ExperimentRecord mem;
  mem.id = encode_mem({/*touch_point=*/2, /*word=*/7, /*start_bit=*/3,
                       /*width=*/4});
  mem.result.outcome = fi::Outcome::kSdc;
  ExperimentRecord burst;
  burst.id = encode_burst(/*site=*/9, /*start_bit=*/50, /*width=*/3);
  burst.result.outcome = fi::Outcome::kCrash;
  const ExperimentRecord batch[] = {detected, false_positive, mem, burst};
  CampaignLog original("detector-round-trip");
  original.append(batch);

  const auto restored = CampaignLog::deserialize(original.serialize());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 4u);
  EXPECT_EQ(restored->records()[0].result.outcome, fi::Outcome::kDetected);
  EXPECT_TRUE(restored->records()[0].result.detector_fired);
  EXPECT_TRUE(restored->records()[1].result.detector_fired);
  EXPECT_EQ(restored->records()[1].result.outcome, fi::Outcome::kMasked);
  EXPECT_EQ(restored->records()[2].id, mem.id);
  EXPECT_EQ(mode_of(restored->records()[2].id), FaultMode::kMemBurst);
  EXPECT_EQ(restored->records()[3].id, burst.id);
  EXPECT_EQ(mode_of(restored->records()[3].id), FaultMode::kBurst);
  // Serialization is canonical: a second trip is byte-identical (what the
  // resume machinery relies on).
  EXPECT_EQ(restored->serialize(), original.serialize());
}

// Writes a version-2 payload (pre-detector: no per-record flags word) by
// hand, matching the v2 encoder byte for byte.
std::string serialize_v2(const std::string& config_key,
                         std::span<const ExperimentRecord> records) {
  util::BinaryWriter writer;
  writer.put_u64(0x4654422d434c4f47ull);  // "FTB-CLOG"
  writer.put_u64(2);
  writer.put_string(config_key);
  writer.put_u64(records.size());
  for (const ExperimentRecord& record : records) {
    writer.put_u64(record.id);
    writer.put_u64(static_cast<std::uint64_t>(record.result.outcome));
    writer.put_u64(static_cast<std::uint64_t>(record.result.crash_reason));
    writer.put_f64(record.result.injected_error);
    writer.put_f64(record.result.output_error);
    writer.put_u64(record.result.crash_site);
  }
  const std::uint32_t crc =
      util::crc32(writer.buffer().data(), writer.buffer().size());
  writer.put_u64(crc);
  return {writer.buffer().begin(), writer.buffer().end()};
}

TEST(CampaignLog, VersionTwoLogsStillLoad) {
  // Back-compat: journals written before the detector existed load with
  // detector_fired defaulting to false.
  ExperimentRecord record;
  record.id = encode(5, 17);
  record.result.outcome = fi::Outcome::kSdc;
  record.result.injected_error = 0.25;
  const ExperimentRecord batch[] = {record};
  const auto restored =
      CampaignLog::deserialize(serialize_v2("old-config", batch));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->config_key(), "old-config");
  ASSERT_EQ(restored->size(), 1u);
  EXPECT_EQ(restored->records()[0].result.outcome, fi::Outcome::kSdc);
  EXPECT_FALSE(restored->records()[0].result.detector_fired);
}

TEST(CampaignLog, UnknownOutcomeIsDiagnosedByName) {
  // A v-next log carrying an outcome this binary does not know must fail
  // with the *named* diagnostic, not a bare integer.
  ExperimentRecord record;
  record.id = encode(1, 2);
  record.result.outcome = static_cast<fi::Outcome>(9);
  const ExperimentRecord batch[] = {record};
  std::string error;
  EXPECT_FALSE(
      CampaignLog::deserialize(serialize_v2("future", batch), &error)
          .has_value());
  EXPECT_NE(error.find("unknown(9)"), std::string::npos) << error;
  EXPECT_NE(error.find("Detected"), std::string::npos) << error;
}

TEST(CampaignLog, FileRoundTrip) {
  Prepared p("daxpy");
  const CampaignLog log = make_log(p, 3, 30);
  const auto path = std::filesystem::temp_directory_path() /
                    ("ftb_log_" + std::to_string(::getpid()) + ".bin");
  ASSERT_TRUE(log.save(path.string()));
  const auto restored = CampaignLog::load(path.string());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), log.size());
  std::filesystem::remove(path);
  EXPECT_FALSE(CampaignLog::load(path.string()).has_value());
}

TEST(CampaignLog, MergeDedupesAndChecksKey) {
  Prepared p("daxpy");
  CampaignLog a = make_log(p, 4, 40);
  const CampaignLog b = make_log(p, 5, 40);  // overlapping ids likely
  const std::size_t union_upper_bound = a.size() + b.size();
  a.merge(b);
  EXPECT_LE(a.size(), union_upper_bound);
  const std::vector<ExperimentId> ids = a.ids();
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(ids[i - 1], ids[i]);  // sorted, no duplicates
  }

  CampaignLog wrong("some-other-config");
  EXPECT_THROW(a.merge(wrong), std::invalid_argument);
}

TEST(CampaignLog, ResumedCampaignEqualsOneShot) {
  // Running a campaign in two halves, logging both, must reconstruct the
  // exact experiment set of the one-shot run.
  Prepared p("stencil2d");
  util::Rng rng(7);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, p.golden.sample_space_size(), 120);

  CampaignLog log(p.program->config_key());
  const std::span<const ExperimentId> first_half(ids.data(), 60);
  const std::span<const ExperimentId> second_half(ids.data() + 60, 60);
  log.append(run_experiments(*p.program, p.golden, first_half, p.pool));
  // "Interruption": save + reload.
  const auto reloaded = CampaignLog::deserialize(log.serialize());
  ASSERT_TRUE(reloaded.has_value());
  CampaignLog resumed = *reloaded;
  resumed.append(run_experiments(*p.program, p.golden, second_half, p.pool));
  resumed.dedupe();

  std::vector<ExperimentId> sorted_ids = ids;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  EXPECT_EQ(resumed.ids(), sorted_ids);
}

TEST(CampaignLog, BoundaryFromLogMatchesDirectInference) {
  Prepared p("stencil2d");
  InferenceOptions options;
  options.sample_fraction = 0.03;
  options.seed = 9;
  options.filter = true;
  const InferenceResult direct =
      infer_uniform(*p.program, p.golden, options, p.pool);

  CampaignLog log(p.program->config_key());
  log.append(direct.records);
  const boundary::FaultToleranceBoundary rebuilt = boundary_from_log(
      *p.program, p.golden, log, {options.filter, options.prop_buffer_cap},
      p.pool);

  ASSERT_EQ(rebuilt.sites(), direct.boundary.sites());
  for (std::size_t i = 0; i < rebuilt.sites(); ++i) {
    EXPECT_DOUBLE_EQ(rebuilt.threshold(i), direct.boundary.threshold(i)) << i;
  }
}

TEST(CampaignLog, RebuildWithDifferentFilterSetting) {
  // The log lets you change analysis settings post-hoc: rebuilding without
  // the filter can only raise thresholds.
  Prepared p("cg");
  InferenceOptions options;
  options.sample_fraction = 0.02;
  options.filter = true;
  const InferenceResult direct =
      infer_uniform(*p.program, p.golden, options, p.pool);
  CampaignLog log(p.program->config_key());
  log.append(direct.records);

  const boundary::FaultToleranceBoundary unfiltered =
      boundary_from_log(*p.program, p.golden, log, {false, 32}, p.pool);
  for (std::size_t i = 0; i < unfiltered.sites(); ++i) {
    EXPECT_GE(unfiltered.threshold(i) + 1e-300, direct.boundary.threshold(i))
        << i;
  }
}

// ---------------------------------------------------------------------------
// Fuzz torture: the loader faces every single-byte corruption and every
// truncation of a valid v2 log.  None may crash; all must return nullopt
// with a non-empty diagnostic.  CRC-32 detects every single-byte change in
// the body, and a corrupted trailing frame can never match the body's CRC,
// so there are no "lucky" corruptions to tolerate.
// ---------------------------------------------------------------------------

TEST(CampaignLogFuzz, EverySingleByteCorruptionIsRejectedWithDiagnostic) {
  Prepared p("daxpy");
  const std::string payload = make_log(p, 21, 30).serialize();
  util::Rng rng(99);
  for (std::size_t pos = 0; pos < payload.size(); ++pos) {
    std::string mutated = payload;
    // XOR with a non-zero mask so the byte actually changes.
    const auto mask =
        static_cast<char>(1 + rng.next_below(255));
    mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
    std::string error;
    const auto log = CampaignLog::deserialize(mutated, &error);
    EXPECT_FALSE(log.has_value()) << "byte " << pos << " mask "
                                  << static_cast<int>(mask);
    EXPECT_FALSE(error.empty()) << "byte " << pos;
  }
}

TEST(CampaignLogFuzz, EveryTruncationIsRejectedWithDiagnostic) {
  Prepared p("daxpy");
  const std::string payload = make_log(p, 22, 30).serialize();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    std::string error;
    const auto log = CampaignLog::deserialize(payload.substr(0, len), &error);
    EXPECT_FALSE(log.has_value()) << "length " << len;
    EXPECT_FALSE(error.empty()) << "length " << len;
  }
}

TEST(CampaignLogFuzz, RandomGarbageNeverCrashesTheLoader) {
  util::Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.next_below(512);
    std::string garbage(len, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.next_below(256));
    }
    std::string error;
    const auto log = CampaignLog::deserialize(garbage, &error);
    EXPECT_FALSE(log.has_value()) << "trial " << trial;
    EXPECT_FALSE(error.empty()) << "trial " << trial;
  }
}

TEST(CampaignLogFuzz, CorruptedFrameKeepsDecodedStateUnobservable) {
  // A failed deserialize must not leak a partially-decoded log: the API
  // returns nullopt, so the only way to "observe" partial state would be a
  // crash -- torture the record area specifically, where decode progresses
  // furthest before the CRC verdict.
  Prepared p("daxpy");
  const std::string payload = make_log(p, 23, 16).serialize();
  const std::size_t header = 4 * 8;  // magic, version, and friends
  util::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = payload;
    const std::size_t pos =
        header + rng.next_below(payload.size() - header);
    mutated[pos] = static_cast<char>(rng.next_below(256));
    std::string error;
    const auto log = CampaignLog::deserialize(mutated, &error);
    if (mutated[pos] == payload[pos]) {
      ASSERT_TRUE(log.has_value());  // identity rewrite: still valid
      continue;
    }
    EXPECT_FALSE(log.has_value()) << "trial " << trial << " pos " << pos;
    EXPECT_FALSE(error.empty());
  }
}

/// Overwrites the u64 at `offset` of a v3 image and re-seals its CRC, as a
/// crafted (not rotted) file would.
std::string forge_u64(std::string payload, std::size_t offset,
                      std::uint64_t value) {
  const auto put = [&](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      payload[at + i] = static_cast<char>(v >> (8 * i));
    }
  };
  put(offset, value);
  const std::size_t body = payload.size() - 8;
  put(body, util::crc32(reinterpret_cast<const std::uint8_t*>(payload.data()),
                        body));
  return payload;
}

TEST(CampaignLogFuzz, ForgedRecordCountIsDiagnosedNotAllocated) {
  Prepared p("daxpy");
  const CampaignLog log = make_log(p, 24, 8);
  // The count follows magic, version and the length-prefixed key.
  const std::size_t count_at = 3 * 8 + log.config_key().size();
  for (const std::uint64_t count : {std::uint64_t{1} << 61,
                                    std::uint64_t{1} << 36}) {
    std::string error;
    const auto loaded = CampaignLog::deserialize(
        forge_u64(log.serialize(), count_at, count), &error);
    EXPECT_FALSE(loaded.has_value()) << count;
    EXPECT_NE(error.find("declares " + std::to_string(count) + " records"),
              std::string::npos)
        << error;
  }
}

TEST(CampaignLogFuzz, ForgedFrameCountLoadsOnlyTheFramesBeforeIt) {
  // In a v4 journal a count that runs past end-of-file reads as a torn
  // append: the frames before it load, nothing is reserved for it.
  Prepared p("daxpy");
  const CampaignLog log = make_log(p, 25, 8);
  const std::span<const ExperimentRecord> records = log.records();
  const std::string header = encode_journal_header(log.config_key());
  const std::string first = encode_journal_frame(records.first(4));
  const std::string second = forge_u64(
      encode_journal_frame(records.subspan(4)), 0, std::uint64_t{1} << 61);
  std::string error;
  std::uint64_t torn = 0;
  const auto loaded =
      CampaignLog::deserialize(header + first + second, &error, &torn);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(torn, 1u);
  ASSERT_EQ(loaded->size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded->records()[i].id, records[i].id);
  }
}

TEST(CampaignLog, RejectsWrongProgram) {
  Prepared p("daxpy");
  CampaignLog log("not-this-program");
  EXPECT_THROW(
      boundary_from_log(*p.program, p.golden, log, {}, p.pool),
      std::invalid_argument);
}

}  // namespace
}  // namespace ftb::campaign
