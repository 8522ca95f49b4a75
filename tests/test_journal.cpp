// The append-only campaign journal (campaign::CampaignJournal, format v4 in
// campaign/log.h): a torn tail cut at every offset of the last frame resumes
// to the undisturbed bytes, a bad frame with bytes after it is refused with
// its offset, v2/v3 journals are upgraded in place, every executor leaves the
// same finished journal, flushes write O(chunk) bytes, and no single-byte
// corruption of a v4 journal loads a record the original did not hold.
// Frames are written behind: every report sees its own chunk's frame last
// with nothing in flight, and a failed frame, an executor failure or a
// drain leaves a journal that resumes to the undisturbed bytes.
#include "campaign/checkpoint.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/sampler.h"
#include "chaos/chaos.h"
#include "kernels/hazard.h"
#include "kernels/registry.h"
#include "service/dispatch.h"
#include "telemetry/events.h"
#include "util/cache.h"
#include "util/rng.h"

namespace ftb::campaign {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("ftb_journal_" + tag + "_" + std::to_string(::getpid()) + ".clog"))
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

std::uint64_t version_of(const std::string& bytes) {
  std::uint64_t version = 0;
  for (int i = 0; i < 8; ++i) {
    version |= static_cast<std::uint64_t>(
                   static_cast<std::uint8_t>(bytes[8 + i]))
               << (8 * i);
  }
  return version;
}

bool same_record(const ExperimentRecord& a, const ExperimentRecord& b) {
  return a.id == b.id && a.result.outcome == b.result.outcome &&
         a.result.crash_reason == b.result.crash_reason &&
         std::bit_cast<std::uint64_t>(a.result.injected_error) ==
             std::bit_cast<std::uint64_t>(b.result.injected_error) &&
         std::bit_cast<std::uint64_t>(a.result.output_error) ==
             std::bit_cast<std::uint64_t>(b.result.output_error) &&
         a.result.crash_site == b.result.crash_site &&
         a.result.detector_fired == b.result.detector_fired;
}

/// Threads of this process, or -1 where /proc is unavailable.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int threads = -1;
      status >> threads;
      return threads;
    }
  }
  return -1;
}

/// A v2 image of `records` (six words per record, no flags), as written
/// before the detector existed.
std::string serialize_v2(const std::string& key,
                         std::span<const ExperimentRecord> records) {
  util::BinaryWriter writer;
  writer.put_u64(0x4654422d434c4f47ull);  // "FTB-CLOG"
  writer.put_u64(2);
  writer.put_string(key);
  writer.put_u64(records.size());
  for (const ExperimentRecord& record : records) {
    writer.put_u64(record.id);
    writer.put_u64(static_cast<std::uint64_t>(record.result.outcome));
    writer.put_u64(static_cast<std::uint64_t>(record.result.crash_reason));
    writer.put_f64(record.result.injected_error);
    writer.put_f64(record.result.output_error);
    writer.put_u64(record.result.crash_site);
  }
  writer.put_u64(util::crc32(writer.buffer().data(), writer.buffer().size()));
  return {writer.buffer().begin(), writer.buffer().end()};
}

/// The journal file as it stood right after one chunk's flush.
struct InFlight {
  std::string bytes;
  std::size_t last_frame = 0;  ///< offset of the frame that flush appended
};

/// A daxpy campaign of 40 uniform ids in chunks of 10.
struct Campaign {
  Campaign()
      : program(kernels::make_program("daxpy", kernels::Preset::kTiny)),
        golden(fi::run_golden(*program)),
        pool(2) {
    util::Rng rng(41);
    ids = sample_uniform(rng, golden.sample_space_size(), 40);
  }

  CheckpointOptions options(const std::string& path) {
    CheckpointOptions options;
    options.path = path;
    options.flush_every = 10;
    options.pool = &pool;
    return options;
  }

  /// Runs `options` to completion and returns the finished file's bytes.
  std::string finish(const CheckpointOptions& options,
                     CheckpointRunResult* result = nullptr) {
    CheckpointRunResult run =
        run_campaign_checkpointed(*program, golden, ids, options);
    if (result != nullptr) *result = std::move(run);
    return read_file(options.path);
  }

  /// Copies the journal of a fresh run after its `flushes`-th chunk flush.
  InFlight in_flight(std::size_t flushes) {
    const std::string path = temp_path("in_flight");
    fs::remove(path);
    CheckpointOptions copy = options(path);
    InFlight captured;
    std::size_t seen = 0;
    copy.on_progress = [&](const CheckpointProgress& progress) {
      if (progress.chunk.empty() || ++seen != flushes) return;
      captured.bytes = read_file(path);
      captured.last_frame = captured.bytes.size() - 16 -
                            progress.chunk.size() * 7 * 8;
    };
    (void)run_campaign_checkpointed(*program, golden, ids, copy);
    fs::remove(path);
    return captured;
  }

  fi::ProgramPtr program;
  fi::GoldenRun golden;
  util::ThreadPool pool;
  std::vector<ExperimentId> ids;
};

TEST(Journal, FreshRunAppendsOneFramePerChunkAndEndsAsTheImage) {
  Campaign c;
  const std::string path = temp_path("fresh");
  fs::remove(path);
  CheckpointOptions options = c.options(path);
  std::vector<std::uint64_t> sizes;
  options.on_progress = [&](const CheckpointProgress& progress) {
    const std::string bytes = read_file(path);
    if (!progress.chunk.empty()) {
      EXPECT_EQ(version_of(bytes), 4u);
      sizes.push_back(bytes.size());
    } else {
      EXPECT_EQ(version_of(bytes), 3u);  // the final compaction
    }
  };
  CheckpointRunResult run;
  const std::string finished = c.finish(options, &run);
  EXPECT_EQ(run.flushes, 5u);  // 4 appends + the final compaction
  EXPECT_EQ(run.torn_frames, 0u);
  ASSERT_EQ(sizes.size(), 4u);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i] - sizes[i - 1], 16u + 10u * 7u * 8u);
  }
  EXPECT_TRUE(finished == run.log.serialize());
  fs::remove(path);
}

TEST(Journal, EveryReportSeesItsOwnFrameLastWithNothingInFlight) {
  Campaign c;
  const std::string path = temp_path("report");
  const std::size_t header =
      encode_journal_header(c.program->config_key()).size();
  for (const bool supervised : {false, true}) {
    fs::remove(path);
    CheckpointOptions options = c.options(path);
    options.use_supervisor = supervised;
    options.supervisor.pool.workers = 2;
    std::uint64_t reports = 0;
    std::uint64_t first_dispatched = 0;
    options.on_progress = [&](const CheckpointProgress& progress) {
      if (progress.chunk.empty()) return;
      ++reports;
      // The report describes its own chunk, not the one that ran after it.
      EXPECT_EQ(progress.executed, 10 * reports);
      EXPECT_EQ(progress.logged, 10 * reports);
      ASSERT_EQ(progress.supervisor != nullptr, supervised);
      if (supervised) {
        if (reports == 1) {
          first_dispatched = progress.supervisor->chunks_dispatched;
        }
        EXPECT_EQ(progress.supervisor->chunks_dispatched,
                  reports * first_dispatched);
      }
      // The file ends with this chunk's frame...
      const std::string bytes = read_file(path);
      const std::string frame = encode_journal_frame(progress.chunk);
      EXPECT_EQ(bytes.size(), header + reports * frame.size());
      EXPECT_TRUE(bytes.ends_with(frame)) << "report " << reports;
      // ...and no frame is in flight while the report runs.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_TRUE(read_file(path) == bytes) << "report " << reports;
    };
    CheckpointRunResult run;
    (void)c.finish(options, &run);
    EXPECT_EQ(reports, 4u) << "supervised " << supervised;
    EXPECT_EQ(run.flushes, 5u);
  }
  fs::remove(path);
}

/// Disables chaos when it goes out of scope.
struct ChaosOff {
  ~ChaosOff() { chaos::disable(); }
};

TEST(Journal, AFailedFrameThrowsWithThePathAndNoReportNamesIt) {
  Campaign c;
  const std::string reference_path = temp_path("failed_reference");
  fs::remove(reference_path);
  const std::string reference = c.finish(c.options(reference_path));
  const std::string path = temp_path("failed");
  for (const bool fsync_fails : {true, false}) {
    fs::remove(path);
    CheckpointOptions options = c.options(path);
    std::vector<ExperimentId> reported;
    options.on_progress = [&](const CheckpointProgress& progress) {
      for (const ExperimentRecord& record : progress.chunk) {
        reported.push_back(record.id);
      }
      if (reported.size() != 10) return;
      // The first report: every later fsync (or write) fails, starting with
      // the next chunk's frame.
      chaos::ChaosOptions chaos_options;
      chaos_options.enabled = true;
      (fsync_fails ? chaos_options.fsync_error : chaos_options.write_error) =
          1.0;
      chaos::configure(chaos_options);
    };
    {
      const ChaosOff off;
      try {
        (void)run_campaign_checkpointed(*c.program, c.golden, c.ids, options);
        ADD_FAILURE() << "a failed frame went unnoticed";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
      }
    }
    // The failed frame was rolled back: what is on disk loads, nothing is
    // torn, and it holds every reported record.
    std::string error;
    std::uint64_t torn = 0;
    const auto log = CampaignLog::load(path, &error, &torn);
    ASSERT_TRUE(log.has_value()) << error;
    EXPECT_EQ(torn, 0u);
    EXPECT_EQ(reported.size(), 10u) << "fsync fails " << fsync_fails;
    const std::vector<ExperimentId> on_disk = log->ids();
    for (ExperimentId id : reported) {
      EXPECT_TRUE(std::binary_search(on_disk.begin(), on_disk.end(), id))
          << "reported id " << id << " is not on disk";
    }
    CheckpointRunResult run;
    EXPECT_TRUE(c.finish(c.options(path), &run) == reference)
        << "fsync fails " << fsync_fails;
    EXPECT_EQ(run.skipped, log->size());
  }
  fs::remove(path);
  fs::remove(reference_path);
}

TEST(Journal, AnExecutorFailureWithAFrameInFlightLeavesAResumableJournal) {
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  const std::uint64_t sites = golden.trace.size();
  ASSERT_LT(program.offset_site(1), sites - 4);
  // Owed ids run in descending order: four benign low-mantissa flips at the
  // top sites make the first chunk, and the second holds a flip that
  // SIGSEGVs its worker.
  std::vector<ExperimentId> ids;
  for (std::uint64_t site = sites - 4; site < sites; ++site) {
    ids.push_back(encode(site, 0));
  }
  ids.push_back(encode(program.offset_site(1), 61));
  for (std::uint64_t site = 0; site < 3; ++site) ids.push_back(encode(site, 0));

  util::ThreadPool pool(1);
  const auto make_options = [&](const std::string& path, bool respawns) {
    CheckpointOptions options;
    options.path = path;
    options.flush_every = 4;
    options.pool = &pool;
    options.use_supervisor = true;
    options.supervisor.pool.workers = 1;
    options.supervisor.quarantine_after = 2;
    options.supervisor.allow_in_process_fallback = false;
    if (!respawns) {
      // The dead worker is not replaced and nothing may run in process:
      // the supervisor throws while the first chunk's frame is written.
      options.supervisor.pool.spawn_retry.max_retries = 0;
      options.supervisor.pool.simulate_respawn_failures = 1000;
    }
    return options;
  };
  const std::string reference_path = temp_path("executor_failure_reference");
  fs::remove(reference_path);
  (void)run_campaign_checkpointed(program, golden, ids,
                                  make_options(reference_path, true));
  const std::string reference = read_file(reference_path);

  const std::string path = temp_path("executor_failure");
  fs::remove(path);
  const int threads = thread_count();
  EXPECT_THROW((void)run_campaign_checkpointed(program, golden, ids,
                                               make_options(path, false)),
               std::runtime_error);
  if (threads > 0) {
    EXPECT_EQ(thread_count(), threads) << "the journal writer outlived the run";
  }
  std::string error;
  const auto log = CampaignLog::load(path, &error);
  ASSERT_TRUE(log.has_value()) << error;
  EXPECT_EQ(log->size(), 4u);

  const CheckpointRunResult run =
      run_campaign_checkpointed(program, golden, ids, make_options(path, true));
  EXPECT_EQ(run.skipped, 4u);
  EXPECT_TRUE(read_file(path) == reference);
  fs::remove(path);
  fs::remove(reference_path);
}

TEST(Journal, ShouldStopInsideAReportDrainsWithEveryJournaledRecordReported) {
  Campaign c;
  const std::string reference_path = temp_path("drain_reference");
  fs::remove(reference_path);
  const std::string reference = c.finish(c.options(reference_path));
  const std::string path = temp_path("drain");
  for (const std::size_t stop_at : {1u, 2u}) {
    fs::remove(path);
    CheckpointOptions options = c.options(path);
    bool stop = false;
    std::size_t reports = 0;
    std::vector<ExperimentId> reported;
    options.should_stop = [&] { return stop; };
    options.on_progress = [&](const CheckpointProgress& progress) {
      if (progress.chunk.empty()) return;
      for (const ExperimentRecord& record : progress.chunk) {
        reported.push_back(record.id);
      }
      if (++reports == stop_at) stop = true;
    };
    CheckpointRunResult run;
    (void)c.finish(options, &run);
    EXPECT_TRUE(run.stopped);
    // Reports run one chunk behind: the chunk after the stopping report
    // had already run, and is journaled and reported before the drain.
    EXPECT_EQ(run.log.size(), 10 * (stop_at + 1));
    std::sort(reported.begin(), reported.end());
    EXPECT_EQ(reported, run.log.ids()) << "stop at report " << stop_at;
    EXPECT_TRUE(c.finish(c.options(path)) == reference)
        << "stop at report " << stop_at;
  }
  fs::remove(path);
  fs::remove(reference_path);
}

TEST(Journal, TornTailAtEveryOffsetResumesToTheUndisturbedBytes) {
  Campaign c;
  const std::string reference_path = temp_path("reference");
  fs::remove(reference_path);
  const std::string reference = c.finish(c.options(reference_path));
  const InFlight flight = c.in_flight(2);
  ASSERT_FALSE(flight.bytes.empty());

  const std::string path = temp_path("torn");
  CheckpointOptions options = c.options(path);
  // Compact-on-open: appends never land behind the torn bytes, so the file
  // stays loadable, with nothing torn, while the resumed run goes on.
  bool in_flight_loads = true;
  options.on_progress = [&](const CheckpointProgress& progress) {
    if (progress.chunk.empty()) return;
    std::uint64_t torn = 0;
    const auto log = CampaignLog::deserialize(read_file(path), nullptr, &torn);
    in_flight_loads = in_flight_loads && log.has_value() && torn == 0 &&
                      log->size() == progress.logged;
  };
  for (std::size_t cut = flight.last_frame; cut < flight.bytes.size(); ++cut) {
    write_file(path, flight.bytes.substr(0, cut));
    CheckpointRunResult run;
    const std::string finished = c.finish(options, &run);
    EXPECT_TRUE(in_flight_loads) << "cut at " << cut;
    EXPECT_TRUE(run.resumed);
    // A cut on the frame boundary leaves one whole frame and no tail.
    EXPECT_EQ(run.torn_frames, cut > flight.last_frame ? 1u : 0u)
        << "cut at " << cut;
    EXPECT_EQ(run.skipped, 10u) << "cut at " << cut;
    EXPECT_TRUE(finished == reference) << "cut at " << cut;
  }
  fs::remove(path);
  fs::remove(reference_path);
}

TEST(Journal, BadFrameWithBytesAfterItIsRefusedWithPathAndOffset) {
  Campaign c;
  const InFlight flight = c.in_flight(3);
  const std::size_t first_frame =
      encode_journal_header(c.program->config_key()).size();
  const std::string path = temp_path("corrupt");

  std::string bytes = flight.bytes;
  bytes[first_frame + 20] ^= 0x10;  // inside the first frame's records
  write_file(path, bytes);
  try {
    (void)run_campaign_checkpointed(*c.program, c.golden, c.ids,
                                    c.options(path));
    ADD_FAILURE() << "a corrupt journal resumed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("offset " + std::to_string(first_frame)),
              std::string::npos)
        << what;
  }
  // The refusal left the file as it was.
  EXPECT_TRUE(read_file(path) == bytes);

  // The same flip in the last frame is a torn append: dropped, re-run.
  bytes = flight.bytes;
  bytes[flight.last_frame + 20] ^= 0x10;
  write_file(path, bytes);
  CheckpointRunResult run;
  const std::string finished = c.finish(c.options(path), &run);
  EXPECT_EQ(run.torn_frames, 1u);
  EXPECT_EQ(run.skipped, 20u);

  // A finished journal is an image: any flipped byte is refused.
  std::string image = finished;
  image[image.size() / 2] ^= 0x10;
  write_file(path, image);
  EXPECT_THROW((void)run_campaign_checkpointed(*c.program, c.golden, c.ids,
                                               c.options(path)),
               std::runtime_error);
  fs::remove(path);
}

TEST(Journal, VersionTwoAndThreeJournalsAreUpgradedInPlace) {
  Campaign c;
  const std::string reference_path = temp_path("upgrade_reference");
  fs::remove(reference_path);
  const std::string reference = c.finish(c.options(reference_path));

  // What an interrupted run of an older build left: an image of the
  // records of its first two chunks.
  const std::span<const ExperimentId> first(c.ids.data(), 20);
  const std::vector<ExperimentRecord> records =
      run_experiments(*c.program, c.golden, first, c.pool);
  CampaignLog v3(c.program->config_key());
  v3.append(records);
  const std::string images[] = {
      serialize_v2(c.program->config_key(), records), v3.serialize()};

  const std::string path = temp_path("upgrade");
  for (const std::string& image : images) {
    write_file(path, image);
    CheckpointOptions options = c.options(path);
    std::vector<std::uint64_t> versions;
    options.on_progress = [&](const CheckpointProgress& progress) {
      if (!progress.chunk.empty()) versions.push_back(version_of(read_file(path)));
    };
    CheckpointRunResult run;
    const std::string finished = c.finish(options, &run);
    EXPECT_TRUE(run.resumed);
    EXPECT_EQ(run.skipped, 20u);
    EXPECT_EQ(versions, std::vector<std::uint64_t>(2, 4));
    EXPECT_TRUE(finished == reference) << "from v" << version_of(image);
  }
  fs::remove(path);
  fs::remove(reference_path);
}

TEST(Journal, EveryExecutorLeavesTheSameFinishedJournal) {
  Campaign c;
  const std::string reference_path = temp_path("executor_reference");
  fs::remove(reference_path);
  const std::string reference = c.finish(c.options(reference_path));
  const InFlight flight = c.in_flight(2);
  const std::string torn = flight.bytes.substr(0, flight.last_frame + 33);

  const auto supervised = [&](const std::string& path, bool snapshots) {
    CheckpointOptions options = c.options(path);
    options.use_supervisor = true;
    options.supervisor.pool.workers = 2;
    options.supervisor.pool.use_snapshots = snapshots;
    return options;
  };
  const auto sandboxed = [&](const std::string& path) {
    CheckpointOptions options = c.options(path);
    options.use_sandbox = true;
    return options;
  };
  const auto dispatched = [&](const std::string& path) {
    service::ChunkDispatcher dispatcher;
    service::DistributedJobOptions options;
    options.path = path;
    options.flush_every = 10;
    options.kernel = "daxpy";
    options.preset = "tiny";
    options.supervisor.pool.workers = 2;
    const service::DistributedRunResult run =
        dispatcher.run_job(*c.program, c.golden, c.ids, options);
    return run.torn_frames;
  };

  const std::string path = temp_path("executor");
  for (const bool resume : {false, true}) {
    const auto prepare = [&] {
      fs::remove(path);
      if (resume) write_file(path, torn);
    };
    const std::uint64_t want_torn = resume ? 1 : 0;
    CheckpointRunResult run;

    prepare();
    EXPECT_TRUE(c.finish(supervised(path, false), &run) == reference)
        << "supervisor, resume " << resume;
    EXPECT_EQ(run.torn_frames, want_torn);

    prepare();
    EXPECT_TRUE(c.finish(supervised(path, true), &run) == reference)
        << "snapshot supervisor, resume " << resume;
    EXPECT_EQ(run.torn_frames, want_torn);

    prepare();
    EXPECT_TRUE(c.finish(sandboxed(path), &run) == reference)
        << "sandbox, resume " << resume;
    EXPECT_EQ(run.torn_frames, want_torn);

    prepare();
    EXPECT_EQ(dispatched(path), want_torn);
    EXPECT_TRUE(read_file(path) == reference)
        << "dispatcher, resume " << resume;
  }
  fs::remove(path);
  fs::remove(reference_path);
}

TEST(Journal, FlushBytesScaleWithTheChunkNotTheJournal) {
  // 40 flushes of a 20000-record run.  Rewriting the whole journal per
  // flush writes ~21x the final file; appending writes each record twice
  // (its frame, then the final image).
  const std::string path = temp_path("bytes");
  fs::remove(path);
  telemetry::Telemetry telemetry;
  telemetry.set_enabled(true);
  CampaignJournal journal(path, "synthetic-config", &telemetry);
  std::vector<ExperimentRecord> batch(500);
  for (std::uint64_t chunk = 0; chunk < 40; ++chunk) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].id = chunk * batch.size() + i;
      batch[i].result.injected_error = static_cast<double>(i);
    }
    journal.append(batch);
  }
  const CampaignLog log = journal.finish();
  EXPECT_EQ(log.size(), 20000u);
  EXPECT_EQ(journal.flushes(), 41u);

  const std::uint64_t final_bytes = fs::file_size(path);
  const std::uint64_t written =
      telemetry.metrics().counter("checkpoint.bytes_written").value();
  EXPECT_LE(static_cast<double>(written), 2.5 * static_cast<double>(final_bytes));
  EXPECT_EQ(telemetry.metrics().counter("checkpoint.flushes").value(), 41u);

  // Each flush span carries its bytes; only the last one compacts.
  double span_bytes = 0.0;
  std::size_t spans = 0, compactions = 0;
  for (const telemetry::TraceEvent& event : telemetry.events()) {
    if (event.name != "checkpoint.flush") continue;
    ++spans;
    for (const auto& [key, value] : event.args) {
      if (key == "bytes") span_bytes += value;
      if (key == "compact" && value == 1.0) ++compactions;
    }
  }
  EXPECT_EQ(spans, 41u);
  EXPECT_EQ(compactions, 1u);
  const std::uint64_t header = encode_journal_header("synthetic-config").size();
  EXPECT_EQ(static_cast<std::uint64_t>(span_bytes), written - header);
  fs::remove(path);
}

/// Eight records with distinct payloads, journaled as frames of 3, 3 and 2.
struct FramedJournal {
  FramedJournal() {
    for (std::uint64_t i = 0; i < 8; ++i) {
      ExperimentRecord record;
      record.id = encode(i, static_cast<int>(i % 64));
      record.result.outcome = static_cast<fi::Outcome>(i % 4);
      record.result.injected_error = 0.5 * static_cast<double>(i + 1);
      record.result.output_error = 1e-3 * static_cast<double>(i);
      record.result.crash_site = i;
      record.result.detector_fired = i % 3 == 0;
      records.push_back(record);
    }
    const std::span<const ExperimentRecord> all = records;
    bytes = encode_journal_header("fuzz-config") +
            encode_journal_frame(all.subspan(0, 3)) +
            encode_journal_frame(all.subspan(3, 3)) +
            encode_journal_frame(all.subspan(6, 2));
  }
  std::vector<ExperimentRecord> records;
  std::string bytes;
};

TEST(JournalFuzz, EverySingleByteCorruptionIsRefusedOrLoadsASubset) {
  const FramedJournal journal;
  util::Rng rng(5);
  for (std::size_t pos = 0; pos < journal.bytes.size(); ++pos) {
    std::string mutated = journal.bytes;
    const auto mask = static_cast<char>(1 + rng.next_below(255));
    mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
    std::string error;
    const auto log = CampaignLog::deserialize(mutated, &error);
    if (!log.has_value()) {
      EXPECT_FALSE(error.empty()) << "byte " << pos;
      continue;
    }
    EXPECT_EQ(log->config_key(), "fuzz-config") << "byte " << pos;
    EXPECT_LT(log->size(), journal.records.size()) << "byte " << pos;
    for (std::size_t i = 0; i < log->size(); ++i) {
      // Frames are dropped whole from the tail, so what loads is a prefix.
      EXPECT_TRUE(same_record(log->records()[i], journal.records[i]))
          << "byte " << pos << " record " << i;
    }
  }
}

TEST(JournalFuzz, EveryTruncationLoadsWholeFramesOrIsRefused) {
  const FramedJournal journal;
  const std::size_t header = encode_journal_header("fuzz-config").size();
  for (std::size_t len = 0; len < journal.bytes.size(); ++len) {
    std::string error;
    std::uint64_t torn = 0;
    const auto log =
        CampaignLog::deserialize(journal.bytes.substr(0, len), &error, &torn);
    if (len < header) {
      EXPECT_FALSE(log.has_value()) << "length " << len;
      EXPECT_FALSE(error.empty()) << "length " << len;
      continue;
    }
    ASSERT_TRUE(log.has_value()) << "length " << len << ": " << error;
    const std::size_t frame_ends[] = {header, header + 16 + 3 * 56,
                                      header + 32 + 6 * 56};
    const std::size_t whole =
        static_cast<std::size_t>(std::count_if(
            std::begin(frame_ends) + 1, std::end(frame_ends),
            [&](std::size_t end) { return end <= len; }));
    const std::size_t want = whole == 0 ? 0 : (whole == 1 ? 3 : 6);
    EXPECT_EQ(log->size(), want) << "length " << len;
    const bool on_boundary =
        std::find(std::begin(frame_ends), std::end(frame_ends), len) !=
        std::end(frame_ends);
    EXPECT_EQ(torn, on_boundary ? 0u : 1u) << "length " << len;
  }
}

}  // namespace
}  // namespace ftb::campaign
