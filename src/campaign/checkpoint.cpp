#include "campaign/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "telemetry/events.h"

namespace ftb::campaign {

CampaignJournal::CampaignJournal(std::string path, std::string config_key,
                                 telemetry::Telemetry* telemetry)
    : path_(std::move(path)), telemetry_(telemetry) {
  if (path_.empty()) {
    throw std::invalid_argument("campaign journal path is empty");
  }
  telemetry::SpanScope span(telemetry_, "checkpoint.open", "checkpoint");
  std::error_code ec;
  if (std::filesystem::exists(path_, ec)) {
    std::string error;
    auto journal = CampaignLog::load(path_, &error, &torn_frames_);
    if (!journal) {
      // A journal that exists but does not parse is not a resumable state;
      // refusing beats silently redoing (or worse, double-counting) work.
      throw std::runtime_error("cannot resume campaign journal: " + error);
    }
    if (journal->config_key() != config_key) {
      throw std::invalid_argument(
          "campaign journal '" + path_ + "' belongs to configuration '" +
          journal->config_key() + "', not '" + config_key + "'");
    }
    log_ = std::move(*journal);
    resumed_ = true;
  } else {
    log_ = CampaignLog(std::move(config_key));
  }
  done_.reserve(log_.size());
  for (const ExperimentRecord& record : log_.records()) {
    done_.insert(record.id);
  }

  // Compact-on-open: the records that survived the load become one frame,
  // so a torn tail is gone and an older format is upgraded before the
  // first append.
  std::string image = encode_journal_header(log_.config_key());
  if (log_.size() > 0) image += encode_journal_frame(log_.records());
  std::string error;
  if (!util::write_file_durable(path_, image, &error) ||
      !file_.open(path_, &error)) {
    throw std::runtime_error("cannot open campaign journal '" + path_ +
                             "': " + error);
  }
  span.arg("records", static_cast<double>(log_.size()));
  span.arg("torn_frames", static_cast<double>(torn_frames_));
  span.arg("bytes", static_cast<double>(image.size()));
  if (telemetry::active(telemetry_)) {
    telemetry_->metrics().counter("checkpoint.torn_frames").add(torn_frames_);
    telemetry_->metrics().counter("checkpoint.bytes_written").add(image.size());
  }
}

std::vector<ExperimentId> CampaignJournal::owed(
    std::span<const ExperimentId> ids) const {
  std::vector<ExperimentId> remaining;
  remaining.reserve(ids.size());
  for (ExperimentId id : ids) {
    if (!done_.contains(id)) remaining.push_back(id);
  }
  return remaining;
}

void CampaignJournal::append(std::span<const ExperimentRecord> batch) {
  telemetry::SpanScope span(telemetry_, "checkpoint.flush", "checkpoint");
  log_.append(batch);
  const std::string frame = encode_journal_frame(batch);
  std::string error;
  if (!file_.append(frame.data(), frame.size(), &error)) {
    throw std::runtime_error("cannot append to campaign journal '" + path_ +
                             "': " + error);
  }
  span.arg("records", static_cast<double>(log_.size()));
  span.arg("bytes", static_cast<double>(frame.size()));
  span.arg("compact", 0.0);
  count_write(frame.size());
}

CampaignLog CampaignJournal::finish() {
  telemetry::SpanScope span(telemetry_, "checkpoint.flush", "checkpoint");
  file_.close();
  log_.dedupe();
  // CampaignLog::save's durable publish, spelled out to learn the size and
  // the reason of a failure.
  const std::string image = log_.serialize();
  std::string error;
  if (!util::write_file_durable(path_, image, &error)) {
    throw std::runtime_error("cannot write campaign journal '" + path_ +
                             "': " + error);
  }
  span.arg("records", static_cast<double>(log_.size()));
  span.arg("bytes", static_cast<double>(image.size()));
  span.arg("compact", 1.0);
  count_write(image.size());
  return std::move(log_);
}

void CampaignJournal::count_write(std::uint64_t bytes) {
  ++flushes_;
  if (telemetry::active(telemetry_)) {
    telemetry_->metrics().counter("checkpoint.flushes").add();
    telemetry_->metrics().counter("checkpoint.bytes_written").add(bytes);
  }
}

CheckpointRunResult run_campaign_checkpointed(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, const CheckpointOptions& options) {
  const std::size_t flush_every = std::max<std::size_t>(1, options.flush_every);

  CampaignJournal journal(options.path, program.config_key(),
                          options.telemetry);
  CheckpointRunResult result;
  result.resumed = journal.resumed();
  result.torn_frames = journal.torn_frames();
  const std::vector<ExperimentId> remaining = journal.owed(ids);
  result.skipped = ids.size() - remaining.size();

  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::default_pool();

  // One supervisor for the whole invocation: the worker pool is forked
  // once, and the quarantine ledger accumulates across chunks.
  std::optional<CampaignSupervisor> supervisor;
  if (options.use_supervisor) {
    SupervisorOptions supervisor_options = options.supervisor;
    if (supervisor_options.telemetry == nullptr) {
      supervisor_options.telemetry = options.telemetry;
    }
    // Density hints for snapshot placement: the ids still owed are exactly
    // where this invocation will fork, so hand their sites to
    // plan_checkpoints (fi/snapshot.h).  Placement is a speed knob only --
    // journal bytes are identical wherever the checkpoints land.
    if (supervisor_options.pool.use_snapshots &&
        supervisor_options.pool.snapshot.site_hints.empty()) {
      auto& hints = supervisor_options.pool.snapshot.site_hints;
      hints.reserve(remaining.size());
      for (ExperimentId id : remaining) {
        if (is_classic(id)) hints.push_back(site_of(id));
      }
    }
    supervisor.emplace(program, golden, supervisor_options);
  }

  const auto report = [&](std::span<const ExperimentRecord> chunk,
                          std::size_t logged) {
    if (!options.on_progress) return;
    CheckpointProgress progress;
    progress.executed = result.executed;
    progress.total = remaining.size();
    progress.logged = logged;
    progress.chunk = chunk;
    SupervisorStats stats_copy;
    if (supervisor) {
      stats_copy = supervisor->stats();
      progress.supervisor = &stats_copy;
    }
    options.on_progress(progress);
  };

  for (std::size_t begin = 0; begin < remaining.size(); begin += flush_every) {
    if (options.should_stop && options.should_stop()) {
      result.stopped = true;
      break;
    }
    const std::size_t end = std::min(begin + flush_every, remaining.size());
    const std::span<const ExperimentId> chunk(remaining.data() + begin,
                                              end - begin);
    telemetry::SpanScope chunk_span(options.telemetry, "checkpoint.chunk",
                                    "checkpoint");
    chunk_span.arg("experiments", static_cast<double>(chunk.size()));
    std::vector<ExperimentRecord> batch;
    if (supervisor) {
      batch = supervisor->run(chunk);
    } else if (options.use_sandbox) {
      // run_injected_sandboxed resets its stats output per batch, so
      // accumulate chunk stats by hand.  timeout_ms = 0 would disable the
      // watchdog and let one runaway flip hang the whole campaign, so an
      // unattended checkpointed run substitutes a fallback deadline
      // (derived from the supervisor heartbeat when one is configured).
      fi::SandboxOptions sandbox_options = options.sandbox;
      if (sandbox_options.timeout_ms == 0) {
        sandbox_options.timeout_ms =
            options.supervisor.pool.heartbeat_timeout_ms != 0
                ? options.supervisor.pool.heartbeat_timeout_ms
                : kFallbackDeadlineMs;
      }
      fi::SandboxStats chunk_stats;
      batch = run_experiments_sandboxed(program, golden, chunk, sandbox_options,
                                        &chunk_stats);
      result.sandbox_stats.children_spawned += chunk_stats.children_spawned;
      result.sandbox_stats.signal_deaths += chunk_stats.signal_deaths;
      result.sandbox_stats.watchdog_kills += chunk_stats.watchdog_kills;
      result.sandbox_stats.abnormal_exits += chunk_stats.abnormal_exits;
      result.sandbox_stats.spawn_retries += chunk_stats.spawn_retries;
      result.sandbox_stats.fallback_experiments +=
          chunk_stats.fallback_experiments;
    } else {
      batch = run_experiments(program, golden, chunk, pool);
    }
    result.executed += batch.size();
    if (telemetry::active(options.telemetry)) {
      options.telemetry->metrics()
          .counter("checkpoint.experiments")
          .add(batch.size());
    }
    journal.append(batch);
    report(batch, journal.size());
  }

  // Complete or drained, the journal ends as the deduped v3 image.
  result.log = journal.finish();
  result.flushes = journal.flushes();
  report({}, result.log.size());
  if (supervisor) result.supervisor_stats = supervisor->stats();
  return result;
}

}  // namespace ftb::campaign
