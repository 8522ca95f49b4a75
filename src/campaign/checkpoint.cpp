#include "campaign/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "telemetry/events.h"

namespace ftb::campaign {

namespace {

/// Dynamic instructions the experiments of `chunk` run and skip: each
/// skips those before its golden state (fi::start_state) and runs the rest
/// of the trace (a run that traps stops earlier; it counts whole).
std::pair<std::uint64_t, std::uint64_t> count_steps(
    const fi::GoldenRun& golden, std::span<const ExperimentId> chunk) {
  std::uint64_t skipped = 0;
  for (ExperimentId id : chunk) {
    const fi::GoldenState* start = fi::start_state(golden, injection_of(id));
    if (start != nullptr) skipped += start->index;
  }
  return {chunk.size() * golden.trace.size() - skipped, skipped};
}

}  // namespace

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
  writer_ = std::thread([this] { write_behind(); });
}

CampaignJournal::~CampaignJournal() { stop_writer(); }

void CampaignJournal::write_behind() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return in_flight_ || closing_; });
    if (!in_flight_) return;
    lock.unlock();
    std::string error;
    bool ok = false;
    try {
      telemetry::SpanScope span(telemetry_, "checkpoint.sync", "checkpoint");
      span.arg("bytes", static_cast<double>(frame_.size()));
      ok = file_.append(frame_.data(), frame_.size(), &error);
      if (ok) count_write(frame_.size());
    } catch (const std::exception& e) {
      // No exception may leave the thread: forward it like a failed write.
      ok = false;
      error = e.what();
    }
    lock.lock();
    if (!ok && error_.empty()) {
      error_ = "cannot append to campaign journal '" + path_ + "': " + error;
    }
    in_flight_ = false;
    cv_.notify_all();
  }
}

void CampaignJournal::stop_writer() noexcept {
  if (!writer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closing_ = true;
  }
  cv_.notify_all();
  writer_.join();  // after the frame in flight, if any
}

void CampaignJournal::sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return !in_flight_; });
  if (!error_.empty()) throw std::runtime_error(error_);
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

void CampaignJournal::append(std::span<const ExperimentRecord> batch,
                             const std::function<void()>& durable) {
  if (!writer_.joinable()) {
    throw std::runtime_error("campaign journal '" + path_ + "' is closed");
  }
  std::string frame;
  {
    telemetry::SpanScope span(telemetry_, "checkpoint.flush", "checkpoint");
    frame = encode_journal_frame(batch);
    sync();
    span.arg("records", static_cast<double>(log_.size() + batch.size()));
    span.arg("bytes", static_cast<double>(frame.size()));
    span.arg("compact", 0.0);
  }
  if (durable) durable();
  log_.append(batch);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    frame_ = std::move(frame);
    in_flight_ = true;
  }
  cv_.notify_all();
}

CampaignLog CampaignJournal::finish(const std::function<void()>& durable) {
  sync();
  if (durable) durable();
  telemetry::SpanScope span(telemetry_, "checkpoint.flush", "checkpoint");
  stop_writer();
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
  std::vector<ExperimentId> remaining = journal.owed(ids);
  result.skipped = ids.size() - remaining.size();
  journal.reserve(remaining.size());

  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::default_pool();

  // First-pass evidence where the executor can fold: the in-process pool,
  // or the supervised pool without snapshots.  Descending site order lets
  // the sites above the chunk in flight settle first.
  std::optional<FirstPass> first;
  if (options.use_supervisor ? !options.supervisor.pool.use_snapshots
                             : !options.use_sandbox) {
    std::sort(remaining.begin(), remaining.end(), std::greater<>());
    first.emplace(golden, journal.records(), remaining,
                  options.use_supervisor
                      ? static_cast<std::size_t>(
                            std::max(options.supervisor.pool.workers, 0))
                      : pool.thread_count());
  }

  // One supervisor for the whole invocation: the worker pool is forked
  // once, and the quarantine ledger accumulates across chunks.
  std::optional<CampaignSupervisor> supervisor;
  if (options.use_supervisor) {
    SupervisorOptions supervisor_options = options.supervisor;
    if (supervisor_options.telemetry == nullptr) {
      supervisor_options.telemetry = options.telemetry;
    }
    if (first && first->ok()) {
      supervisor_options.pool.run_experiment =
          [&](const fi::Injection& injection, std::size_t slot) {
            return first->run(program, golden, injection, slot);
          };
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

  // What a report says about a chunk, taken when its frame is handed over
  // and reported once that frame is durable: one chunk behind execution,
  // never ahead of the disk.
  struct ChunkReport {
    std::vector<ExperimentRecord> records;
    std::uint64_t executed = 0;
    std::size_t logged = 0;
    SupervisorStats supervisor;
  };
  const auto report = [&](const ChunkReport& chunk) {
    if (!options.on_progress) return;
    CheckpointProgress progress;
    progress.executed = chunk.executed;
    progress.total = remaining.size();
    progress.logged = chunk.logged;
    progress.chunk = chunk.records;
    if (supervisor) progress.supervisor = &chunk.supervisor;
    options.on_progress(progress);
  };
  std::optional<ChunkReport> handed;
  const auto report_handed = [&] {
    if (handed) report(*handed);
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
    SupervisorStats after;  // on the supervisor path
    // The chunk's partials are kept unless a worker died or hung, or the
    // in-process fallback ran experiments that did not fold.
    bool keep = true;
    if (supervisor) {
      const SupervisorStats before = supervisor->stats();
      batch = supervisor->run(chunk);
      after = supervisor->stats();
      keep = after.worker_deaths == before.worker_deaths &&
             after.worker_hangs == before.worker_hangs &&
             after.fallback_experiments == before.fallback_experiments;
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
      batch = first->run_chunk(program, golden, chunk, pool);
    }
    if (first) first->settle(batch, keep);
    result.executed += batch.size();
    if (telemetry::active(options.telemetry)) {
      telemetry::MetricsRegistry& metrics = options.telemetry->metrics();
      metrics.counter("checkpoint.experiments").add(batch.size());
      // The executors that fold are the ones that fast-forward.
      if (first) {
        const auto [run, skipped] = count_steps(golden, chunk);
        chunk_span.arg("steps_run", static_cast<double>(run));
        chunk_span.arg("steps_skipped", static_cast<double>(skipped));
        metrics.counter("checkpoint.steps_run").add(run);
        metrics.counter("checkpoint.steps_skipped").add(skipped);
      }
    }
    // Frame k-1 is durable and chunk k-1 reported before frame k can reach
    // the file; the writer then syncs frame k while chunk k+1 runs.
    ChunkReport next{std::move(batch), result.executed, 0, after};
    journal.append(next.records, report_handed);
    next.logged = journal.size();
    handed = std::move(next);
  }

  // The workers exit while the journal compacts; the supervisor reaps them
  // on the way out.
  if (supervisor) {
    result.supervisor_stats = supervisor->stats();
    supervisor->request_exit();
  }
  // Complete or drained, the journal ends as the deduped v3 image.
  result.log = journal.finish(report_handed);
  result.flushes = journal.flushes();
  report({{}, result.executed, result.log.size(), result.supervisor_stats});
  if (first) result.evidence = first->finish();
  return result;
}

}  // namespace ftb::campaign
