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
/// of the trace (a run that traps stops earlier; it counts whole).  A lane
/// group's experiments share one golden state (FirstPass::run_group), so
/// each lane runs exactly this.
std::pair<std::uint64_t, std::uint64_t> count_steps(
    const fi::GoldenRun& golden, std::span<const ExperimentRecord> chunk) {
  std::uint64_t skipped = 0;
  for (const ExperimentRecord& record : chunk) {
    const fi::GoldenState* start =
        fi::start_state(golden, injection_of(record.id));
    if (start != nullptr) skipped += start->index;
  }
  return {chunk.size() * golden.trace.size() - skipped, skipped};
}

/// A local executor: `run` runs the next chunk, in order, on the calling
/// thread.
class LocalExecutor final : public ChunkExecutor {
 public:
  using Run = std::function<ExecutedChunk(std::span<const ExperimentId>)>;

  LocalExecutor(std::span<const std::span<const ExperimentId>> chunks, Run run)
      : chunks_(chunks), run_(std::move(run)) {}

  std::optional<ExecutedChunk> next(
      const std::function<bool()>& should_stop) override {
    if (next_ == chunks_.size() || (should_stop && should_stop())) {
      return std::nullopt;
    }
    return run_(chunks_[next_++]);
  }
  void finish(CheckpointRunResult&) override {}

 private:
  std::span<const std::span<const ExperimentId>> chunks_;
  Run run_;
  std::size_t next_ = 0;
};

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
  const std::vector<std::uint8_t> image = log_.image();
  std::string error;
  if (!util::write_file_durable(path_, image.data(), image.size(), &error)) {
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
  // the sites above the chunk in flight settle first.  A journal that owes
  // nothing needs neither the mapping nor the supervisor's workers.
  std::optional<FirstPass> first;
  const bool nothing_owed = remaining.empty();
  if (!nothing_owed && !options.executor &&
      (options.use_supervisor ? !options.supervisor.pool.use_snapshots
                              : !options.use_sandbox)) {
    std::sort(remaining.begin(), remaining.end(), std::greater<>());
    first.emplace(golden, journal.records(), remaining,
                  options.use_supervisor
                      ? static_cast<std::size_t>(
                            std::max(options.supervisor.pool.workers, 0))
                      : pool.thread_count());
  }

  std::vector<std::span<const ExperimentId>> chunks;
  for (std::size_t begin = 0; begin < remaining.size(); begin += flush_every) {
    chunks.emplace_back(remaining.data() + begin,
                        std::min(flush_every, remaining.size() - begin));
  }
  // The executor: one supervisor for the whole invocation (the worker pool
  // is forked once, and the quarantine ledger accumulates across chunks),
  // the per-batch sandbox, or the in-process pool.
  const ChunkPlan plan{program, golden, options, chunks, journal};
  std::optional<CampaignSupervisor> supervisor;
  std::unique_ptr<ChunkExecutor> executor;
  if (options.executor) {
    executor = options.executor(plan);
  } else if (nothing_owed) {
    executor = std::make_unique<LocalExecutor>(
        chunks, [](std::span<const ExperimentId>) { return ExecutedChunk{}; });
  } else if (options.use_supervisor) {
    SupervisorOptions supervisor_options = options.supervisor;
    if (supervisor_options.telemetry == nullptr) {
      supervisor_options.telemetry = options.telemetry;
    }
    if (first && first->ok()) {
      supervisor_options.pool.run_group =
          [&](std::span<const fi::Injection> injections,
              std::span<fi::ExperimentResult> results, std::size_t slot) {
            return first->run_group(program, golden, injections, results,
                                    slot);
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
    executor = std::make_unique<LocalExecutor>(
        chunks, [&](std::span<const ExperimentId> chunk) {
          const SupervisorStats before = supervisor->stats();
          ExecutedChunk done{supervisor->run(chunk)};
          const SupervisorStats& after =
              done.stats.emplace(supervisor->stats());
          // The chunk's partials are kept unless a worker died or hung, or
          // the in-process fallback ran experiments that did not fold.
          done.keep =
              after.worker_deaths == before.worker_deaths &&
              after.worker_hangs == before.worker_hangs &&
              after.fallback_experiments == before.fallback_experiments;
          return done;
        });
  } else if (options.use_sandbox) {
    // timeout_ms = 0 would disable the watchdog and let one runaway flip
    // hang the whole campaign, so an unattended checkpointed run
    // substitutes a fallback deadline (derived from the supervisor
    // heartbeat when one is configured).
    fi::SandboxOptions sandbox = options.sandbox;
    if (sandbox.timeout_ms == 0) {
      sandbox.timeout_ms = options.supervisor.pool.heartbeat_timeout_ms != 0
                               ? options.supervisor.pool.heartbeat_timeout_ms
                               : kFallbackDeadlineMs;
    }
    executor = std::make_unique<LocalExecutor>(
        chunks, [&, sandbox](std::span<const ExperimentId> chunk) {
          // The sandbox resets its stats output per batch, so the chunks'
          // stats are added up by hand.
          fi::SandboxStats stats;
          ExecutedChunk done{run_experiments_sandboxed(program, golden, chunk,
                                                       sandbox, &stats)};
          fi::SandboxStats& total = result.sandbox_stats;
          total.children_spawned += stats.children_spawned;
          total.signal_deaths += stats.signal_deaths;
          total.watchdog_kills += stats.watchdog_kills;
          total.abnormal_exits += stats.abnormal_exits;
          total.spawn_retries += stats.spawn_retries;
          total.fallback_experiments += stats.fallback_experiments;
          return done;
        });
  } else {
    executor = std::make_unique<LocalExecutor>(
        chunks, [&](std::span<const ExperimentId> chunk) {
          return ExecutedChunk{first->run_chunk(program, golden, chunk, pool)};
        });
  }

  // What a report says about a chunk, taken when its frame is handed over
  // and reported once that frame is durable: one chunk behind execution,
  // never ahead of the disk.
  struct ChunkReport {
    std::vector<ExperimentRecord> records;
    std::uint64_t executed = 0;
    std::size_t logged = 0;
    std::optional<SupervisorStats> supervisor;
  };
  const auto report = [&](const ChunkReport& chunk) {
    if (!options.on_progress) return;
    CheckpointProgress progress;
    progress.executed = chunk.executed;
    progress.total = remaining.size();
    progress.logged = chunk.logged;
    progress.chunk = chunk.records;
    if (chunk.supervisor) progress.supervisor = &*chunk.supervisor;
    options.on_progress(progress);
  };
  std::optional<ChunkReport> handed;
  const auto report_handed = [&] {
    if (handed) report(*handed);
  };

  std::size_t finished = 0;
  for (;;) {
    telemetry::Telemetry* const traced =
        telemetry::active(options.telemetry) ? options.telemetry : nullptr;
    const std::uint64_t start_ns = traced ? traced->now_ns() : 0;
    std::optional<ExecutedChunk> chunk = executor->next(options.should_stop);
    if (!chunk) break;
    ++finished;
    GroupCounts groups;
    if (first) groups = first->settle(chunk->records, chunk->keep);
    result.executed += chunk->records.size();
    std::vector<std::pair<std::string, double>> args;
    if (traced) {
      args.emplace_back("experiments",
                        static_cast<double>(chunk->records.size()));
      telemetry::MetricsRegistry& metrics = traced->metrics();
      metrics.counter("checkpoint.experiments").add(chunk->records.size());
      // The executors that fold are the ones that fast-forward, and the
      // ones that run lane groups.
      if (first) {
        const auto [run, skipped] = count_steps(golden, chunk->records);
        args.emplace_back("steps_run", static_cast<double>(run));
        args.emplace_back("steps_skipped", static_cast<double>(skipped));
        args.emplace_back("lane_groups", static_cast<double>(groups.groups));
        args.emplace_back("lanes", static_cast<double>(groups.lanes));
        metrics.counter("checkpoint.steps_run").add(run);
        metrics.counter("checkpoint.steps_skipped").add(skipped);
        metrics.counter("checkpoint.lane_groups").add(groups.groups);
        metrics.counter("checkpoint.lanes").add(groups.lanes);
      }
    }
    // Frame k-1 is durable and chunk k-1 reported before frame k can reach
    // the file; the writer then syncs frame k while chunk k+1 runs.
    ChunkReport next{std::move(chunk->records), result.executed, 0,
                     std::move(chunk->stats)};
    journal.append(next.records, report_handed);
    next.logged = journal.size();
    handed = std::move(next);
    if (traced) {
      traced->record_span("checkpoint.chunk", "checkpoint", start_ns,
                          traced->now_ns() - start_ns, std::move(args));
    }
  }
  result.stopped = finished < chunks.size();

  executor->finish(result);
  // The workers exit while the journal compacts; the supervisor reaps them
  // on the way out.
  if (supervisor) {
    result.supervisor_stats = supervisor->stats();
    supervisor->request_exit();
  }
  // Complete or drained, the journal ends as the deduped v3 image.
  result.log = journal.finish(report_handed);
  result.flushes = journal.flushes();
  std::optional<SupervisorStats> stats;
  if (options.executor || supervisor) stats = result.supervisor_stats;
  report({{}, result.executed, result.log.size(), stats});
  if (first) result.evidence = first->finish();
  return result;
}

}  // namespace ftb::campaign
