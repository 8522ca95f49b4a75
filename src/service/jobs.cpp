#include "service/jobs.h"

#include <algorithm>
#include <exception>

#ifdef __linux__
#include <sched.h>
#endif

#include "boundary/serialize.h"
#include "campaign/checkpoint.h"
#include "campaign/log.h"
#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "sections/compose.h"
#include "sections/driver.h"
#include "sections/section.h"
#include "service/dispatch.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::service {

namespace {

/// Pins the calling thread to `cpus`.  Sandbox workers are forked from this
/// thread and inherit the mask, so one call covers the whole campaign
/// plane.  Invalid CPU numbers make the syscall fail; campaign work then
/// runs unpinned rather than not at all.
bool pin_to_cpus(const std::vector<int>& cpus) {
#ifdef __linux__
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return CPU_COUNT(&set) > 0 && sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  return cpus.empty();
#endif
}

}  // namespace

JobRunner::JobRunner(BoundaryStore* store, JobRunnerOptions options,
                     JobCallbacks callbacks)
    : store_(store),
      options_(std::move(options)),
      callbacks_(std::move(callbacks)) {
  // Replay the write-ahead ledger BEFORE the runner thread exists: every
  // job acked before the last crash that never reached done/failed comes
  // back as if it had just been submitted, and resumes from its journal.
  if (!ledger_.open(options_.store_dir + "/jobs.ledger", &replay_,
                    &ledger_error_)) {
    // The daemon still serves queries; submissions are rejected until the
    // store directory is writable again (we cannot ack what we cannot log).
  }
  next_job_id_ = replay_.next_job_id;
  for (const LedgerJob& pending : replay_.pending) {
    CampaignJob job;
    job.id = pending.id;
    job.client = 0;  // the submitter's connection died with the old process
    job.kind = pending.kind;
    job.req = pending.req;
    job.recompute = pending.recompute;
    queue_.push_back(std::move(job));
  }
  if (telemetry::active(options_.telemetry)) {
    options_.telemetry->metrics().counter("jobs.replayed")
        .add(replay_.pending.size());
    options_.telemetry->metrics().counter("ledger.records_replayed")
        .add(replay_.records);
    options_.telemetry->metrics().counter("ledger.torn_records")
        .add(replay_.torn_records);
  }
  thread_ = std::thread([this] { run_loop(); });
}

JobRunner::~JobRunner() {
  request_drain();
  join();
}

JobRunner::Submit JobRunner::enqueue(CampaignJob job, std::uint64_t* job_id,
                                     std::uint32_t* queue_depth,
                                     std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_ || stop_) {
    if (error != nullptr) *error = "server is draining; try again later";
    return Submit::kRejected;
  }
  if (!ledger_.valid()) {
    if (error != nullptr) {
      *error = "job ledger is unavailable (" + ledger_error_ +
               "); refusing to ack a submission the server could not make "
               "durable";
    }
    return Submit::kRejected;
  }
  if (queue_.size() >= options_.max_queue) {
    if (error != nullptr) {
      *error = "campaign queue is full (" + std::to_string(queue_.size()) +
               " jobs waiting)";
    }
    return Submit::kQueueFull;
  }
  job.id = next_job_id_++;
  {
    // fsync-before-ack: the submit record must be on disk before the
    // CampaignAccepted frame is even constructed.
    std::lock_guard<std::mutex> ledger_lock(ledger_mutex_);
    std::string ledger_error;
    const bool logged =
        job.kind == JobKind::kRecompute
            ? ledger_.append_submitted_recompute(job.id, job.recompute,
                                                 &ledger_error)
            : ledger_.append_submitted(job.id, job.req, &ledger_error);
    if (!logged) {
      if (telemetry::active(options_.telemetry)) {
        options_.telemetry->metrics().counter("ledger.append_failures").add();
      }
      if (error != nullptr) {
        *error = "cannot write-ahead log the submission (" + ledger_error +
                 "); job not accepted";
      }
      return Submit::kRejected;
    }
  }
  if (job_id != nullptr) *job_id = job.id;
  queue_.push_back(std::move(job));
  if (queue_depth != nullptr) {
    *queue_depth =
        static_cast<std::uint32_t>(queue_.size() - 1 + (running_ ? 1 : 0));
  }
  if (telemetry::active(options_.telemetry)) {
    options_.telemetry->metrics().counter("jobs.submitted").add();
    options_.telemetry->metrics().gauge("jobs.queue_depth").set(
        static_cast<double>(queue_.size()));
  }
  cv_.notify_all();
  return Submit::kAccepted;
}

JobRunner::Submit JobRunner::submit(std::uint64_t client,
                                    const SubmitCampaignReq& req,
                                    std::uint64_t* job_id,
                                    std::uint32_t* queue_depth,
                                    std::string* error) {
  CampaignJob job;
  job.client = client;
  job.kind = JobKind::kCampaign;
  job.req = req;
  return enqueue(std::move(job), job_id, queue_depth, error);
}

JobRunner::Submit JobRunner::submit_recompute(std::uint64_t client,
                                              const SubmitRecomputeReq& req,
                                              std::uint64_t* job_id,
                                              std::uint32_t* queue_depth,
                                              std::string* error) {
  CampaignJob job;
  job.client = client;
  job.kind = JobKind::kRecompute;
  job.recompute = req;
  return enqueue(std::move(job), job_id, queue_depth, error);
}

void JobRunner::ledger_transition(std::uint64_t job, JobState state,
                                  const std::string& note) {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  if (!ledger_.valid()) return;
  std::string error;
  if (!ledger_.append_state(job, state, note, &error)) {
    // A failed transition record degrades durability, not correctness: on
    // restart the job replays as pending and runs again (idempotent -- the
    // journal dedupes), so count it and carry on.
    if (telemetry::active(options_.telemetry)) {
      options_.telemetry->metrics().counter("ledger.append_failures").add();
    }
  }
}

void JobRunner::request_drain() {
  std::deque<CampaignJob> abandoned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return;
    draining_ = true;
    stop_ = true;
    abandoned.swap(queue_);
    cv_.notify_all();
  }
  // Queued-but-never-started jobs are failed here, on the caller's thread;
  // the running job (if any) finishes its chunk, flushes, and reports a
  // stopped CampaignDone from the runner thread.  Neither gets a terminal
  // ledger record: they stay pending and replay when the daemon restarts.
  for (const CampaignJob& job : abandoned) {
    const std::string note =
        "server drained before the job started; it remains "
        "journalled and will resume when the daemon restarts";
    if (job.kind == JobKind::kRecompute) {
      RecomputeDone done;
      done.job = job.id;
      done.ok = false;
      done.stopped = true;
      done.error = note;
      if (callbacks_.on_recompute_done) callbacks_.on_recompute_done(job, done);
    } else {
      CampaignDone done;
      done.job = job.id;
      done.ok = false;
      done.stopped = true;
      done.error = note;
      if (callbacks_.on_done) callbacks_.on_done(job, done);
    }
  }
}

void JobRunner::join() {
  if (thread_.joinable()) thread_.join();
}

bool JobRunner::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty() && !running_;
}

std::size_t JobRunner::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + (running_ ? 1 : 0);
}

void JobRunner::run_loop() {
  if (!options_.campaign_cpus.empty()) {
    const bool pinned = pin_to_cpus(options_.campaign_cpus);
    if (telemetry::active(options_.telemetry)) {
      options_.telemetry->metrics()
          .counter(pinned ? "jobs.affinity_pinned" : "jobs.affinity_failed")
          .add();
    }
  }
  for (;;) {
    CampaignJob job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
      running_ = true;
      if (telemetry::active(options_.telemetry)) {
        options_.telemetry->metrics().gauge("jobs.queue_depth").set(
            static_cast<double>(queue_.size()));
      }
    }
    execute(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      running_ = false;
    }
  }
}

void JobRunner::execute(const CampaignJob& job) {
  if (job.kind == JobKind::kRecompute) {
    execute_recompute(job);
  } else {
    execute_campaign(job);
  }
}

void JobRunner::execute_campaign(const CampaignJob& job) {
  telemetry::SpanScope span(options_.telemetry, "jobs.run", "service");
  span.arg("job", static_cast<double>(job.id));
  ledger_transition(job.id, JobState::kRunning, {});
  const StoreKey key{job.req.kernel, job.req.preset, job.req.seed};
  CampaignDone done;
  done.job = job.id;
  try {
    const fi::ProgramPtr program = kernels::make_program(
        job.req.kernel, kernels::preset_from_string(job.req.preset));
    const fi::GoldenRun golden = fi::run_golden(*program);

    // Same id set as `ftb_analyze campaign --resume --seed N --batch K`:
    // the journal this job leaves behind must be finishable by the CLI.
    util::Rng rng(job.req.seed);
    const std::vector<campaign::ExperimentId> ids =
        campaign::sample_uniform(rng, golden.sample_space_size(), job.req.batch);

    campaign::CheckpointOptions options;
    options.telemetry = options_.telemetry;
    options.path = options_.store_dir + "/" + key.str() + ".clog";
    options.flush_every = std::max<std::uint32_t>(1, job.req.flush_every);
    options.use_supervisor = true;
    options.supervisor.pool.workers =
        static_cast<int>(std::clamp<std::uint32_t>(job.req.workers, 1, 16));
    // timeout 0 from a client request must not disable hang detection on
    // the daemon: substitute the campaign fallback deadline instead.
    options.supervisor.pool.heartbeat_timeout_ms =
        job.req.timeout_ms != 0 ? job.req.timeout_ms
                                : campaign::kFallbackDeadlineMs;
    options.supervisor.pool.use_snapshots = options_.use_snapshots;
    options.supervisor.pool.snapshot.interval = options_.snapshot_interval;
    options.supervisor.pool.snapshot.timeout_ms =
        options.supervisor.pool.heartbeat_timeout_ms;
    options.supervisor.quarantine_after =
        static_cast<int>(job.req.quarantine_after);
    options.supervisor.telemetry = options_.telemetry;
    // Never run injected experiments on the daemon's own thread: a hazard
    // flip that escapes isolation could hang or kill the whole service.  If
    // the pool degrades to nothing, fail this one job instead.
    options.supervisor.allow_in_process_fallback = false;

    campaign::OutcomeCounts tally;
    campaign::SupervisorStats last_stats;
    options.on_progress = [&](const campaign::CheckpointProgress& p) {
      const campaign::OutcomeCounts chunk = campaign::count_outcomes(p.chunk);
      tally.masked += chunk.masked;
      tally.sdc += chunk.sdc;
      tally.crash += chunk.crash;
      tally.hang += chunk.hang;
      tally.detected += chunk.detected;
      if (p.supervisor != nullptr) last_stats = *p.supervisor;
      if (p.chunk.empty()) return;  // final dedupe flush; CampaignDone covers it
      CampaignProgress progress;
      progress.job = job.id;
      progress.done = p.executed;
      progress.total = p.total;
      progress.logged = p.logged;
      progress.masked = tally.masked;
      progress.sdc = tally.sdc;
      progress.crash = tally.crash;
      progress.hang = tally.hang;
      progress.detected = tally.detected;
      progress.worker_deaths = last_stats.worker_deaths;
      progress.worker_hangs = last_stats.worker_hangs;
      progress.requeued = last_stats.experiments_requeued;
      progress.quarantined = last_stats.quarantined;
      if (callbacks_.on_progress) callbacks_.on_progress(job, progress);
    };
    options.should_stop = [this] {
      std::lock_guard<std::mutex> lock(mutex_);
      return stop_;
    };

    campaign::CheckpointRunResult run;
    const bool distributed = options_.dispatcher != nullptr &&
                             options_.dispatcher->live_workers() > 0;
    if (distributed) {
      // At least one remote worker is live: fan chunks out through the
      // dispatcher (the runner thread co-executes, so losing every worker
      // mid-job still finishes it).  Chunk outcomes are deterministic and
      // the journal dedupe sorts by id, so this path and the local one
      // below leave byte-identical journals and boundaries.
      DistributedJobOptions dist;
      dist.path = options.path;
      dist.flush_every = options.flush_every;
      dist.kernel = job.req.kernel;
      dist.preset = job.req.preset;
      dist.pool_workers = std::clamp<std::uint32_t>(job.req.workers, 1, 16);
      dist.timeout_ms = job.req.timeout_ms != 0 ? job.req.timeout_ms
                                                : campaign::kFallbackDeadlineMs;
      dist.quarantine_after = job.req.quarantine_after;
      dist.supervisor = options.supervisor;
      dist.telemetry = options_.telemetry;
      dist.on_progress = options.on_progress;
      dist.should_stop = options.should_stop;
      DistributedRunResult dres =
          options_.dispatcher->run_job(*program, golden, ids, dist);
      run.log = std::move(dres.log);
      run.resumed = dres.resumed;
      run.skipped = dres.skipped;
      run.executed = dres.executed;
      run.flushes = dres.flushes;
      run.torn_frames = dres.torn_frames;
      run.stopped = dres.stopped;
      run.supervisor_stats = dres.supervisor_stats;
      if (telemetry::active(options_.telemetry)) {
        options_.telemetry->metrics().counter("jobs.distributed").add();
      }
    } else {
      run = campaign::run_campaign_checkpointed(*program, golden, ids, options);
    }
    done.executed = run.executed;
    done.skipped = run.skipped;
    done.flushes = run.flushes;
    const campaign::OutcomeCounts counts =
        campaign::count_outcomes(run.log.records());
    done.masked = counts.masked;
    done.sdc = counts.sdc;
    done.crash = counts.crash;
    done.hang = counts.hang;
    done.detected = counts.detected;
    done.worker_deaths = run.supervisor_stats.worker_deaths;
    done.worker_hangs = run.supervisor_stats.worker_hangs;
    done.quarantined = run.supervisor_stats.quarantined;

    if (run.stopped) {
      done.stopped = true;
      done.error = "server drained; journal '" + options.path +
                   "' holds " + std::to_string(run.log.size()) +
                   " experiments and is resumable";
    } else {
      // A local run folded its evidence as it went; a distributed one (or a
      // resumed journal's loaded records) replays here.
      const boundary::FaultToleranceBoundary built = campaign::boundary_from_log(
          *program, golden, run.log, {true, 32}, util::default_pool(),
          options_.telemetry, &run.evidence);
      run.evidence = {};  // resolved; free it before publishing
      const std::string artifact =
          options_.store_dir + "/" + key.str() + ".boundary";
      if (!boundary::save_to_file(built, program->config_key(), artifact)) {
        throw std::runtime_error("cannot write boundary artifact '" +
                                 artifact + "'");
      }
      // Per-site detector coverage from the journal, so phase-report
      // queries against this entry can show which phases the detector
      // protects.  Only detector-armed campaigns produce one.
      std::vector<double> coverage;
      if (counts.detected > 0) {
        std::vector<std::uint64_t> caught(golden.trace.size(), 0);
        std::vector<std::uint64_t> wrong(golden.trace.size(), 0);
        for (const campaign::ExperimentRecord& record : run.log.records()) {
          if (!campaign::is_classic(record.id)) continue;
          const fi::Outcome outcome = record.result.outcome;
          if (outcome != fi::Outcome::kSdc && outcome != fi::Outcome::kDetected)
            continue;
          const std::uint64_t site = campaign::site_of(record.id);
          if (site >= wrong.size()) continue;
          ++wrong[site];
          if (outcome == fi::Outcome::kDetected) ++caught[site];
        }
        coverage.assign(golden.trace.size(), 0.0);
        for (std::size_t i = 0; i < coverage.size(); ++i) {
          if (wrong[i] > 0) {
            coverage[i] = static_cast<double>(caught[i]) /
                          static_cast<double>(wrong[i]);
          }
        }
      }
      std::string publish_error;
      if (!store_->publish(key, built, &publish_error, std::move(coverage))) {
        throw std::runtime_error("cannot publish boundary: " + publish_error);
      }
      done.ok = true;
      done.store_key = key.str();
    }
  } catch (const std::exception& e) {
    done.ok = false;
    done.error = e.what();
  }
  // Terminal states are recorded; a stopped (drained) job is NOT terminal
  // -- it stays pending in the ledger so the next startup resumes it.
  if (done.ok) {
    ledger_transition(job.id, JobState::kDone, done.store_key);
  } else if (!done.stopped) {
    ledger_transition(job.id, JobState::kFailed, done.error);
  }
  if (telemetry::active(options_.telemetry)) {
    const char* counter = done.ok ? "jobs.completed"
                         : done.stopped ? "jobs.stopped"
                                        : "jobs.failed";
    options_.telemetry->metrics().counter(counter).add();
    if (done.detected > 0) {
      options_.telemetry->metrics()
          .counter("jobs.detected")
          .add(done.detected);
    }
  }
  if (callbacks_.on_done) callbacks_.on_done(job, done);
}

void JobRunner::execute_recompute(const CampaignJob& job) {
  telemetry::SpanScope span(options_.telemetry, "jobs.recompute", "service");
  span.arg("job", static_cast<double>(job.id));
  ledger_transition(job.id, JobState::kRunning, {});
  const SubmitRecomputeReq& req = job.recompute;
  const StoreKey key{req.kernel, req.preset, req.seed};
  RecomputeDone done;
  done.job = job.id;
  try {
    const fi::ProgramPtr program = kernels::make_program(
        req.kernel, kernels::preset_from_string(req.preset));
    const fi::GoldenRun golden = fi::run_golden(*program);

    sections::SectionCampaignOptions sopts;
    sopts.store_dir = options_.store_dir;
    sopts.stem = key.str();
    sopts.kernel = req.kernel;
    sopts.preset = req.preset;
    sopts.carve.seed = req.seed;
    sopts.carve.batch_per_section = req.section_batch;
    sopts.carve.batch_overrides = req.section_batches;
    sopts.flush_every = std::max<std::uint32_t>(1, req.flush_every);
    sopts.force = req.force;
    sopts.telemetry = options_.telemetry;
    // Same isolation posture as a campaign job: supervisor always on, no
    // in-process fallback (an escaped flip must not take the daemon down),
    // timeout 0 substituted with the campaign fallback deadline.
    sopts.use_supervisor = true;
    sopts.supervisor.pool.workers =
        static_cast<int>(std::clamp<std::uint32_t>(req.workers, 1, 16));
    sopts.supervisor.pool.heartbeat_timeout_ms =
        req.timeout_ms != 0 ? req.timeout_ms : campaign::kFallbackDeadlineMs;
    sopts.supervisor.pool.use_snapshots = options_.use_snapshots;
    sopts.supervisor.pool.snapshot.interval = options_.snapshot_interval;
    sopts.supervisor.pool.snapshot.timeout_ms =
        sopts.supervisor.pool.heartbeat_timeout_ms;
    sopts.supervisor.quarantine_after =
        static_cast<int>(req.quarantine_after);
    sopts.supervisor.telemetry = options_.telemetry;
    sopts.supervisor.allow_in_process_fallback = false;
    sopts.should_stop = [this] {
      std::lock_guard<std::mutex> lock(mutex_);
      return stop_;
    };

    campaign::OutcomeCounts tally;
    const auto progress_sink = [&](const campaign::CheckpointProgress& p) {
      const campaign::OutcomeCounts chunk = campaign::count_outcomes(p.chunk);
      tally.masked += chunk.masked;
      tally.sdc += chunk.sdc;
      tally.crash += chunk.crash;
      tally.hang += chunk.hang;
      tally.detected += chunk.detected;
      if (p.chunk.empty()) return;  // final dedupe flush
      CampaignProgress progress;
      progress.job = job.id;
      progress.done = p.executed;   // within the running section
      progress.total = p.total;
      progress.logged = p.logged;
      progress.masked = tally.masked;
      progress.sdc = tally.sdc;
      progress.crash = tally.crash;
      progress.hang = tally.hang;
      progress.detected = tally.detected;
      if (p.supervisor != nullptr) {
        progress.worker_deaths = p.supervisor->worker_deaths;
        progress.worker_hangs = p.supervisor->worker_hangs;
        progress.requeued = p.supervisor->experiments_requeued;
        progress.quarantined = p.supervisor->quarantined;
      }
      if (callbacks_.on_progress) callbacks_.on_progress(job, progress);
    };
    sopts.on_progress = [&](const std::string&,
                            const campaign::CheckpointProgress& p) {
      progress_sink(p);
    };

    // With live remote workers, each dirty section fans out through the
    // chunk dispatcher; the journal it leaves is byte-identical to the
    // local path's, so resume and splice semantics are unchanged.
    if (options_.dispatcher != nullptr &&
        options_.dispatcher->live_workers() > 0) {
      sopts.section_runner =
          [&](const sections::SectionSpec&,
              std::span<const campaign::ExperimentId> ids,
              const std::string& journal) {
            DistributedJobOptions dist;
            dist.path = journal;
            dist.flush_every = sopts.flush_every;
            dist.kernel = req.kernel;
            dist.preset = req.preset;
            dist.pool_workers = std::clamp<std::uint32_t>(req.workers, 1, 16);
            dist.timeout_ms = sopts.supervisor.pool.heartbeat_timeout_ms;
            dist.quarantine_after = req.quarantine_after;
            dist.supervisor = sopts.supervisor;
            dist.telemetry = options_.telemetry;
            dist.on_progress = progress_sink;
            dist.should_stop = sopts.should_stop;
            DistributedRunResult dres =
                options_.dispatcher->run_job(*program, golden, ids, dist);
            if (telemetry::active(options_.telemetry)) {
              options_.telemetry->metrics()
                  .counter("jobs.distributed_sections")
                  .add();
            }
            sections::SectionRunOutcome out;
            out.log = std::move(dres.log);
            out.executed = dres.executed;
            out.stopped = dres.stopped;
            return out;
          };
    }

    // Previous composed artifact seeds the fingerprint diff.  Missing ==
    // full compose; unusable == recompute everything (counted) rather than
    // failing the job, since a fresh compose overwrites it anyway.
    const std::string compose_path =
        options_.store_dir + "/" + key.str() + ".compose";
    std::optional<sections::ComposedArtifact> previous;
    {
      std::string diag;
      previous = sections::load_composed(compose_path, program->config_key(),
                                         &diag);
      if (!previous && diag.find("cannot open") == std::string::npos &&
          telemetry::active(options_.telemetry)) {
        options_.telemetry->metrics()
            .counter("jobs.compose_previous_unusable")
            .add();
      }
    }

    const sections::SectionCampaignResult run = sections::run_section_campaigns(
        *program, golden, previous ? &*previous : nullptr, sopts);
    done.executed = run.executed;
    done.dirty = run.dirty;
    done.reused = run.reused;
    if (run.stopped) {
      done.stopped = true;
      done.error = "server drained; per-section journals under '" +
                   options_.store_dir + "' hold the finished chunks and are "
                   "resumable";
    } else {
      done.sections = run.artifact.sections.size();
      if (!sections::save_composed(run.artifact, compose_path)) {
        throw std::runtime_error("cannot write composed artifact '" +
                                 compose_path + "'");
      }
      const boundary::FaultToleranceBoundary built = run.artifact.compose();
      const std::string artifact =
          options_.store_dir + "/" + key.str() + ".boundary";
      if (!boundary::save_to_file(built, program->config_key(), artifact)) {
        throw std::runtime_error("cannot write boundary artifact '" +
                                 artifact + "'");
      }
      std::string publish_error;
      if (!store_->publish(key, built, &publish_error)) {
        throw std::runtime_error("cannot publish boundary: " + publish_error);
      }
      done.ok = true;
      done.store_key = key.str();
    }
  } catch (const std::exception& e) {
    done.ok = false;
    done.error = e.what();
  }
  // Same terminal-state discipline as campaigns: a drained recompute is NOT
  // terminal -- it stays pending and resumes from its section journals.
  if (done.ok) {
    ledger_transition(job.id, JobState::kDone, done.store_key);
  } else if (!done.stopped) {
    ledger_transition(job.id, JobState::kFailed, done.error);
  }
  if (telemetry::active(options_.telemetry)) {
    const char* counter = done.ok ? "jobs.recompute_completed"
                         : done.stopped ? "jobs.recompute_stopped"
                                        : "jobs.recompute_failed";
    options_.telemetry->metrics().counter(counter).add();
  }
  if (callbacks_.on_recompute_done) callbacks_.on_recompute_done(job, done);
}

}  // namespace ftb::service
