#include "service/dispatch.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace ftb::service {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Holder id of the job-runner thread's own claims.  Worker ids start at 1,
/// so 0 is free to mean "local".
constexpr std::uint64_t kLocalHolder = 0;

constexpr std::uint64_t kMsPerNs = 1'000'000ull;

bool contains(const std::vector<std::uint64_t>& v, std::uint64_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

void erase_value(std::vector<std::uint64_t>& v, std::uint64_t x) {
  v.erase(std::remove(v.begin(), v.end(), x), v.end());
}

}  // namespace

ChunkDispatcher::ChunkDispatcher(DispatchOptions options)
    : options_(std::move(options)), jitter_(options_.jitter_seed) {}

void ChunkDispatcher::attach(
    std::function<void(std::uint64_t, const net::Frame&)> sender,
    std::function<void()> waker) {
  std::lock_guard<std::mutex> lock(mutex_);
  sender_ = std::move(sender);
  waker_ = std::move(waker);
}

std::uint64_t ChunkDispatcher::now() const {
  return options_.now_ns ? options_.now_ns() : steady_ns();
}

void ChunkDispatcher::count(const char* name, std::uint64_t delta) {
  if (telemetry::active(options_.telemetry) && delta > 0) {
    options_.telemetry->metrics().counter(name).add(delta);
  }
}

std::uint64_t ChunkDispatcher::jittered_backoff_locked(
    std::uint32_t failures) {
  const std::uint32_t shift = std::min(failures > 0 ? failures - 1 : 0u, 6u);
  double ms = static_cast<double>(options_.quarantine_backoff_ms) *
              static_cast<double>(1u << shift);
  ms *= jitter_.next_double(0.75, 1.25);
  return static_cast<std::uint64_t>(ms) * kMsPerNs;
}

ChunkDispatcher::Worker* ChunkDispatcher::worker_by_conn_locked(
    std::uint64_t conn) {
  const auto it = by_conn_.find(conn);
  if (it == by_conn_.end()) return nullptr;
  const auto worker = workers_.find(it->second);
  return worker == workers_.end() ? nullptr : &worker->second;
}

void ChunkDispatcher::release_holders_locked(Chunk& chunk) {
  for (const std::uint64_t holder : chunk.holders) {
    if (holder == kLocalHolder) continue;
    const auto it = workers_.find(holder);
    if (it != workers_.end()) erase_value(it->second.leased, chunk.seq);
  }
  chunk.holders.clear();
}

/// Removes `loser` from the chunk's holders and requeues the chunk when no
/// other holder remains.  The straggler timer restarts on the next lease.
void ChunkDispatcher::requeue_chunk_locked(Chunk& chunk, std::uint64_t loser) {
  erase_value(chunk.holders, loser);
  if (chunk.state != Chunk::State::kLeased || !chunk.holders.empty()) return;
  chunk.state = Chunk::State::kPending;
  chunk.first_leased_ns = 0;
  chunk.speculated = false;
  if (job_.active) job_.experiments_requeued += chunk.ids.size();
  count("dispatch.chunks_requeued");
}

void ChunkDispatcher::expire_worker_locked(Worker& worker) {
  const std::vector<std::uint64_t> leased = worker.leased;
  worker.leased.clear();
  for (const std::uint64_t seq : leased) {
    if (!job_.active || seq >= job_.chunks.size()) continue;
    count("dispatch.leases_expired");
    requeue_chunk_locked(job_.chunks[seq], worker.id);
  }
}

bool ChunkDispatcher::worker_may_take_locked(const Worker& worker,
                                             const Chunk& chunk,
                                             std::uint64_t now_ns) const {
  if (chunk.state == Chunk::State::kDone) return false;
  if (chunk.state == Chunk::State::kLeased &&
      !(chunk.speculated && chunk.holders.size() < 2)) {
    return false;
  }
  if (contains(chunk.holders, worker.id)) return false;
  const auto grudge = worker.grudges.find(chunk.seq);
  if (grudge != worker.grudges.end() &&
      grudge->second.not_before_ns > now_ns) {
    return false;
  }
  return true;
}

void ChunkDispatcher::dispatch_locked(std::uint64_t now_ns) {
  if (!job_.active || !sender_) return;
  for (auto& [id, worker] : workers_) {
    if (worker.stale || worker.quarantined_until_ns > now_ns) continue;
    while (worker.leased.size() < worker.capacity) {
      Chunk* pick = nullptr;
      for (Chunk& chunk : job_.chunks) {
        if (worker_may_take_locked(worker, chunk, now_ns)) {
          pick = &chunk;
          break;
        }
      }
      if (pick == nullptr) break;
      pick->holders.push_back(worker.id);
      if (pick->state == Chunk::State::kPending) {
        pick->state = Chunk::State::kLeased;
        pick->first_leased_ns = now_ns;
      }
      worker.leased.push_back(pick->seq);
      count("dispatch.leases_granted");
      WorkerChunk msg = job_.lease;
      msg.chunk = pick->seq;
      msg.ids = pick->ids;
      sender_(worker.conn, make_worker_chunk(msg));
    }
  }
}

void ChunkDispatcher::handle_hello(std::uint64_t conn,
                                   const WorkerHello& hello) {
  WorkerHelloOk ok;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (hello.token != options_.worker_token) {
      count("dispatch.workers_rejected");
      if (sender_) {
        sender_(conn, make_error("worker token mismatch"));
      }
      return;
    }
    // A conn can only carry one worker; a second hello replaces the first
    // (its leases requeue exactly like a disconnect).
    if (Worker* old = worker_by_conn_locked(conn)) {
      expire_worker_locked(*old);
      workers_.erase(old->id);
    }
    Worker worker;
    worker.id = next_worker_id_++;
    worker.conn = conn;
    worker.name = hello.name;
    worker.capacity = std::max<std::uint32_t>(1, hello.capacity);
    worker.last_advance_ns = now();
    ok.worker = worker.id;
    ok.heartbeat_interval_ms = options_.heartbeat_interval_ms;
    ok.lease_timeout_ms = options_.lease_timeout_ms;
    by_conn_[conn] = worker.id;
    workers_.emplace(worker.id, std::move(worker));
    count("dispatch.workers_connected");
    if (telemetry::active(options_.telemetry)) {
      options_.telemetry->metrics().gauge("dispatch.workers").set(
          static_cast<double>(workers_.size()));
    }
    if (sender_) sender_(conn, make_worker_hello_ok(ok));
    dispatch_locked(now());  // a job may already be waiting for capacity
  }
  cv_.notify_all();
}

void ChunkDispatcher::handle_heartbeat(std::uint64_t conn,
                                       const WorkerHeartbeat& heartbeat) {
  std::lock_guard<std::mutex> lock(mutex_);
  Worker* worker = worker_by_conn_locked(conn);
  if (worker == nullptr) return;
  // Only an *advance* of the monotonic counter proves the process is alive;
  // replays and reordered duplicates renew nothing.
  if (heartbeat.seq <= worker->heartbeat_seq) return;
  worker->heartbeat_seq = heartbeat.seq;
  worker->last_advance_ns = now();
  if (worker->stale) {
    worker->stale = false;
    count("dispatch.workers_readmitted");
  }
}

void ChunkDispatcher::handle_result(std::uint64_t conn,
                                    WorkerChunkResult result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Worker* worker = worker_by_conn_locked(conn);
    if (worker == nullptr) {
      // The conn never registered (or its hello was replaced): the result
      // maps onto no holder, and falling back to the local holder id would
      // let a forged ok=false erase the runner's claim on a chunk it is
      // executing.  Nothing from an unregistered conn may merge or requeue.
      count("dispatch.unregistered_results");
      return;
    }
    erase_value(worker->leased, result.chunk);
    if (!job_.active || job_.id != result.job ||
        result.chunk >= job_.chunks.size()) {
      // The job drained, finished, or never existed; the work is wasted but
      // harmless -- nothing merges.
      count("dispatch.stale_results");
      return;
    }
    Chunk& chunk = job_.chunks[result.chunk];
    if (!result.ok) {
      count("dispatch.chunk_failures");
      const std::uint64_t t = now();
      // Per-(worker,chunk) grudge: this worker must sit out a jittered
      // backoff before it may lease this chunk again; other workers and
      // the local runner can take it immediately.
      Grudge& grudge = worker->grudges[result.chunk];
      ++grudge.failures;
      grudge.not_before_ns = t + jittered_backoff_locked(grudge.failures);
      ++worker->kills;
      if (worker->kills >= options_.worker_quarantine_after) {
        worker->quarantined_until_ns =
            t + jittered_backoff_locked(worker->kills -
                                        options_.worker_quarantine_after +
                                        1);
        count("dispatch.worker_quarantines");
      }
      requeue_chunk_locked(chunk, worker->id);
      dispatch_locked(t);
    } else {
      if (chunk.state == Chunk::State::kDone) {
        // A speculative twin (or a SIGCONTed straggler) lost the race.
        count("dispatch.duplicate_results");
        return;
      }
      // Exactly-once guard: the result must answer exactly this chunk's id
      // set, else it cannot be merged without risking duplicates.
      bool coherent = result.records.size() == chunk.ids.size();
      if (coherent) {
        std::unordered_set<campaign::ExperimentId> expected(chunk.ids.begin(),
                                                            chunk.ids.end());
        for (const campaign::ExperimentRecord& record : result.records) {
          if (expected.erase(record.id) == 0) {
            coherent = false;
            break;
          }
        }
      }
      if (!coherent) {
        count("dispatch.incoherent_results");
        requeue_chunk_locked(chunk, worker->id);
        dispatch_locked(now());
      } else {
        chunk.records = std::move(result.records);
        chunk.state = Chunk::State::kDone;
        release_holders_locked(chunk);
        ++job_.done;
        job_.completed.push_back(result.chunk);
        job_.remote_worker_deaths += result.worker_deaths;
        job_.remote_worker_hangs += result.worker_hangs;
        job_.remote_requeued += result.requeued;
        job_.remote_quarantined += result.quarantined;
        count("dispatch.chunks_remote");
        worker->kills = 0;
        dispatch_locked(now());
      }
    }
  }
  cv_.notify_all();
}

void ChunkDispatcher::handle_disconnect(std::uint64_t conn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_conn_.find(conn);
    if (it == by_conn_.end()) return;
    const auto worker = workers_.find(it->second);
    if (worker != workers_.end()) {
      expire_worker_locked(worker->second);
      workers_.erase(worker);
    }
    by_conn_.erase(it);
    count("dispatch.workers_lost");
    if (telemetry::active(options_.telemetry)) {
      options_.telemetry->metrics().gauge("dispatch.workers").set(
          static_cast<double>(workers_.size()));
    }
  }
  cv_.notify_all();
}

void ChunkDispatcher::on_tick() {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t t = now();
    const std::uint64_t lease_ns =
        std::uint64_t{options_.lease_timeout_ms} * kMsPerNs;
    for (auto& [id, worker] : workers_) {
      if (!worker.stale && t - worker.last_advance_ns > lease_ns) {
        // No heartbeat advance inside the TTL: the process is stopped, dead
        // behind a live socket, or partitioned.  Its leases requeue now; a
        // later heartbeat advance re-admits it.
        worker.stale = true;
        count("dispatch.workers_stale");
        expire_worker_locked(worker);
        notify = true;
      }
    }
    if (job_.active) {
      const std::uint64_t straggler_ns =
          std::uint64_t{options_.straggler_timeout_ms} * kMsPerNs;
      for (Chunk& chunk : job_.chunks) {
        if (chunk.state == Chunk::State::kLeased && !chunk.speculated &&
            !contains(chunk.holders, kLocalHolder) &&
            chunk.first_leased_ns != 0 &&
            t - chunk.first_leased_ns > straggler_ns) {
          chunk.speculated = true;
          count("dispatch.chunks_speculated");
          notify = true;  // the local runner may steal it
        }
      }
    }
    dispatch_locked(t);
  }
  if (notify) cv_.notify_all();
}

std::size_t ChunkDispatcher::live_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  for (const auto& [id, worker] : workers_) {
    if (!worker.stale) ++live;
  }
  return live;
}

std::optional<std::uint64_t> ChunkDispatcher::claim_local_chunk() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!job_.active) return std::nullopt;
  Chunk* pick = nullptr;
  for (Chunk& chunk : job_.chunks) {
    if (chunk.state == Chunk::State::kPending) {
      pick = &chunk;
      break;
    }
  }
  if (pick == nullptr) {
    // No pending work: steal a remote straggler (first result will win).
    for (Chunk& chunk : job_.chunks) {
      if (chunk.state == Chunk::State::kLeased && chunk.speculated &&
          chunk.holders.size() < 2 &&
          !contains(chunk.holders, kLocalHolder)) {
        pick = &chunk;
        break;
      }
    }
  }
  if (pick == nullptr) return std::nullopt;
  pick->holders.push_back(kLocalHolder);
  if (pick->state == Chunk::State::kPending) {
    pick->state = Chunk::State::kLeased;
    pick->first_leased_ns = now();
  }
  return pick->seq;
}

void ChunkDispatcher::complete_local_chunk(
    std::uint64_t seq, std::vector<campaign::ExperimentRecord> records) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!job_.active || seq >= job_.chunks.size()) return;
  Chunk& chunk = job_.chunks[seq];
  if (chunk.state == Chunk::State::kDone) {
    count("dispatch.duplicate_results");
    return;
  }
  chunk.records = std::move(records);
  chunk.state = Chunk::State::kDone;
  release_holders_locked(chunk);
  ++job_.done;
  job_.completed.push_back(seq);
  count("dispatch.chunks_local");
}

/// One run_campaign_checkpointed invocation as the dispatcher's job.  The
/// constructor activates the job and the destructor ends it, an exception
/// included: outstanding remote leases die with the job, and late results
/// become stale and never merge.
class ChunkDispatcher::JobExecutor final : public campaign::ChunkExecutor {
 public:
  JobExecutor(ChunkDispatcher& dispatcher, const campaign::ChunkPlan& plan,
              const std::string& kernel, const std::string& preset)
      : d_(dispatcher),
        plan_(plan),
        span_(plan.options.telemetry, "dispatch.job", "dispatch") {
    span_.arg("chunks", static_cast<double>(plan.chunks.size()));
    const campaign::SupervisorOptions& supervisor = plan.options.supervisor;
    std::function<void()> waker;
    {
      std::lock_guard<std::mutex> lock(d_.mutex_);
      if (d_.job_.active) {
        throw std::logic_error("a distributed job is already active");
      }
      Job& job = d_.job_ = Job{};
      job.active = true;
      job.id = ++d_.job_counter_;
      job.lease.job = job.id;
      job.lease.kernel = kernel;
      job.lease.preset = preset;
      job.lease.pool_workers =
          static_cast<std::uint32_t>(supervisor.pool.workers);
      job.lease.timeout_ms = supervisor.pool.heartbeat_timeout_ms;
      job.lease.quarantine_after =
          static_cast<std::uint32_t>(supervisor.quarantine_after);
      for (const std::span<const campaign::ExperimentId> ids : plan.chunks) {
        Chunk& chunk = job.chunks.emplace_back();
        chunk.seq = job.chunks.size() - 1;
        chunk.ids.assign(ids.begin(), ids.end());
      }
      // Grudges and kill streaks are job-scoped (chunk seqs restart at 0).
      for (auto& [id, worker] : d_.workers_) {
        worker.grudges.clear();
        worker.kills = 0;
      }
      waker = d_.waker_;
    }
    if (waker) waker();  // let the event loop start dispatching immediately
  }

  ~JobExecutor() override { end_job(); }

  std::optional<campaign::ExecutedChunk> next(
      const std::function<bool()>& should_stop) override {
    for (;;) {
      std::optional<std::vector<campaign::ExperimentRecord>> completed;
      {
        std::lock_guard<std::mutex> lock(d_.mutex_);
        Job& job = d_.job_;
        if (!job.completed.empty()) {
          completed = std::move(job.chunks[job.completed.front()].records);
          job.completed.pop_front();
        } else if (job.done == job.chunks.size()) {
          return std::nullopt;
        }
      }
      // Finished chunks go first, even on the way out: completed work is
      // durable work.
      if (completed) return merge(std::move(*completed));
      if (should_stop && should_stop()) return std::nullopt;
      if (const auto seq = d_.claim_local_chunk()) {
        d_.complete_local_chunk(*seq, local().run(plan_.chunks[*seq]));
        continue;  // returned on the next pass
      }
      // Every chunk is leased remotely; wait for completions, requeues, or
      // the drain flag (the timeout bounds should_stop latency).
      std::unique_lock<std::mutex> lock(d_.mutex_);
      d_.cv_.wait_for(lock, std::chrono::milliseconds(50), [&] {
        const Job& job = d_.job_;
        if (!job.completed.empty() || job.done == job.chunks.size()) {
          return true;
        }
        return std::any_of(job.chunks.begin(), job.chunks.end(),
                           [](const Chunk& chunk) {
                             return chunk.state == Chunk::State::kPending;
                           });
      });
    }
  }

  void finish(campaign::CheckpointRunResult& result) override {
    result.supervisor_stats = stats();
    end_job();
    if (local_) local_->request_exit();
  }

 private:
  /// `records` as a finished chunk, each claimed in the journal.
  campaign::ExecutedChunk merge(
      std::vector<campaign::ExperimentRecord> records) {
    campaign::ExecutedChunk chunk;
    chunk.records.reserve(records.size());
    for (campaign::ExperimentRecord& record : records) {
      // Belt and braces: chunks are disjoint and have one winner, so this
      // filter should never drop anything -- but a duplicate id must not
      // reach the journal even if that invariant breaks.
      if (plan_.journal.claim(record.id)) {
        chunk.records.push_back(std::move(record));
      }
    }
    d_.count("dispatch.duplicate_records",
             records.size() - chunk.records.size());
    chunk.stats = stats();
    return chunk;
  }

  /// The local supervisor's stats plus what the remote workers reported.
  campaign::SupervisorStats stats() const {
    campaign::SupervisorStats stats;
    if (local_) stats = local_->stats();
    std::lock_guard<std::mutex> lock(d_.mutex_);
    const Job& job = d_.job_;
    stats.worker_deaths += job.remote_worker_deaths;
    stats.worker_hangs += job.remote_worker_hangs;
    stats.experiments_requeued +=
        job.remote_requeued + job.experiments_requeued;
    stats.quarantined += job.remote_quarantined;
    return stats;
  }

  campaign::CampaignSupervisor& local() {
    if (!local_) {
      campaign::SupervisorOptions options = plan_.options.supervisor;
      if (options.telemetry == nullptr) {
        options.telemetry = plan_.options.telemetry;
      }
      local_.emplace(plan_.program, plan_.golden, options);
    }
    return *local_;
  }

  void end_job() noexcept {
    std::lock_guard<std::mutex> lock(d_.mutex_);
    d_.job_.active = false;
    d_.job_.chunks.clear();
    d_.job_.completed.clear();
    for (auto& [id, worker] : d_.workers_) worker.leased.clear();
  }

  ChunkDispatcher& d_;
  const campaign::ChunkPlan& plan_;
  telemetry::SpanScope span_;
  std::optional<campaign::CampaignSupervisor> local_;
};

campaign::ChunkExecutorFactory ChunkDispatcher::executor(std::string kernel,
                                                         std::string preset) {
  return [this, kernel = std::move(kernel), preset = std::move(preset)](
             const campaign::ChunkPlan& plan)
             -> std::unique_ptr<campaign::ChunkExecutor> {
    return std::make_unique<JobExecutor>(*this, plan, kernel, preset);
  };
}

}  // namespace ftb::service
