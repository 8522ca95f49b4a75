// Lease-based chunk dispatcher: the campaign plane's distributed executor.
//
// ftb_workerd daemons connect to ftb_served on the ordinary wire protocol
// and register with WorkerHello.  While workers are connected, a campaign
// job's run_campaign_checkpointed takes its executor from executor() below
// (campaign::ChunkExecutor): each invocation becomes one dispatcher job
// whose journal-sized chunks are handed to workers under a TTL lease:
//
//   * leases are renewed only by an *advance* of the worker's monotonic
//     WorkerHeartbeat counter -- a SIGSTOPped worker whose kernel keeps the
//     TCP socket open still goes stale, its leases expire, and its chunks
//     requeue exactly once (chunks are disjoint id sets and a chunk has one
//     winner, so the journal never sees a duplicate experiment record);
//   * a dead connection expires the worker's leases immediately;
//   * a chunk leased longer than straggler_timeout_ms is speculatively
//     re-dispatched to a second worker (or stolen by the local runner);
//     the first WorkerChunkResult wins and later twins are dropped;
//   * a worker that answers a chunk with ok=false is charged a
//     per-(worker,chunk) grudge with jittered exponential backoff before it
//     may be offered that chunk again; repeated kills quarantine the whole
//     worker for a jittered backoff window (re-admission is automatic);
//   * the job-runner thread co-executes: whenever a chunk is pending it
//     claims it and runs it through a CampaignSupervisor it forks on first
//     use, so a fully remote job forks no pool and zero live workers still
//     completes every job.
//
// The executor returns chunks in completion order, and the runner journals
// each into the same append-only .clog journal as the local path (written
// behind, one frame per chunk; file I/O never runs on the event loop).
// Experiment outcomes are deterministic and the final compaction dedupes
// and sorts by id, so the finished journal -- and the boundary inferred
// from it -- is byte-identical to a local-only run no matter which worker
// executed what, how many leases expired, or where a kill -9 landed.
//
// Threading: WorkerHello/Heartbeat/ChunkResult/disconnect/tick arrive on
// the server's event-loop thread; the executor runs on the job-runner
// thread.  One mutex guards all shared state; the runner blocks on a
// condition variable while remote chunks are in flight.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "campaign/checkpoint.h"
#include "campaign/sample_space.h"
#include "net/frame.h"
#include "service/protocol.h"
#include "telemetry/events.h"
#include "util/rng.h"

namespace ftb::service {

struct DispatchOptions {
  /// Heartbeat cadence advertised to workers in WorkerHelloOk.
  std::uint32_t heartbeat_interval_ms = 250;
  /// A worker whose heartbeat counter has not advanced for this long is
  /// stale: its leases expire and requeue, and it gets no new chunks until
  /// a heartbeat advance re-admits it.
  std::uint32_t lease_timeout_ms = 3000;
  /// A remote chunk leased longer than this is a straggler and becomes
  /// eligible for speculative re-dispatch (second holder, first result
  /// wins).
  std::uint32_t straggler_timeout_ms = 20000;
  /// Chunk kills (ok=false results) a worker may accumulate before the
  /// whole worker is quarantined for a backoff window.
  std::uint32_t worker_quarantine_after = 3;
  /// Base backoff for per-(worker,chunk) grudges and worker quarantine;
  /// doubles per repeat and is jittered +/-25% so re-admissions do not
  /// stampede.
  std::uint32_t quarantine_backoff_ms = 1000;
  /// Seed for the deterministic jitter stream.
  std::uint64_t jitter_seed = 0x77ab5eedu;
  /// Shared secret a WorkerHello must carry to register; empty admits any
  /// worker (loopback / trusted-network deployments).  Worker-plane frames
  /// from connections that never registered are dropped regardless.
  std::string worker_token;
  telemetry::Telemetry* telemetry = nullptr;
  /// Test seam: monotonic clock in nanoseconds (steady_clock when unset).
  std::function<std::uint64_t()> now_ns;
};

class ChunkDispatcher {
 public:
  explicit ChunkDispatcher(DispatchOptions options = {});

  /// Wires frame output and loop wakeups; both must be thread-safe (the
  /// Service points them at net::Server::send / wake).  Call before the
  /// event loop starts handing frames in.
  void attach(std::function<void(std::uint64_t, const net::Frame&)> sender,
              std::function<void()> waker);

  // --- event-loop thread --------------------------------------------------
  void handle_hello(std::uint64_t conn, const WorkerHello& hello);
  void handle_heartbeat(std::uint64_t conn, const WorkerHeartbeat& heartbeat);
  void handle_result(std::uint64_t conn, WorkerChunkResult result);
  void handle_disconnect(std::uint64_t conn);
  /// Lease sweep + straggler detection + chunk dispatch.
  void on_tick();

  /// Workers currently admissible for leases (registered, heartbeat fresh).
  std::size_t live_workers() const;

  // --- job-runner thread --------------------------------------------------
  /// The CheckpointOptions::executor of a job while workers are connected.
  /// Each invocation becomes one dispatcher job: its chunks are leased to
  /// the workers, which run `kernel` at `preset` under the invocation's
  /// supervisor settings, and co-executed on the calling thread.  Exactly
  /// one job may be active at a time (the JobRunner is serial); building a
  /// second executor while one lives throws std::logic_error.
  campaign::ChunkExecutorFactory executor(std::string kernel,
                                          std::string preset);

 private:
  class JobExecutor;

  struct Chunk {
    enum class State { kPending, kLeased, kDone };
    std::uint64_t seq = 0;
    std::vector<campaign::ExperimentId> ids;
    State state = State::kPending;
    std::vector<std::uint64_t> holders;  ///< worker ids; 0 == local runner
    std::uint64_t first_leased_ns = 0;
    bool speculated = false;
    std::vector<campaign::ExperimentRecord> records;  ///< winner's output
  };

  struct Grudge {
    std::uint32_t failures = 0;
    std::uint64_t not_before_ns = 0;
  };

  struct Worker {
    std::uint64_t id = 0;
    std::uint64_t conn = 0;
    std::string name;
    std::uint32_t capacity = 1;
    std::uint64_t heartbeat_seq = 0;
    std::uint64_t last_advance_ns = 0;
    bool stale = false;
    std::uint32_t kills = 0;  ///< consecutive chunk failures
    std::uint64_t quarantined_until_ns = 0;
    std::vector<std::uint64_t> leased;            ///< chunk seqs
    std::map<std::uint64_t, Grudge> grudges;      ///< per-(worker,chunk)
  };

  struct Job {
    bool active = false;
    std::uint64_t id = 0;
    WorkerChunk lease;  ///< what every lease carries but its chunk and ids
    std::vector<Chunk> chunks;
    std::size_t done = 0;
    std::deque<std::size_t> completed;  ///< chunk indexes awaiting merge
    // What progress reports add to the local supervisor's stats: the ids
    // requeues put back, and the deltas of winning WorkerChunkResults.
    std::uint64_t experiments_requeued = 0;
    std::uint64_t remote_worker_deaths = 0;
    std::uint64_t remote_worker_hangs = 0;
    std::uint64_t remote_requeued = 0;
    std::uint64_t remote_quarantined = 0;
  };

  std::uint64_t now() const;
  std::uint64_t jittered_backoff_locked(std::uint32_t failures);
  void count(const char* name, std::uint64_t delta = 1);
  Worker* worker_by_conn_locked(std::uint64_t conn);
  void release_holders_locked(Chunk& chunk);
  void requeue_chunk_locked(Chunk& chunk, std::uint64_t loser);
  void expire_worker_locked(Worker& worker);
  void dispatch_locked(std::uint64_t now_ns);
  bool worker_may_take_locked(const Worker& worker, const Chunk& chunk,
                              std::uint64_t now_ns) const;

  // Runner-side helpers (each takes the mutex).
  std::optional<std::uint64_t> claim_local_chunk();  ///< a chunk's seq
  void complete_local_chunk(std::uint64_t seq,
                            std::vector<campaign::ExperimentRecord> records);

  DispatchOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::function<void(std::uint64_t, const net::Frame&)> sender_;
  std::function<void()> waker_;
  std::map<std::uint64_t, Worker> workers_;        // by worker id
  std::map<std::uint64_t, std::uint64_t> by_conn_; // conn -> worker id
  std::uint64_t next_worker_id_ = 1;
  std::uint64_t job_counter_ = 0;
  Job job_;
  util::Rng jitter_;
};

}  // namespace ftb::service
