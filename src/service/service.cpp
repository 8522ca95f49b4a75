#include "service/service.h"

#include <chrono>
#include <limits>
#include <utility>

#include "boundary/predictor.h"
#include "boundary/report.h"
#include "chaos/chaos.h"
#include "fi/fpbits.h"
#include "telemetry/export.h"

namespace ftb::service {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Records one query-plane request latency under "service.<name>_ns".
class RequestTimer {
 public:
  RequestTimer(telemetry::Telemetry* telemetry, const char* name)
      : telemetry_(telemetry::active(telemetry) ? telemetry : nullptr),
        name_(name) {
    if (telemetry_ != nullptr) start_ns_ = telemetry_->now_ns();
  }
  ~RequestTimer() {
    if (telemetry_ == nullptr) return;
    telemetry_->metrics()
        .histogram(std::string("service.") + name_ + "_ns")
        .record(telemetry_->now_ns() - start_ns_);
  }

 private:
  telemetry::Telemetry* telemetry_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)), store_(options_.telemetry) {
  DispatchOptions dispatch = options_.dispatch;
  if (dispatch.telemetry == nullptr) dispatch.telemetry = options_.telemetry;
  dispatcher_ = std::make_unique<ChunkDispatcher>(std::move(dispatch));
  JobRunnerOptions job_options;
  job_options.store_dir = options_.store_dir;
  job_options.max_queue = options_.max_queue;
  job_options.campaign_cpus = options_.campaign_cpus;
  job_options.use_snapshots = options_.snapshot_campaigns;
  job_options.snapshot_interval = options_.snapshot_interval;
  job_options.dispatcher = dispatcher_.get();
  job_options.telemetry = options_.telemetry;
  JobCallbacks callbacks;
  callbacks.on_progress = [this](const CampaignJob& job,
                                 const CampaignProgress& progress) {
    // job.client == 0 marks a ledger-recovered job: its submitter died with
    // the previous process, so there is no connection to stream to.
    net::Server* server = server_.load(std::memory_order_acquire);
    if (server != nullptr && job.client != 0) {
      server->send(job.client, make_campaign_progress(progress));
    }
  };
  callbacks.on_done = [this](const CampaignJob& job, const CampaignDone& done) {
    net::Server* server = server_.load(std::memory_order_acquire);
    if (server != nullptr) {
      if (job.client != 0) server->send(job.client, make_campaign_done(done));
      server->wake();  // drain progress may now be complete
    }
  };
  callbacks.on_recompute_done = [this](const CampaignJob& job,
                                       const RecomputeDone& done) {
    net::Server* server = server_.load(std::memory_order_acquire);
    if (server != nullptr) {
      if (job.client != 0) server->send(job.client, make_recompute_done(done));
      server->wake();
    }
  };
  jobs_ = std::make_unique<JobRunner>(&store_, std::move(job_options),
                                      std::move(callbacks));
}

Service::~Service() = default;

void Service::attach(net::Server* server) {
  server_.store(server, std::memory_order_release);
  if (server != nullptr) {
    // Server::send/wake are thread-safe, so the dispatcher may call these
    // from the runner thread while leases move on the loop thread.
    dispatcher_->attach(
        [server](std::uint64_t conn, const net::Frame& frame) {
          server->send(conn, frame);
        },
        [server] { server->wake(); });
  }
}

std::size_t Service::load_store(std::vector<std::string>* diagnostics) {
  return store_.load_directory(options_.store_dir, diagnostics);
}

void Service::request_shutdown() noexcept {
  shutdown_requested_.store(true, std::memory_order_relaxed);
  net::Server* server = server_.load(std::memory_order_acquire);
  if (server != nullptr) server->wake();
}

void Service::reply(net::Server::ConnId conn, const net::Frame& frame) {
  net::Server* server = server_.load(std::memory_order_acquire);
  if (server != nullptr) server->send(conn, frame);
}

void Service::busy(net::Server::ConnId conn, const std::string& message,
                   const char* shed_counter) {
  if (telemetry::active(options_.telemetry)) {
    options_.telemetry->metrics().counter("service.busy_sent").add();
    options_.telemetry->metrics().counter(shed_counter).add();
  }
  reply(conn, make_busy(message, options_.busy_retry_ms));
}

void Service::on_frame(net::Server::ConnId conn, net::Frame frame) {
  switch (static_cast<MsgType>(frame.type)) {
    // Query plane: through the bounded admission queue, drained on the
    // tick that follows (the loop drains its queue before sleeping, so an
    // uncontended request still answers in the same iteration).
    case MsgType::kPing:
    case MsgType::kPredictFlip:
    case MsgType::kPredictSite:
    case MsgType::kPhaseReport:
    case MsgType::kListBoundaries:
    case MsgType::kStats:
      admit(conn, std::move(frame));
      return;
    case MsgType::kSubmitCampaign:
      handle_submit(conn, frame);
      return;
    case MsgType::kSubmitRecompute:
      handle_submit_recompute(conn, frame);
      return;
    // Worker plane: straight to the dispatcher, bypassing the admission
    // queue -- a full query queue must not delay heartbeats, or healthy
    // workers would look dead exactly when the service is busiest.
    case MsgType::kWorkerHello:
      handle_worker_hello(conn, frame);
      return;
    case MsgType::kWorkerHeartbeat:
      handle_worker_heartbeat(conn, frame);
      return;
    case MsgType::kWorkerChunkResult:
      handle_worker_result(conn, frame);
      return;
    case MsgType::kShutdown:
      reply(conn, make_shutdown_ok());
      shutdown_requested_.store(true, std::memory_order_relaxed);
      return;
    default:
      reply(conn, make_error("unexpected message type " +
                             std::to_string(frame.type) + " (" +
                             to_string(static_cast<MsgType>(frame.type)) +
                             ")"));
      return;
  }
}

void Service::on_disconnect(net::Server::ConnId conn) {
  // Forget the connection's in-flight count; its queued requests still
  // drain (replies to a dead connection are silently dropped), and the
  // erase here keeps a reconnecting client from inheriting a stale cap.
  inflight_.erase(conn);
  // If the connection carried a worker, its leases expire and requeue now.
  dispatcher_->handle_disconnect(conn);
}

void Service::handle_worker_hello(net::Server::ConnId conn,
                                  const net::Frame& frame) {
  std::string error;
  const auto hello = parse_worker_hello(frame, &error);
  if (!hello.has_value()) {
    reply(conn, make_error(error));
    return;
  }
  dispatcher_->handle_hello(conn, *hello);
}

void Service::handle_worker_heartbeat(net::Server::ConnId conn,
                                      const net::Frame& frame) {
  std::string error;
  const auto beat = parse_worker_heartbeat(frame, &error);
  if (!beat.has_value()) {
    reply(conn, make_error(error));
    return;
  }
  dispatcher_->handle_heartbeat(conn, *beat);
}

void Service::handle_worker_result(net::Server::ConnId conn,
                                   const net::Frame& frame) {
  std::string error;
  auto result = parse_worker_chunk_result(frame, &error);
  if (!result.has_value()) {
    reply(conn, make_error(error));
    return;
  }
  dispatcher_->handle_result(conn, std::move(*result));
}

void Service::admit(net::Server::ConnId conn, net::Frame frame) {
  if (pending_.size() >= options_.admission_queue_max) {
    busy(conn,
         "admission queue is full (" + std::to_string(pending_.size()) +
             " requests waiting)",
         "service.shed_queue_full");
    return;
  }
  std::size_t& inflight = inflight_[conn];
  if (inflight >= options_.per_conn_inflight_max) {
    busy(conn,
         "connection has " + std::to_string(inflight) +
             " requests in flight (cap " +
             std::to_string(options_.per_conn_inflight_max) + ")",
         "service.shed_conn_cap");
    return;
  }
  ++inflight;
  PendingQuery entry;
  entry.conn = conn;
  entry.frame = std::move(frame);
  entry.arrival_ns = steady_now_ns();
  pending_.push_back(std::move(entry));
  if (telemetry::active(options_.telemetry)) {
    options_.telemetry->metrics().gauge("service.admission_depth").set(
        static_cast<double>(pending_.size()));
  }
}

void Service::drain_admission() {
  if (pending_.empty()) return;
  const std::uint64_t now = steady_now_ns();
  std::size_t budget = options_.admission_batch;
  while (budget-- > 0 && !pending_.empty()) {
    PendingQuery entry = std::move(pending_.front());
    pending_.pop_front();
    auto it = inflight_.find(entry.conn);
    if (it != inflight_.end() && it->second > 0) {
      if (--it->second == 0) inflight_.erase(it);
    }
    const std::uint64_t waited = now - entry.arrival_ns;
    if (entry.frame.deadline_ms > 0 &&
        waited > std::uint64_t{entry.frame.deadline_ms} * 1'000'000ull) {
      // Nobody is waiting for this answer anymore; shed it instead of
      // burning the tick on dead work.
      busy(entry.conn,
           "request waited " + std::to_string(waited / 1'000'000ull) +
               " ms, past its " + std::to_string(entry.frame.deadline_ms) +
               " ms deadline",
           "service.shed_deadline");
      continue;
    }
    if (telemetry::active(options_.telemetry)) {
      options_.telemetry->metrics().histogram("service.queue_wait_ns")
          .record(waited);
    }
    dispatch_query(entry.conn, entry.frame);
  }
  if (telemetry::active(options_.telemetry)) {
    options_.telemetry->metrics().gauge("service.admission_depth").set(
        static_cast<double>(pending_.size()));
  }
  if (!pending_.empty()) {
    // Out of batch budget: wake the loop so the next tick runs promptly
    // instead of waiting out the epoll timeout.
    net::Server* server = server_.load(std::memory_order_acquire);
    if (server != nullptr) server->wake();
  }
}

void Service::dispatch_query(net::Server::ConnId conn,
                             const net::Frame& frame) {
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kPing:
      reply(conn, make_pong());
      return;
    case MsgType::kPredictFlip:
      handle_predict_flip(conn, frame);
      return;
    case MsgType::kPredictSite:
      handle_predict_site(conn, frame);
      return;
    case MsgType::kPhaseReport:
      handle_phase_report(conn, frame);
      return;
    case MsgType::kListBoundaries:
      handle_list(conn);
      return;
    case MsgType::kStats:
      handle_stats(conn);
      return;
    default:
      return;  // unreachable: admit() only queues the cases above
  }
}

void Service::on_decode_error(net::Server::ConnId conn,
                              const std::string& error) {
  // Best-effort: the server flushes this before closing the poisoned
  // connection, so a well-behaved client learns why it was dropped.
  reply(conn, make_error(error));
}

void Service::on_tick() {
  if (tick_hook_) tick_hook_();
  dispatcher_->on_tick();  // lease sweep, straggler detection, dispatch
  drain_admission();
  if (shutdown_requested_.load(std::memory_order_relaxed) && !draining_) {
    begin_drain();
  }
  if (draining_ && pending_.empty() && jobs_->idle()) {
    net::Server* server = server_.load(std::memory_order_acquire);
    if (server != nullptr) server->request_stop_when_flushed();
  }
}

void Service::begin_drain() {
  draining_ = true;
  net::Server* server = server_.load(std::memory_order_acquire);
  if (server != nullptr) server->request_drain();
  // Fails queued jobs and stops the running one at its next checkpoint;
  // its CampaignDone (stopped=true) frame still reaches the client.
  jobs_->request_drain();
  if (telemetry::active(options_.telemetry)) {
    options_.telemetry->instant("service.drain", "service");
  }
}

void Service::handle_predict_flip(net::Server::ConnId conn,
                                  const net::Frame& frame) {
  RequestTimer timer(options_.telemetry, "predict_flip");
  std::string error;
  const auto req = parse_predict_flip(frame, &error);
  if (!req.has_value()) {
    reply(conn, make_error(error));
    return;
  }
  const auto entry = store_.find(req->key);
  if (entry == nullptr) {
    reply(conn, make_error("no boundary for key '" + req->key + "'"));
    return;
  }
  if (req->site >= entry->boundary.sites()) {
    reply(conn, make_error("site " + std::to_string(req->site) +
                           " is out of range; '" + req->key + "' has " +
                           std::to_string(entry->boundary.sites()) +
                           " sites"));
    return;
  }
  const double golden = entry->golden->run.trace[req->site];
  PredictFlipOk ok;
  ok.outcome = static_cast<std::uint32_t>(
      boundary::predict_flip(entry->boundary, req->site, golden,
                             static_cast<int>(req->bit)));
  ok.threshold = entry->boundary.threshold(req->site);
  ok.injected_error = fi::flip_is_nonfinite(golden, static_cast<int>(req->bit))
                          ? std::numeric_limits<double>::infinity()
                          : fi::bit_flip_error(golden, static_cast<int>(req->bit));
  reply(conn, make_predict_flip_ok(ok));
}

void Service::handle_predict_site(net::Server::ConnId conn,
                                  const net::Frame& frame) {
  RequestTimer timer(options_.telemetry, "predict_site");
  std::string error;
  const auto req = parse_predict_site(frame, &error);
  if (!req.has_value()) {
    reply(conn, make_error(error));
    return;
  }
  const auto entry = store_.find(req->key);
  if (entry == nullptr) {
    reply(conn, make_error("no boundary for key '" + req->key + "'"));
    return;
  }
  if (req->site >= entry->boundary.sites()) {
    reply(conn, make_error("site " + std::to_string(req->site) +
                           " is out of range; '" + req->key + "' has " +
                           std::to_string(entry->boundary.sites()) +
                           " sites"));
    return;
  }
  const double golden = entry->golden->run.trace[req->site];
  const boundary::SitePrediction prediction =
      boundary::predict_site(entry->boundary, req->site, golden);
  PredictSiteOk ok;
  ok.masked = prediction.masked;
  ok.sdc = prediction.sdc;
  ok.crash = prediction.crash;
  ok.sdc_ratio = prediction.sdc_ratio();
  ok.threshold = entry->boundary.threshold(req->site);
  ok.golden_value = golden;
  reply(conn, make_predict_site_ok(ok));
}

void Service::handle_phase_report(net::Server::ConnId conn,
                                  const net::Frame& frame) {
  RequestTimer timer(options_.telemetry, "phase_report");
  std::string error;
  const auto req = parse_phase_report(frame, &error);
  if (!req.has_value()) {
    reply(conn, make_error(error));
    return;
  }
  const auto entry = store_.find(req->key);
  if (entry == nullptr) {
    reply(conn, make_error("no boundary for key '" + req->key + "'"));
    return;
  }
  PhaseReportOk ok;
  ok.rows = boundary::phase_report(entry->golden->phases, entry->boundary,
                                   entry->golden->run.trace, {},
                                   entry->coverage_profile);
  reply(conn, make_phase_report_ok(ok));
}

void Service::handle_list(net::Server::ConnId conn) {
  RequestTimer timer(options_.telemetry, "list");
  BoundaryListOk ok;
  for (const auto& entry : store_.list()) {
    BoundaryInfo info;
    info.key = entry->key.str();
    info.config_key = entry->config_key;
    info.sites = entry->boundary.sites();
    info.informed_sites = entry->boundary.informed_sites();
    ok.entries.push_back(std::move(info));
  }
  reply(conn, make_boundary_list_ok(ok));
}

void Service::publish_chaos_stats() {
  if (!chaos::enabled() || !telemetry::active(options_.telemetry)) return;
  const chaos::ChaosStats stats = chaos::stats();
  auto& metrics = options_.telemetry->metrics();
  metrics.gauge("chaos.short_reads").set(static_cast<double>(stats.short_reads));
  metrics.gauge("chaos.short_writes")
      .set(static_cast<double>(stats.short_writes));
  metrics.gauge("chaos.eintr_faults")
      .set(static_cast<double>(stats.eintr_faults));
  metrics.gauge("chaos.write_errors")
      .set(static_cast<double>(stats.write_errors));
  metrics.gauge("chaos.fsync_errors")
      .set(static_cast<double>(stats.fsync_errors));
}

void Service::handle_stats(net::Server::ConnId conn) {
  RequestTimer timer(options_.telemetry, "stats");
  publish_chaos_stats();
  StatsOk ok;
  if (options_.telemetry != nullptr) {
    ok.metrics_json =
        telemetry::metrics_to_json(options_.telemetry->metrics().snapshot());
  } else {
    ok.metrics_json = "{\"schema\":\"ftb.telemetry.metrics/1\",\"counters\":{},"
                      "\"gauges\":{},\"histograms\":{}}";
  }
  reply(conn, make_stats_ok(ok));
}

void Service::handle_submit(net::Server::ConnId conn, const net::Frame& frame) {
  RequestTimer timer(options_.telemetry, "submit");
  std::string error;
  const auto req = parse_submit_campaign(frame, &error);
  if (!req.has_value()) {
    reply(conn, make_error(error));
    return;
  }
  std::uint64_t job_id = 0;
  std::uint32_t queue_depth = 0;
  switch (jobs_->submit(conn, *req, &job_id, &queue_depth, &error)) {
    case JobRunner::Submit::kAccepted:
      break;
    case JobRunner::Submit::kQueueFull:
      // Retryable by definition: the queue drains as jobs finish.
      busy(conn, error, "service.shed_queue_full");
      return;
    case JobRunner::Submit::kRejected:
      reply(conn, make_error(error));
      return;
  }
  CampaignAccepted accepted;
  accepted.job = job_id;
  accepted.queue_depth = queue_depth;
  reply(conn, make_campaign_accepted(accepted));
}

void Service::handle_submit_recompute(net::Server::ConnId conn,
                                      const net::Frame& frame) {
  RequestTimer timer(options_.telemetry, "submit_recompute");
  std::string error;
  const auto req = parse_submit_recompute(frame, &error);
  if (!req.has_value()) {
    reply(conn, make_error(error));
    return;
  }
  std::uint64_t job_id = 0;
  std::uint32_t queue_depth = 0;
  switch (jobs_->submit_recompute(conn, *req, &job_id, &queue_depth, &error)) {
    case JobRunner::Submit::kAccepted:
      break;
    case JobRunner::Submit::kQueueFull:
      busy(conn, error, "service.shed_queue_full");
      return;
    case JobRunner::Submit::kRejected:
      reply(conn, make_error(error));
      return;
  }
  CampaignAccepted accepted;
  accepted.job = job_id;
  accepted.queue_depth = queue_depth;
  reply(conn, make_campaign_accepted(accepted));
}

}  // namespace ftb::service
