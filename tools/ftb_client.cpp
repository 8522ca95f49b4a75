// ftb_client: command-line client for ftb_served.
//
// Query plane:
//   ftb_client ping      --port N
//   ftb_client list      --port N
//   ftb_client predict   --port N --key cg@tiny@1 --site 120 --bit 52
//   ftb_client site      --port N --key cg@tiny@1 --site 120
//   ftb_client report    --port N --key cg@tiny@1
//   ftb_client stats     --port N            (prints the metrics JSON)
//   ftb_client shutdown  --port N            (asks the server to drain)
//
// Campaign plane:
//   ftb_client submit --port N --kernel daxpy --preset tiny --seed 1
//                     --batch 500 [--workers 2] [--no-wait]
//
// submit streams CampaignProgress lines until CampaignDone unless
// --no-wait, in which case it returns after CampaignAccepted (the job
// still runs; its boundary is published server-side).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "fi/outcome.h"
#include "net/client.h"
#include "service/protocol.h"
#include "util/cli.h"
#include "util/retry.h"

namespace {

using namespace ftb;

/// Backoff policy for Busy replies; --busy-retries sets max_retries.
util::RetryOptions g_busy_retry;

int fail(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  return 1;
}

/// Prints the server's reply when it is not the expected success type.
/// Busy (load shed; retries already exhausted) exits 3 so scripts can tell
/// "try later" from a real error's exit 1.
int fail_reply(const net::Frame& frame) {
  if (const auto busy = service::parse_busy(frame)) {
    std::fprintf(stderr, "server busy: %s (retry after %llu ms)\n",
                 busy->message.c_str(),
                 static_cast<unsigned long long>(busy->retry_after_ms));
    return 3;
  }
  if (const auto error = service::parse_error(frame)) {
    return fail(error->message);
  }
  return fail("unexpected reply type " + std::to_string(frame.type));
}

/// call() with jittered backoff on Busy replies, honouring the server's
/// retry-after hint.  Returns the final reply (possibly still Busy).
std::optional<net::Frame> call_retry(net::Client& client,
                                     const net::Frame& request,
                                     std::string* error) {
  return client.call_backoff(
      request,
      [](const net::Frame& reply) -> std::optional<std::uint64_t> {
        if (const auto busy = service::parse_busy(reply)) {
          return busy->retry_after_ms;
        }
        return std::nullopt;
      },
      g_busy_retry, error);
}

const char* outcome_name(std::uint32_t outcome) {
  switch (static_cast<fi::Outcome>(outcome)) {
    case fi::Outcome::kMasked: return "Masked";
    case fi::Outcome::kSdc: return "SDC";
    case fi::Outcome::kCrash: return "Crash";
    case fi::Outcome::kHang: return "Hang";
    case fi::Outcome::kDetected: return "Detected";
  }
  return "?";
}

int cmd_ping(net::Client& client) {
  std::string error;
  const auto reply = call_retry(client, service::make_ping(), &error);
  if (!reply.has_value()) return fail(error);
  if (reply->type != static_cast<std::uint32_t>(service::MsgType::kPong)) {
    return fail_reply(*reply);
  }
  std::printf("pong\n");
  return 0;
}

int cmd_list(net::Client& client) {
  std::string error;
  const auto reply = call_retry(client, service::make_list_boundaries(), &error);
  if (!reply.has_value()) return fail(error);
  const auto list = service::parse_boundary_list_ok(*reply, &error);
  if (!list.has_value()) return fail_reply(*reply);
  for (const service::BoundaryInfo& info : list->entries) {
    std::printf("%-24s %8llu sites %8llu informed  %s\n", info.key.c_str(),
                static_cast<unsigned long long>(info.sites),
                static_cast<unsigned long long>(info.informed_sites),
                info.config_key.c_str());
  }
  std::printf("%zu boundaries\n", list->entries.size());
  return 0;
}

int cmd_predict(net::Client& client, const util::Cli& cli) {
  service::PredictFlipReq req;
  req.key = cli.get("key");
  req.site = static_cast<std::uint64_t>(cli.get_int("site", 0));
  req.bit = static_cast<std::uint32_t>(cli.get_int("bit", 0));
  if (req.key.empty()) return fail("--key is required");
  std::string error;
  const auto reply = call_retry(client, service::make_predict_flip(req), &error);
  if (!reply.has_value()) return fail(error);
  const auto ok = service::parse_predict_flip_ok(*reply, &error);
  if (!ok.has_value()) return fail_reply(*reply);
  std::printf("site %llu bit %u -> %s (threshold %.17g, injected error %.17g)\n",
              static_cast<unsigned long long>(req.site), req.bit,
              outcome_name(ok->outcome), ok->threshold, ok->injected_error);
  return 0;
}

int cmd_site(net::Client& client, const util::Cli& cli) {
  service::PredictSiteReq req;
  req.key = cli.get("key");
  req.site = static_cast<std::uint64_t>(cli.get_int("site", 0));
  if (req.key.empty()) return fail("--key is required");
  std::string error;
  const auto reply = call_retry(client, service::make_predict_site(req), &error);
  if (!reply.has_value()) return fail(error);
  const auto ok = service::parse_predict_site_ok(*reply, &error);
  if (!ok.has_value()) return fail_reply(*reply);
  std::printf("site %llu: masked %u / sdc %u / crash %u of 64 flips "
              "(sdc ratio %.4f, threshold %.17g, golden %.17g)\n",
              static_cast<unsigned long long>(req.site), ok->masked, ok->sdc,
              ok->crash, ok->sdc_ratio, ok->threshold, ok->golden_value);
  return 0;
}

int cmd_report(net::Client& client, const util::Cli& cli) {
  service::PhaseReportReq req;
  req.key = cli.get("key");
  if (req.key.empty()) return fail("--key is required");
  std::string error;
  const auto reply = call_retry(client, service::make_phase_report(req), &error);
  if (!reply.has_value()) return fail(error);
  const auto ok = service::parse_phase_report_ok(*reply, &error);
  if (!ok.has_value()) return fail_reply(*reply);
  for (const boundary::PhaseReport& row : ok->rows) {
    std::printf("%-20s [%8llu, %8llu)  pred-sdc %.4f  median-thr %.6g  "
                "informed %.4f",
                row.name.c_str(), static_cast<unsigned long long>(row.begin),
                static_cast<unsigned long long>(row.end),
                row.mean_predicted_sdc, row.median_threshold,
                row.informed_fraction);
    if (row.mean_detected_coverage.has_value()) {
      std::printf("  det-coverage %.4f", *row.mean_detected_coverage);
    }
    std::printf("\n");
  }
  std::printf("%zu phases\n", ok->rows.size());
  return 0;
}

int cmd_stats(net::Client& client) {
  std::string error;
  const auto reply = call_retry(client, service::make_stats(), &error);
  if (!reply.has_value()) return fail(error);
  const auto ok = service::parse_stats_ok(*reply, &error);
  if (!ok.has_value()) return fail_reply(*reply);
  std::printf("%s\n", ok->metrics_json.c_str());
  return 0;
}

int cmd_shutdown(net::Client& client) {
  std::string error;
  const auto reply = client.call(service::make_shutdown(), &error);
  if (!reply.has_value()) return fail(error);
  if (reply->type !=
      static_cast<std::uint32_t>(service::MsgType::kShutdownOk)) {
    return fail_reply(*reply);
  }
  std::printf("server draining\n");
  return 0;
}

int cmd_submit(net::Client& client, const util::Cli& cli) {
  service::SubmitCampaignReq req;
  req.kernel = cli.get("kernel");
  req.preset = cli.get("preset", "tiny");
  req.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  req.batch = static_cast<std::uint64_t>(cli.get_int("batch", 1000));
  req.workers = static_cast<std::uint32_t>(cli.get_int("workers", 2));
  req.flush_every =
      static_cast<std::uint32_t>(cli.get_int("flush-every", 512));
  req.timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("timeout-ms", 2000));
  req.quarantine_after =
      static_cast<std::uint32_t>(cli.get_int("quarantine-after", 3));
  if (req.kernel.empty()) return fail("--kernel is required");

  std::string error;
  if (!client.connect(&error)) return fail(error);
  // Submit with retry-on-Busy: a full job queue answers Busy, and it drains
  // as jobs finish, so waiting out the server's hint usually succeeds.
  std::optional<net::Frame> accepted_frame;
  std::uint32_t backoff_ms = g_busy_retry.initial_backoff_ms;
  for (int attempt = 0;; ++attempt) {
    if (!client.send(service::make_submit_campaign(req), &error)) {
      return fail(error);
    }
    accepted_frame = client.recv(&error);
    if (!accepted_frame.has_value()) return fail(error);
    const auto busy = service::parse_busy(*accepted_frame);
    if (!busy.has_value()) break;
    if (attempt >= g_busy_retry.max_retries) {
      return fail_reply(*accepted_frame);  // still busy; exit 3
    }
    const std::uint64_t sleep_ms =
        std::max<std::uint64_t>(busy->retry_after_ms, backoff_ms);
    std::fprintf(stderr, "busy: %s; retrying in %llu ms\n",
                 busy->message.c_str(),
                 static_cast<unsigned long long>(sleep_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::uint64_t{backoff_ms} * 2, 60'000));
  }
  const auto accepted = service::parse_campaign_accepted(*accepted_frame);
  if (!accepted.has_value()) return fail_reply(*accepted_frame);
  std::printf("accepted: job %llu (%u ahead in queue)\n",
              static_cast<unsigned long long>(accepted->job),
              accepted->queue_depth);
  if (cli.get_bool("no-wait")) return 0;

  // Stream progress until CampaignDone.  A tiny-preset campaign checkpoint
  // can take a while behind other queued jobs, so wait generously.
  const auto wait_ms =
      static_cast<std::uint32_t>(cli.get_int("wait-ms", 600000));
  for (;;) {
    const auto frame = client.recv(&error, wait_ms);
    if (!frame.has_value()) return fail(error);
    if (const auto progress = service::parse_campaign_progress(*frame)) {
      std::printf("progress: %llu/%llu executed, %llu logged "
                  "(masked %llu sdc %llu detected %llu crash %llu hang %llu; "
                  "deaths %llu hangs %llu requeued %llu quarantined %llu)\n",
                  static_cast<unsigned long long>(progress->done),
                  static_cast<unsigned long long>(progress->total),
                  static_cast<unsigned long long>(progress->logged),
                  static_cast<unsigned long long>(progress->masked),
                  static_cast<unsigned long long>(progress->sdc),
                  static_cast<unsigned long long>(progress->detected),
                  static_cast<unsigned long long>(progress->crash),
                  static_cast<unsigned long long>(progress->hang),
                  static_cast<unsigned long long>(progress->worker_deaths),
                  static_cast<unsigned long long>(progress->worker_hangs),
                  static_cast<unsigned long long>(progress->requeued),
                  static_cast<unsigned long long>(progress->quarantined));
      continue;
    }
    if (const auto done = service::parse_campaign_done(*frame)) {
      if (done->ok) {
        std::printf("done: job %llu ok; %llu executed, %llu skipped, "
                    "%llu flushes; boundary published as %s\n",
                    static_cast<unsigned long long>(done->job),
                    static_cast<unsigned long long>(done->executed),
                    static_cast<unsigned long long>(done->skipped),
                    static_cast<unsigned long long>(done->flushes),
                    done->store_key.c_str());
        if (done->detected + done->sdc > 0) {
          std::printf("detector: %llu detected vs %llu sdc "
                      "(coverage %.4f)\n",
                      static_cast<unsigned long long>(done->detected),
                      static_cast<unsigned long long>(done->sdc),
                      static_cast<double>(done->detected) /
                          static_cast<double>(done->detected + done->sdc));
        }
        return 0;
      }
      if (done->stopped) {
        std::printf("stopped: job %llu drained; %s\n",
                    static_cast<unsigned long long>(done->job),
                    done->error.c_str());
        return 2;
      }
      return fail("job " + std::to_string(done->job) +
                  " failed: " + done->error);
    }
    return fail_reply(*frame);
  }
}

/// Streams one accepted job's CampaignProgress frames and the terminal
/// RecomputeDone.  Shares the submit command's Busy retry discipline.
int cmd_recompute(net::Client& client, const util::Cli& cli) {
  service::SubmitRecomputeReq req;
  req.kernel = cli.get("kernel");
  req.preset = cli.get("preset", "tiny");
  req.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  req.section_batch =
      static_cast<std::uint64_t>(cli.get_int("section-batch", 256));
  req.section_batches = cli.get("section-batches");
  req.force = cli.get_bool("force");
  req.workers = static_cast<std::uint32_t>(cli.get_int("workers", 2));
  req.flush_every =
      static_cast<std::uint32_t>(cli.get_int("flush-every", 256));
  req.timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("timeout-ms", 2000));
  req.quarantine_after =
      static_cast<std::uint32_t>(cli.get_int("quarantine-after", 3));
  if (req.kernel.empty()) return fail("--kernel is required");

  std::string error;
  if (!client.connect(&error)) return fail(error);
  std::optional<net::Frame> accepted_frame;
  std::uint32_t backoff_ms = g_busy_retry.initial_backoff_ms;
  for (int attempt = 0;; ++attempt) {
    if (!client.send(service::make_submit_recompute(req), &error)) {
      return fail(error);
    }
    accepted_frame = client.recv(&error);
    if (!accepted_frame.has_value()) return fail(error);
    const auto busy = service::parse_busy(*accepted_frame);
    if (!busy.has_value()) break;
    if (attempt >= g_busy_retry.max_retries) {
      return fail_reply(*accepted_frame);
    }
    const std::uint64_t sleep_ms =
        std::max<std::uint64_t>(busy->retry_after_ms, backoff_ms);
    std::fprintf(stderr, "busy: %s; retrying in %llu ms\n",
                 busy->message.c_str(),
                 static_cast<unsigned long long>(sleep_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::uint64_t{backoff_ms} * 2, 60'000));
  }
  const auto accepted = service::parse_campaign_accepted(*accepted_frame);
  if (!accepted.has_value()) return fail_reply(*accepted_frame);
  std::printf("accepted: recompute job %llu (%u ahead in queue)\n",
              static_cast<unsigned long long>(accepted->job),
              accepted->queue_depth);
  if (cli.get_bool("no-wait")) return 0;

  const auto wait_ms =
      static_cast<std::uint32_t>(cli.get_int("wait-ms", 600000));
  for (;;) {
    const auto frame = client.recv(&error, wait_ms);
    if (!frame.has_value()) return fail(error);
    if (const auto progress = service::parse_campaign_progress(*frame)) {
      std::printf("progress: %llu/%llu executed, %llu logged "
                  "(masked %llu sdc %llu detected %llu crash %llu hang "
                  "%llu)\n",
                  static_cast<unsigned long long>(progress->done),
                  static_cast<unsigned long long>(progress->total),
                  static_cast<unsigned long long>(progress->logged),
                  static_cast<unsigned long long>(progress->masked),
                  static_cast<unsigned long long>(progress->sdc),
                  static_cast<unsigned long long>(progress->detected),
                  static_cast<unsigned long long>(progress->crash),
                  static_cast<unsigned long long>(progress->hang));
      continue;
    }
    if (const auto done = service::parse_recompute_done(*frame)) {
      if (done->ok) {
        std::printf("done: recompute job %llu ok; %llu experiments, "
                    "%llu sections (%zu dirty, %zu reused); boundary "
                    "published as %s\n",
                    static_cast<unsigned long long>(done->job),
                    static_cast<unsigned long long>(done->executed),
                    static_cast<unsigned long long>(done->sections),
                    done->dirty.size(), done->reused.size(),
                    done->store_key.c_str());
        for (const std::string& name : done->dirty) {
          std::printf("  dirty : %s\n", name.c_str());
        }
        for (const std::string& name : done->reused) {
          std::printf("  reused: %s\n", name.c_str());
        }
        return 0;
      }
      if (done->stopped) {
        std::printf("stopped: recompute job %llu drained; %s\n",
                    static_cast<unsigned long long>(done->job),
                    done->error.c_str());
        return 2;
      }
      return fail("recompute job " + std::to_string(done->job) +
                  " failed: " + done->error);
    }
    return fail_reply(*frame);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string command =
      cli.positional().empty() ? "" : cli.positional().front();

  net::ClientOptions options;
  options.host = cli.get("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  options.recv_timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("timeout", 30000));
  options.deadline_ms =
      static_cast<std::uint32_t>(cli.get_int("deadline-ms", 0));
  g_busy_retry.max_retries =
      static_cast<int>(cli.get_int("busy-retries", 4));
  if (options.port == 0 && !command.empty() && command != "help") {
    return fail("--port is required");
  }
  net::Client client(options);

  if (command == "ping") return cmd_ping(client);
  if (command == "list") return cmd_list(client);
  if (command == "predict") return cmd_predict(client, cli);
  if (command == "site") return cmd_site(client, cli);
  if (command == "report") return cmd_report(client, cli);
  if (command == "stats") return cmd_stats(client);
  if (command == "shutdown") return cmd_shutdown(client);
  if (command == "submit") return cmd_submit(client, cli);
  if (command == "recompute") return cmd_recompute(client, cli);

  if (!command.empty() && command != "help") {
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  }
  std::fprintf(stderr,
               "usage: ftb_client <ping|list|predict|site|report|stats|"
               "submit|recompute|shutdown> --port N [options]\n"
               "  predict: --key K --site S --bit B\n"
               "  site:    --key K --site S\n"
               "  report:  --key K\n"
               "  submit:  --kernel NAME [--preset tiny] [--seed 1] "
               "[--batch 1000]\n"
               "           [--workers 2] [--flush-every 512] [--no-wait]\n"
               "  recompute: --kernel NAME [--preset tiny] [--seed 1]\n"
               "           [--section-batch 256] [--section-batches n=N,...]\n"
               "           [--force] (per-section campaigns; only "
               "fingerprint-dirty\n"
               "           sections re-run against the server's stored "
               "composed artifact)\n"
               "  common:  [--deadline-ms 0] (server sheds overdue queries)\n"
               "           [--busy-retries 4] (backoff on Busy; exit 3 when "
               "still busy)\n");
  return command == "help" ? 0 : 1;
}
