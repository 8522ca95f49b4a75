// ftb_served: boundary-query and campaign-dispatch daemon.
//
// Serves the CRC-framed binary protocol (src/service/protocol.h) over
// loopback TCP.  The query plane answers boundary predictions out of an
// in-memory store loaded from --store-dir; the campaign plane runs
// submitted fault-injection campaigns through the resilient supervisor,
// journalling to the same directory and publishing finished boundaries
// back into the store.
//
// SIGTERM/SIGINT starts a graceful drain: no new connections, no new jobs,
// the running campaign stops at its next checkpoint (journal resumable by
// `ftb_analyze campaign --resume`), buffered replies are flushed, and the
// process exits 0.  SIGUSR1 dumps metrics to --metrics-out; --trace-out
// writes the span timeline at exit.
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "net/server.h"
#include "net/socket.h"
#include "service/service.h"
#include "telemetry/events.h"
#include "telemetry/export.h"
#include "util/cli.h"

namespace {

ftb::service::Service* g_service = nullptr;
volatile std::sig_atomic_t g_dump_metrics = 0;

void handle_terminate(int) {
  if (g_service != nullptr) g_service->request_shutdown();
}

void handle_usr1(int) {
  // Consumed by the loop's tick hook; the loop ticks at least every 500ms,
  // so no wake is needed from signal context.
  g_dump_metrics = 1;
}

/// Parses a CPU list like "1,2,4-7" into sorted CPU numbers.  Returns
/// false on anything it cannot read; an empty string is a valid empty list.
bool parse_cpu_list(const std::string& text, std::vector<int>* cpus) {
  cpus->clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) return false;
    const std::size_t dash = token.find('-');
    try {
      if (dash == std::string::npos) {
        cpus->push_back(std::stoi(token));
      } else {
        const int lo = std::stoi(token.substr(0, dash));
        const int hi = std::stoi(token.substr(dash + 1));
        if (lo > hi || hi - lo > 1024) return false;
        for (int cpu = lo; cpu <= hi; ++cpu) cpus->push_back(cpu);
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  for (const int cpu : *cpus) {
    if (cpu < 0) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftb;

  util::Cli cli(argc, argv);
  cli.describe("port", "TCP port to listen on (default 0 = ephemeral)");
  cli.describe("store-dir",
               "directory of *.boundary artifacts and campaign journals "
               "(default '.')");
  cli.describe("queue", "max queued campaign jobs (default 8)");
  cli.describe("admission-queue",
               "max queued query-plane requests before Busy (default 1024)");
  cli.describe("busy-retry-ms",
               "retry-after hint in Busy replies (default 50)");
  cli.describe("idle-timeout-ms",
               "close connections idle this long (default 30000, 0 = never)");
  cli.describe("max-connections", "accept backstop (default 1024)");
  cli.describe("metrics-out",
               "write a metrics JSON snapshot here on SIGUSR1 and at exit");
  cli.describe("trace-out",
               "write the span timeline (Chrome trace JSON) here at exit");
  cli.describe("campaign-cpus",
               "pin the campaign plane (runner thread + sandbox workers) to "
               "these CPUs, e.g. 1,2,4-7; keeps query p99 flat under load "
               "(default: unpinned)");
  cli.describe("lease-timeout-ms",
               "remote worker lease TTL; a worker whose heartbeat counter "
               "stalls this long forfeits its chunks (default 3000)");
  cli.describe("straggler-ms",
               "speculatively re-dispatch a remote chunk leased longer than "
               "this (default 20000)");
  cli.describe("worker-token",
               "shared secret ftb_workerd must present to register; without "
               "it the worker plane trusts the network (default: none)");
  cli.describe("snapshot",
               "serve local campaign experiments from copy-on-write "
               "fork-server snapshots (fi/snapshot.h); journals stay "
               "byte-identical (default off)");
  cli.describe("snapshot-every",
               "snapshot checkpoint cadence in dynamic instructions "
               "(default 4096; implies --snapshot)");
  if (cli.get_bool("help")) {
    cli.print_help("ftb_served: boundary-query / campaign-dispatch daemon");
    return 0;
  }
  if (!net::net_supported()) {
    std::fprintf(stderr, "error: this platform has no socket support\n");
    return 1;
  }

  telemetry::Telemetry telemetry;
  telemetry.set_enabled(true);

  // Fault injection for the chaos harness: FTB_CHAOS=seed=7,short_io=0.2,...
  // arms the seeded syscall-fault layer; unset/off leaves it dormant.
  {
    std::string chaos_summary;
    if (chaos::configure_from_env(&chaos_summary)) {
      std::fprintf(stderr, "chaos: %s\n", chaos_summary.c_str());
    }
  }

  service::ServiceOptions service_options;
  service_options.store_dir = cli.get("store-dir", ".");
  service_options.max_queue =
      static_cast<std::size_t>(cli.get_int("queue", 8));
  service_options.admission_queue_max =
      static_cast<std::size_t>(cli.get_int("admission-queue", 1024));
  service_options.busy_retry_ms =
      static_cast<std::uint64_t>(cli.get_int("busy-retry-ms", 50));
  service_options.dispatch.lease_timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("lease-timeout-ms", 3000));
  service_options.dispatch.straggler_timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("straggler-ms", 20000));
  service_options.dispatch.worker_token = cli.get("worker-token");
  service_options.snapshot_campaigns =
      cli.get_bool("snapshot", cli.has("snapshot-every"));
  service_options.snapshot_interval =
      static_cast<std::uint64_t>(cli.get_int("snapshot-every", 4096));
  if (const std::string cpus = cli.get("campaign-cpus"); !cpus.empty()) {
    if (!parse_cpu_list(cpus, &service_options.campaign_cpus)) {
      std::fprintf(stderr, "error: cannot parse --campaign-cpus '%s'\n",
                   cpus.c_str());
      return 1;
    }
    std::fprintf(stderr, "campaign plane pinned to CPUs %s\n", cpus.c_str());
  }
  service_options.telemetry = &telemetry;
  service::Service service(service_options);

  // Report what the write-ahead job ledger found: jobs acked by a previous
  // incarnation that never finished resume now, from their journals.
  const auto& replay = service.jobs().replay();
  for (const std::string& line : replay.diagnostics) {
    std::fprintf(stderr, "ledger: %s\n", line.c_str());
  }
  if (!service.jobs().ledger_ok()) {
    std::fprintf(stderr,
                 "ledger: UNAVAILABLE; submissions will be refused until "
                 "%s/jobs.ledger is writable\n",
                 service_options.store_dir.c_str());
  } else if (replay.records > 0 || replay.torn_records > 0) {
    std::fprintf(stderr,
                 "ledger: replayed %llu records (%llu terminal, %llu torn); "
                 "%zu interrupted jobs resume\n",
                 static_cast<unsigned long long>(replay.records),
                 static_cast<unsigned long long>(replay.terminal),
                 static_cast<unsigned long long>(replay.torn_records),
                 replay.pending.size());
  }

  std::vector<std::string> diagnostics;
  const std::size_t loaded = service.load_store(&diagnostics);
  for (const std::string& line : diagnostics) {
    std::fprintf(stderr, "store: %s\n", line.c_str());
  }
  std::fprintf(stderr, "store: %zu boundaries loaded from %s\n", loaded,
               service_options.store_dir.c_str());

  net::ServerOptions server_options;
  server_options.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  server_options.idle_timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("idle-timeout-ms", 30000));
  server_options.max_connections =
      static_cast<std::size_t>(cli.get_int("max-connections", 1024));
  server_options.telemetry = &telemetry;

  const std::string metrics_out = cli.get("metrics-out");
  const std::string trace_out = cli.get("trace-out");

  try {
    net::Server server(service, server_options);
    service.attach(&server);
    g_service = &service;
    std::signal(SIGTERM, handle_terminate);
    std::signal(SIGINT, handle_terminate);
    std::signal(SIGUSR1, handle_usr1);
    std::signal(SIGPIPE, SIG_IGN);

    // The smoke tests and the load generator scrape this line for the port.
    std::printf("listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    // SIGUSR1 metrics dump, consumed on the loop thread via the tick hook.
    service.set_tick_hook([&] {
      if (g_dump_metrics == 0) return;
      g_dump_metrics = 0;
      if (!metrics_out.empty() &&
          telemetry::write_metrics_json(telemetry, metrics_out)) {
        std::fprintf(stderr, "metrics -> %s\n", metrics_out.c_str());
      }
    });

    server.run();
    g_service = nullptr;

    if (!metrics_out.empty()) {
      telemetry::write_metrics_json(telemetry, metrics_out);
    }
    if (!trace_out.empty()) {
      telemetry::write_chrome_trace(telemetry, trace_out);
    }
    std::fprintf(stderr, "drained; %zu boundaries in store\n",
                 service.store().size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
