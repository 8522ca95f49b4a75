// Regression tests for net::Client::call_backoff against a scripted raw
// server, covering the nasty spot the real ftb_served never shows on
// purpose: the server answers Busy and then CLOSES the connection before
// the client retries.  The reconnect path must honour the Busy hint and the
// growing backoff (sleep, reconnect, retry) -- not spin reconnect attempts
// at the listener as fast as accept() allows.
#include "net/client.h"

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/socket.h"
#include "service/protocol.h"

namespace ftb::net {
namespace {

/// One accept at a time: read one frame, run the step script, repeat.
struct ScriptedServer {
  enum class Step { kBusyThenClose, kPong };

  explicit ScriptedServer(std::vector<Step> steps)
      : script(std::move(steps)) {
    std::string error;
    listener = listen_tcp("127.0.0.1", 0, &port, &error);
    EXPECT_TRUE(listener.valid()) << error;
    thread = std::thread([this] { run(); });
  }

  ~ScriptedServer() {
    if (listener.valid()) ::shutdown(listener.get(), SHUT_RDWR);
    if (thread.joinable()) thread.join();
  }

  void run() {
    for (const Step step : script) {
      Fd conn(::accept(listener.get(), nullptr, nullptr));
      if (!conn.valid()) return;  // listener torn down: test is over
      ++connections;
      // Read until one whole frame decodes (the request).
      FrameDecoder decoder;
      Frame request;
      bool have_request = false;
      std::string error;
      while (!have_request) {
        std::uint8_t buf[4096];
        const long n = recv_some(conn.get(), buf, sizeof(buf), 5000, &error);
        if (n <= 0) break;
        decoder.feed(buf, static_cast<std::size_t>(n));
        if (decoder.pop(&request) == FrameDecoder::Status::kFrame) {
          have_request = true;
        }
      }
      if (!have_request) continue;
      ++requests;
      const Frame reply = step == Step::kPong
                              ? service::make_pong()
                              : service::make_busy("shedding", busy_hint_ms);
      const std::vector<std::uint8_t> bytes = encode_frame(reply);
      send_all(conn.get(), bytes.data(), bytes.size(), &error);
      // kBusyThenClose: the Fd destructor closes the connection right after
      // the Busy flushes -- precisely the race under test.
    }
  }

  std::vector<Step> script;
  std::uint64_t busy_hint_ms = 150;
  Fd listener;
  std::uint16_t port = 0;
  std::thread thread;
  std::atomic<int> connections{0};
  std::atomic<int> requests{0};
};

std::optional<std::uint64_t> busy_hint(const Frame& frame) {
  const auto busy = service::parse_busy(frame);
  if (!busy.has_value()) return std::nullopt;
  return busy->retry_after_ms;
}

TEST(ClientBackoff, BusyThenCloseRearmsBackoffInsteadOfSpinning) {
  if (!net_supported()) GTEST_SKIP() << "no socket support";
  using Step = ScriptedServer::Step;
  ScriptedServer server(
      {Step::kBusyThenClose, Step::kBusyThenClose, Step::kPong});

  ClientOptions options;
  options.port = server.port;
  options.connect_retry.max_retries = 8;
  options.connect_retry.initial_backoff_ms = 10;
  Client client(options);

  util::RetryOptions retry;
  retry.max_retries = 5;
  retry.initial_backoff_ms = 20;  // overridden by the server's 150ms hint
  retry.jitter = 0.0;

  std::string error;
  const auto start = std::chrono::steady_clock::now();
  const auto reply =
      client.call_backoff(service::make_ping(), busy_hint, retry, &error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->type, static_cast<std::uint32_t>(service::MsgType::kPong));

  // Two Busy replies were served, each followed by a close; the final Pong
  // makes three requests.  A spinning client would hammer out reconnects
  // and requests far beyond the script.
  EXPECT_EQ(server.requests.load(), 3);
  EXPECT_EQ(server.connections.load(), 3);

  // The backoff must actually have been slept: the first retry honours the
  // 150ms hint and the second the grown (>= hint) backoff.  Spinning would
  // finish in single-digit milliseconds.
  EXPECT_GE(elapsed.count(), 300);
}

TEST(ClientBackoff, FinalBusyIsReturnedAfterRetriesExhaust) {
  if (!net_supported()) GTEST_SKIP() << "no socket support";
  using Step = ScriptedServer::Step;
  // Never relents: every attempt gets Busy + close.
  ScriptedServer server({Step::kBusyThenClose, Step::kBusyThenClose,
                         Step::kBusyThenClose, Step::kBusyThenClose});
  server.busy_hint_ms = 30;

  ClientOptions options;
  options.port = server.port;
  options.connect_retry.max_retries = 8;
  options.connect_retry.initial_backoff_ms = 10;
  Client client(options);

  // 1 initial call + up to (1 + max_retries) loop attempts = 4 requests,
  // exactly the script length -- a 5th would hang on an unanswered accept.
  util::RetryOptions retry;
  retry.max_retries = 2;
  retry.initial_backoff_ms = 20;
  retry.jitter = 0.0;

  std::string error;
  const auto reply =
      client.call_backoff(service::make_ping(), busy_hint, retry, &error);
  // The contract: the last reply comes back even when it is still Busy --
  // the caller decides how to report it.  No transport error, no spin.
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->type, static_cast<std::uint32_t>(service::MsgType::kBusy));
  EXPECT_LE(server.requests.load(), 4);
}

}  // namespace
}  // namespace ftb::net
