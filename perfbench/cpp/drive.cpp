#include "drive.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "boundary/serialize.h"
#include "inprocess.h"
#include "kernels/registry.h"
#include "net/client.h"
#include "plan.h"
#include "proc.h"
#include "sections/section.h"
#include "service/protocol.h"
#include "service/store.h"
#include "telemetry/export.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace net = ftb::net;
namespace service = ftb::service;
using Clock = std::chrono::steady_clock;
using service::MsgType;

// Fixed seeds of the warm keys and the canary ops; derived job seeds are
// >= kDerivedSeedBit, so a job never publishes over a key that is queried.
constexpr std::uint64_t kCanarySeed = 7;
constexpr std::uint64_t kCampaignBatch = 20000;
constexpr std::uint64_t kSectionBatch = 1000;
constexpr std::uint64_t kFixtureBatch = 20000;
// The campaign workload's open-loop predict trickle, in queries per second.
constexpr double kTrickleHz = 200.0;
// PredictFlips a recompose edit sends on the key it re-published; the first
// closes the op.
constexpr std::size_t kRecomposeQueries = 16;
constexpr std::size_t kStreamDraws = std::size_t{1} << 16;
constexpr std::size_t kCanaryDraws = 1000;
// Ops replayed by the traced run.
constexpr std::size_t kTraceCampaignOps = 2;
constexpr std::size_t kTraceRecomposeOps = 16;
// The recompose phase stops after this many edits even before its deadline,
// so no edit finds its section's budget spent (8 sections hold 8 x 999
// edits; about 850 fit in 30 s today).  Each edit runs one experiment fewer
// than the edit of its section before it, so late edits do slightly less
// work; every op reports its budget.
constexpr std::uint64_t kMaxEdits = 4000;
constexpr std::uint32_t kOpTimeoutMs = 120000;
constexpr std::uint32_t kQueryTimeoutMs = 10000;
// Stretches of the recompose phase that are ranked by host steal.
constexpr std::chrono::seconds kWindow{3};
// Daemon boots per run; setup_s is their median.  A boot takes about 4 ms;
// a recompose boot also composes the plan (about 0.3 s), so it has fewer.
constexpr int kBoots = 50;
constexpr int kRecomposeBoots = 15;

/// The percentile each workload reports as op_tail_ms and query_tail_us;
/// the steadiness study in README.md chose them.  0 means the run's
/// maximum: a campaign run has too few ops for any percentile with ten
/// samples beyond it.
struct Tails {
  double op = 0.0;
  double query = 0.0;
};

Tails tails_of(const std::string& workload) {
  if (workload == "campaign") return {0.0, 90.0};
  if (workload == "recompose") return {90.0, 90.0};
  return {95.0, 95.0};
}

const std::vector<std::string> kLayerMetrics = {
    "service.submit_ack_ms",       "fi.golden_ms",
    "fi.golden_instructions",      "fi.pool_spawn_ms",
    "fi.pool_teardown_ms",         "campaign.exec_ms",
    "campaign.exec_us_per_experiment", "campaign.experiments",
    "campaign.masked_share",       "campaign.journal_flush_ms",
    "campaign.journal_flushes",    "campaign.journal_bytes",
    "boundary.replay_ms",          "boundary.replayed_experiments",
    "boundary.save_ms",            "boundary.artifact_bytes",
    "service.publish_ms",          "sections.carve_ms",
    "sections.record_ms",          "sections.replayed_experiments",
    "sections.compose_ms",         "sections.save_ms",
    "sections.artifact_bytes",     "sections.dirty",
    "sections.reused",             "campaign.cpu_ms_per_op",
    "service.loop_cpu_us_per_query", "service.codec_us",
    "boundary.predict_ns",         "client.cpu_us_per_query",
    "query.lateness_ms",           "query.answered",
    "query.busy",                  "query.errors",
    "trace.unaccounted_share",
};

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double median(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *percentile(samples, 50.0, 0);
}

/// `p` of `samples`, or their maximum when p is 0; throws when the sample
/// cannot support the percentile.
double tail(const std::vector<double>& samples, double p, const char* what) {
  if (samples.empty()) throw std::runtime_error(std::string("no samples for ") + what);
  if (p == 0.0) return *std::max_element(samples.begin(), samples.end());
  const std::optional<double> value = percentile(samples, p, kTailSupport);
  if (!value) {
    throw std::runtime_error(std::string(what) + ": " +
                             std::to_string(samples.size()) +
                             " samples cannot support p" + std::to_string(p));
  }
  return *value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void copy_file(const std::string& from, const std::string& to) {
  fs::copy_file(from, to, fs::copy_options::overwrite_existing);
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016" PRIx64, value);
  return text;
}

std::string digest(const std::string& bytes) {
  return std::to_string(bytes.size()) + ":" + hex64(fnv1a64(bytes));
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) out += (out.empty() ? "" : "+") + name;
  return out.empty() ? "-" : out;
}

std::string describe(const net::Frame& frame) {
  if (const auto busy = service::parse_busy(frame)) return "Busy: " + busy->message;
  if (const auto error = service::parse_error(frame)) return "Error: " + error->message;
  return std::string("unexpected ") + service::to_string(static_cast<MsgType>(frame.type));
}

// --- results JSON ----------------------------------------------------------

std::string json_num(double value) {
  if (!std::isfinite(value)) return "null";
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string json_str(const std::string& text) {
  return "\"" + ftb::telemetry::json_escape(text) + "\"";
}

/// Builds one JSON object member by member.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_str(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double value) { return raw(key, json_num(value)); }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, json_str(value));
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : ",") + item;
  return "[" + out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double value : values) items.push_back(json_num(value));
  return json_array(items);
}

// --- query streams ---------------------------------------------------------

/// The replies of one query stream.  Draws cycle; the first reply to each
/// draw is kept, every later reply to it must repeat it byte for byte, and
/// the kept replies are checked against the artifacts after the timed
/// phase.
struct ReplyLog {
  ReplyLog(std::vector<QueryDraw> stream, const std::vector<std::string>& keys)
      : draws(std::move(stream)), first(draws.size()) {
    requests.reserve(draws.size());
    for (const QueryDraw& draw : draws) {
      requests.push_back(request_frame(draw, keys[draw.key]));
    }
  }

  /// Sends query `i` (draw i mod n) and waits for its reply.  Latency runs
  /// from `due` when given (open loop), else from the send.  False when
  /// the connection failed.
  bool call(net::Client& client, std::uint64_t i,
            std::optional<Clock::time_point> due) {
    const std::size_t index = i % draws.size();
    ++sent;
    const Clock::time_point start = Clock::now();
    std::string error;
    std::optional<net::Frame> reply;
    if (client.send(requests[index], &error)) {
      reply = client.recv(&error, kQueryTimeoutMs);
    }
    const Clock::time_point end = Clock::now();
    if (!reply) {
      ++timeouts;
      return false;
    }
    const auto type = static_cast<MsgType>(reply->type);
    if (type == MsgType::kBusy) {
      ++busy;
      return true;
    }
    if (type != MsgType::kPredictFlipOk && type != MsgType::kPredictSiteOk) {
      ++errors;
      return true;
    }
    ++answered;
    latency_us.push_back(ms_between(due.value_or(start), end) * 1e3);
    if (due) lateness_ms.push_back(std::max(0.0, ms_between(*due, start)));
    if (!first[index]) {
      first[index] = std::move(*reply);
    } else if (*first[index] != *reply) {
      ++repeats_differ;
    }
    return true;
  }

  /// Replies that differ from predict_flip / predict_site on `keys`.
  std::uint64_t check(const std::vector<LoadedKey>& keys,
                      std::string* first_error) const {
    std::uint64_t bad = repeats_differ;
    if (repeats_differ > 0 && first_error->empty()) {
      *first_error = "a draw got two different replies";
    }
    for (std::size_t i = 0; i < draws.size(); ++i) {
      if (!first[i]) continue;
      const LoadedKey& key = keys[draws[i].key];
      const std::string error =
          check_reply(draws[i], *first[i], key.boundary, key.trace);
      if (error.empty()) continue;
      ++bad;
      if (first_error->empty()) *first_error = key.key + ": " + error;
    }
    return bad;
  }

  std::uint64_t failed() const { return busy + errors + timeouts; }

  std::vector<QueryDraw> draws;
  std::vector<net::Frame> requests;
  std::vector<std::optional<net::Frame>> first;
  std::uint64_t sent = 0, answered = 0, busy = 0, errors = 0, timeouts = 0;
  std::uint64_t repeats_differ = 0;
  std::vector<double> latency_us;
  std::vector<double> lateness_ms;
  std::uint64_t cpu_ns = 0;
  std::string failure;  ///< why the stream's thread stopped early
};

/// Samples the host's steal counter (CPU time the hypervisor gave to other
/// guests) every 100 ms while the timed phase runs.
class StealMonitor {
 public:
  explicit StealMonitor(int cpu) : thread_([this, cpu] { run(cpu); }) {}
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;
  ~StealMonitor() { stop(); }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Steal ticks per second between the samples around [from, to].
  double rate(Clock::time_point from, Clock::time_point to) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.size() < 2) return 0.0;
    std::size_t a = 0;
    while (a + 1 < samples_.size() && samples_[a + 1].first <= from) ++a;
    std::size_t b = samples_.size() - 1;
    while (b > a + 1 && samples_[b - 1].first >= to) --b;
    const double seconds = ms_between(samples_[a].first, samples_[b].first) / 1e3;
    return seconds > 0.0 ? static_cast<double>(samples_[b].second - samples_[a].second) / seconds
                         : 0.0;
  }

 private:
  void run(int cpu) {
    try {
      pin_thread({cpu});
    } catch (const std::exception&) {
      // Unpinned sampling still works; it only shares a CPU differently.
    }
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.emplace_back(Clock::now(), host_steal_ticks());
      }
      if (stop_.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  mutable std::mutex mutex_;
  std::vector<std::pair<Clock::time_point, std::uint64_t>> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Keeps the event-loop and client CPUs from idling while the phase runs:
/// one SCHED_IDLE thread per CPU spins, and any other thread there preempts
/// it at once.  An idle vCPU halts, and its next wake-up waits for the
/// hypervisor; without this, low-rate query latencies would measure host
/// scheduling rather than the daemon.
class IdlePollers {
 public:
  explicit IdlePollers(const std::vector<int>& cpus) {
    for (const int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        try {
          pin_thread({cpu});
          make_thread_idle_class();
        } catch (const std::exception&) {
          return;  // no poller on this CPU; latencies only get noisier
        }
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;
  ~IdlePollers() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/// The third of `windows` (at least one) with the least host steal per
/// second; ties keep phase order.  The latency metrics pool the samples
/// that complete inside these windows, so a burst of steal in part of a
/// run does not move them (README.md, "Steadiness").
std::vector<Interval> quietest_third(const std::vector<Interval>& windows,
                                     const StealMonitor& steal) {
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    ranked.emplace_back(steal.rate(windows[i].first, windows[i].second), i);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<Interval> quiet;
  for (std::size_t i = 0; i < (windows.size() + 2) / 3; ++i) {
    quiet.push_back(windows[ranked[i].second]);
  }
  return quiet;
}

bool inside(const std::vector<Interval>& windows, Clock::time_point t) {
  return std::any_of(windows.begin(), windows.end(), [t](const Interval& w) {
    return w.first <= t && t <= w.second;
  });
}

net::ClientOptions client_options(std::uint16_t port) {
  net::ClientOptions options;
  options.port = port;
  options.recv_timeout_ms = kQueryTimeoutMs;
  return options;
}

void connect_or_throw(net::Client& client) {
  std::string error;
  if (!client.connect(&error)) throw std::runtime_error("connect: " + error);
}

/// Closed loop on one connection until `deadline`.
void closed_loop(std::uint16_t port, int cpu, ReplyLog& log,
                 Clock::time_point deadline) try {
  pin_thread({cpu});
  net::Client client(client_options(port));
  connect_or_throw(client);
  const std::uint64_t cpu_start = thread_cpu_ns();
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    if (!log.call(client, i, std::nullopt)) {
      client.close();
      client.connect();
    }
  }
  log.cpu_ns = thread_cpu_ns() - cpu_start;
} catch (const std::exception& e) {
  log.failure = e.what();
}

/// Open loop at kTrickleHz from `start` until `stop`: each query is timed
/// from its scheduled send, so a stall also delays the queries behind it.
void trickle(std::uint16_t port, int cpu, ReplyLog& log,
             Clock::time_point start, const std::atomic<bool>& stop) try {
  pin_thread({cpu});
  net::Client client(client_options(port));
  connect_or_throw(client);
  const std::uint64_t cpu_start = thread_cpu_ns();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kTrickleHz));
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due = start + period * static_cast<std::int64_t>(i);
    std::this_thread::sleep_until(due);
    if (stop.load()) break;
    if (!log.call(client, i, due)) {
      client.close();
      client.connect();
    }
  }
  log.cpu_ns = thread_cpu_ns() - cpu_start;
} catch (const std::exception& e) {
  log.failure = e.what();
}

// --- ops -------------------------------------------------------------------

struct OpRecord {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  std::string key;
  std::string section;    ///< recompose: the edited section
  std::string overrides;  ///< recompose: the override state
  std::uint64_t budget = 0;  ///< recompose: the edited section's new budget
  bool ok = false;
  std::string error;        ///< why the op failed (Busy, Error, timeout)
  std::string check_error;  ///< a wrong output
  double op_ms = 0.0;
  double ack_ms = 0.0;
  std::vector<double> query_us;  ///< the queries on the published key, in order
  Clock::time_point begin;
  Clock::time_point end;
  std::string counts;  ///< daemon-reported counts and the artifact digest
};

/// A kernel's golden values, for checking an op's first query.
struct Golden {
  std::string kernel;
  std::vector<double> trace;
};

Golden golden_of(const std::string& kernel) {
  const auto program = ftb::kernels::make_program(
      kernel, ftb::kernels::preset_from_string(kPreset));
  return {kernel, ftb::fi::run_golden(*program).trace};
}

/// Sends a job submission and reads its stream up to the terminal frame.
std::optional<net::Frame> run_job(net::Client& client, const net::Frame& submit,
                                  Clock::time_point start, OpRecord& record,
                                  service::CampaignProgress* last_progress) {
  std::string error;
  if (!client.send(submit, &error)) {
    record.error = "submit: " + error;
    return std::nullopt;
  }
  const std::optional<net::Frame> accepted = client.recv(&error, kQueryTimeoutMs);
  if (!accepted) {
    record.error = "no CampaignAccepted: " + error;
    return std::nullopt;
  }
  if (!service::parse_campaign_accepted(*accepted)) {
    record.error = describe(*accepted);
    return std::nullopt;
  }
  record.ack_ms = ms_between(start, Clock::now());
  for (;;) {
    std::optional<net::Frame> frame = client.recv(&error, kOpTimeoutMs);
    if (!frame) {
      record.error = "job stream ended: " + error;
      return std::nullopt;
    }
    if (const auto progress = service::parse_campaign_progress(*frame)) {
      if (last_progress != nullptr) *last_progress = *progress;
      continue;
    }
    return frame;
  }
}

/// PredictFlips on the key the op just published, closed loop: the first
/// closes the op and is timed into it, the other `count - 1` follow it at
/// once.  Outside the timed intervals every reply is checked against the
/// artifact on disk, and the artifact is kept at `keep`.
void published_queries(net::Client& client, OpRecord& record,
                       Clock::time_point start, std::size_t count,
                       const Golden& golden, const std::string& store,
                       const std::string& keep) {
  ftb::util::Rng rng(mix64(record.seed + record.index));
  std::vector<QueryDraw> draws(count);
  std::vector<net::Frame> replies;
  for (QueryDraw& draw : draws) {
    draw.site = rng.next_below(golden.trace.size());
    draw.bit = static_cast<std::uint32_t>(rng.next_below(64));
    const net::Frame request = request_frame(draw, record.key);
    const Clock::time_point query_start = Clock::now();
    std::string error;
    std::optional<net::Frame> reply;
    if (client.send(request, &error)) reply = client.recv(&error, kQueryTimeoutMs);
    const Clock::time_point end = Clock::now();
    if (!reply) {
      record.error = "query " + std::to_string(replies.size()) + ": " + error;
      return;
    }
    if (reply->type != static_cast<std::uint32_t>(MsgType::kPredictFlipOk)) {
      record.error = "query " + std::to_string(replies.size()) + ": " + describe(*reply);
      return;
    }
    if (replies.empty()) {
      record.begin = start;
      record.end = end;
      record.op_ms = ms_between(start, end);
    }
    record.query_us.push_back(ms_between(query_start, end) * 1e3);
    replies.push_back(std::move(*reply));
  }
  record.ok = true;

  const std::string path = store + "/" + record.key + ".boundary";
  const std::string bytes = read_file(path);
  record.counts += " artifact=" + digest(bytes);
  std::ofstream(keep, std::ios::binary) << bytes;
  std::string diag;
  const auto artifact = ftb::boundary::deserialize(bytes, {}, &diag);
  if (!artifact) {
    record.check_error = "published artifact does not load: " + diag;
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (const std::string bad = check_reply(draws[i], replies[i], *artifact, golden.trace);
        !bad.empty()) {
      record.check_error = "query " + std::to_string(i) + ": " + bad;
      return;
    }
  }
}

OpRecord campaign_op(net::Client& client, std::uint64_t index, std::uint64_t seed,
                     const Golden& golden, const std::string& store,
                     const std::string& keep) {
  OpRecord record;
  record.index = index;
  record.seed = seed;
  record.key = store_key(golden.kernel, seed);
  service::SubmitCampaignReq req;
  req.kernel = golden.kernel;
  req.preset = kPreset;
  req.seed = seed;
  req.batch = kCampaignBatch;
  const Clock::time_point start = Clock::now();
  const std::optional<net::Frame> terminal =
      run_job(client, service::make_submit_campaign(req), start, record, nullptr);
  if (!terminal) return record;
  const auto done = service::parse_campaign_done(*terminal);
  if (!done) {
    record.error = describe(*terminal);
    return record;
  }
  if (!done->ok) {
    record.error = "campaign failed: " + done->error;
    return record;
  }
  char counts[256];
  std::snprintf(counts, sizeof(counts),
                "executed=%" PRIu64 " flushes=%" PRIu64 " masked=%" PRIu64
                " sdc=%" PRIu64 " crash=%" PRIu64 " hang=%" PRIu64
                " detected=%" PRIu64,
                done->executed, done->flushes, done->masked, done->sdc,
                done->crash, done->hang, done->detected);
  record.counts = counts;
  if (done->store_key != record.key) {
    record.check_error = "published under " + done->store_key;
  }
  published_queries(client, record, start, 1, golden, store, keep);
  return record;
}

/// One recompute submission.  `edit` is null for a full compose.
OpRecord recompose_op(net::Client& client, std::uint64_t index,
                      std::uint64_t seed, const Edit* edit, const Golden& golden,
                      const std::string& store, const std::string& keep) {
  OpRecord record;
  record.index = index;
  record.seed = seed;
  record.key = store_key(golden.kernel, seed);
  service::SubmitRecomputeReq req;
  req.kernel = golden.kernel;
  req.preset = kPreset;
  req.seed = seed;
  req.section_batch = kSectionBatch;
  if (edit != nullptr) {
    record.section = edit->section;
    record.overrides = edit->overrides;
    record.budget = edit->budget;
    req.section_batches = edit->overrides;
  }
  service::CampaignProgress tally;
  const Clock::time_point start = Clock::now();
  const std::optional<net::Frame> terminal =
      run_job(client, service::make_submit_recompute(req), start, record, &tally);
  if (!terminal) return record;
  const auto done = service::parse_recompute_done(*terminal);
  if (!done) {
    record.error = describe(*terminal);
    return record;
  }
  if (!done->ok) {
    record.error = "recompute failed: " + done->error;
    return record;
  }
  char counts[160];
  std::snprintf(counts, sizeof(counts),
                "executed=%" PRIu64 " sections=%" PRIu64 " masked=%" PRIu64
                " sdc=%" PRIu64 " crash=%" PRIu64 " hang=%" PRIu64
                " detected=%" PRIu64,
                done->executed, done->sections, tally.masked, tally.sdc,
                tally.crash, tally.hang, tally.detected);
  record.counts = std::string(counts) + " dirty=" + join(done->dirty) +
                  " reused=" + join(done->reused);
  // The workload's shape: an edit dirties exactly its own section.
  if (edit != nullptr &&
      (done->dirty != std::vector<std::string>{edit->section} ||
       done->reused.size() + 1 != done->sections)) {
    record.check_error = "edit of " + edit->section + " recomputed " +
                         join(done->dirty) + " and reused " +
                         std::to_string(done->reused.size());
  }
  if (done->store_key != record.key) {
    record.check_error = "published under " + done->store_key;
  }
  if (edit == nullptr) {
    record.ok = true;  // set-up compose: no query, nothing kept
    record.op_ms = ms_between(start, Clock::now());
    return record;
  }
  published_queries(client, record, start, kRecomposeQueries, golden, store, keep);
  return record;
}

std::string op_json(const OpRecord& op) {
  return JsonObject()
      .num("index", static_cast<double>(op.index))
      .str("seed", std::to_string(op.seed))
      .str("key", op.key)
      .str("section", op.section)
      .str("overrides", op.overrides)
      .num("budget", static_cast<double>(op.budget))
      .raw("ok", op.ok ? "true" : "false")
      .str("error", op.error)
      .str("check_error", op.check_error)
      .num("op_ms", op.op_ms)
      .num("ack_ms", op.ack_ms)
      .raw("query_us", json_numbers(op.query_us))
      .str("counts", op.counts)
      .text();
}

std::vector<double> op_samples(const std::vector<OpRecord>& ops,
                               double OpRecord::*field) {
  std::vector<double> out;
  for (const OpRecord& op : ops) {
    if (op.ok) out.push_back(op.*field);
  }
  return out;
}

bool same_file(const std::string& a, const std::string& b) {
  return fs::exists(a) && fs::exists(b) && read_file(a) == read_file(b);
}

/// Medians over the traced replicas of every layer value they recorded.
LayerSample median_sample(const std::vector<LayerSample>& samples) {
  std::map<std::string, std::vector<double>> values;
  for (const LayerSample& sample : samples) {
    for (const auto& [name, value] : sample) values[name].push_back(value);
  }
  LayerSample out;
  for (const auto& [name, list] : values) out[name] = median(list);
  return out;
}

std::string sample_counts(const LayerSample& sample) {
  std::string out;
  for (const char* name :
       {"campaign.experiments", "campaign.masked", "campaign.journal_flushes",
        "campaign.journal_bytes", "boundary.replayed_experiments",
        "boundary.artifact_bytes", "sections.replayed_experiments",
        "sections.artifact_bytes", "fi.golden_instructions"}) {
    const auto it = sample.find(name);
    if (it == sample.end()) continue;
    out += (out.empty() ? "" : " ") + std::string(name) + "=" + json_num(it->second);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& fixture_keys() {
  static const std::vector<std::string> keys = {
      "cg@default@101", "lu@default@102", "fft@default@103"};
  return keys;
}

void build_fixtures(const std::string& dir) {
  fs::create_directories(dir);
  for (const std::string& key : fixture_keys()) {
    const auto parsed = service::parse_store_key(key);
    CampaignOp op;
    op.kernel = parsed->kernel;
    op.seed = parsed->seed;
    op.batch = kFixtureBatch;
    reference_campaign(op, dir);
    fs::remove(dir + "/" + key + ".clog");
  }
}

void drive(const DriveOptions& o) {
  if (o.cpus.size() != 4) throw std::runtime_error("drive needs four CPUs");
  const bool is_campaign = o.workload == "campaign";
  const bool is_recompose = o.workload == "recompose";
  const bool is_query = o.workload == "query";
  if (!is_campaign && !is_recompose && !is_query) {
    throw std::runtime_error("unknown workload '" + o.workload + "'");
  }
  const int loop_cpu = o.cpus[0];
  // The recompose client shares the event loop's CPU, so its queries time
  // the daemon's query path rather than a wake-up across vCPUs, whose cost
  // changes with where the host places them (README.md, "Steadiness").
  const int client_cpu = is_recompose ? loop_cpu : o.cpus[1];
  const std::vector<int> campaign_cpus = {o.cpus[2], o.cpus[3]};
  const Tails tails = tails_of(o.workload);
  pin_thread({client_cpu});
  const std::uint64_t steal_start = host_steal_ticks();
  std::vector<std::string> check_errors;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) check_errors.push_back(what);
  };
  for (const char* dir : {"ops", "keep", "trace"}) fs::create_directories(o.work + "/" + dir);

  // Warm keys, loaded from the artifacts on disk as the daemon loads them.
  std::vector<LoadedKey> warm;
  std::vector<std::uint64_t> warm_sites;
  if (!is_recompose) {
    for (const std::string& key : fixture_keys()) {
      warm.push_back(load_key(o.fixtures, key));
      warm_sites.push_back(warm.back().trace.size());
    }
  }
  const Golden golden = golden_of(is_recompose ? "fft" : "cg");
  const std::uint64_t plan_seed = job_seed(o.seed, 0);
  std::vector<std::string> section_names;
  if (is_recompose) {
    const auto program = ftb::kernels::make_program(
        "fft", ftb::kernels::preset_from_string(kPreset));
    for (const auto& spec :
         ftb::sections::carve_sections(program->config_key(),
                                       ftb::fi::run_golden(*program))
             .sections) {
      section_names.push_back(spec.name);
    }
  }

  // --- set-up: boot (and for recompose the first full compose), repeated.
  std::vector<double> setup_s;
  std::unique_ptr<ServedProcess> daemon;
  std::string store;
  const int boots = is_recompose ? kRecomposeBoots : kBoots;
  for (int boot = 0; boot < boots; ++boot) {
    if (daemon) daemon->stop();
    store = o.work + "/store-" + std::to_string(boot);
    fs::create_directories(store);
    for (const LoadedKey& key : warm) {
      copy_file(o.fixtures + "/" + key.key + ".boundary",
                store + "/" + key.key + ".boundary");
    }
    const Clock::time_point start = Clock::now();
    daemon = std::make_unique<ServedProcess>(ServedProcess::Options{
        o.served, store, o.work + "/served-" + std::to_string(boot) + ".log",
        loop_cpu, campaign_cpus});
    if (is_recompose) {
      net::Client client(client_options(daemon->port()));
      connect_or_throw(client);
      const OpRecord full =
          recompose_op(client, 0, plan_seed, nullptr, golden, store, "");
      if (!full.ok) throw std::runtime_error("set-up compose: " + full.error);
    }
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  const int pid = daemon->pid();
  if (is_recompose) {
    copy_file(store + "/" + store_key("fft", plan_seed) + ".compose",
              o.work + "/keep/base.compose");
  }

  net::Client client(client_options(daemon->port()));
  connect_or_throw(client);

  // --- canary op on a fixed seed; it is also the untimed warm-up.
  JsonObject canary;
  if (is_campaign) {
    const OpRecord op = campaign_op(client, 0, kCanarySeed, golden, store,
                                    o.work + "/canary.boundary");
    check(op.ok && op.check_error.empty(), "canary: " + op.error + op.check_error);
    canary.str("artifact", "canary.boundary").str("counts", op.counts);
  } else if (is_recompose) {
    const OpRecord full =
        recompose_op(client, 0, kCanarySeed, nullptr, golden, store, "");
    EditSchedule schedule(section_names, kSectionBatch);
    const Edit edit = schedule.next();
    const OpRecord op = recompose_op(client, 0, kCanarySeed, &edit, golden,
                                     store, o.work + "/canary.boundary");
    if (op.ok) {
      copy_file(store + "/" + op.key + ".compose", o.work + "/canary.compose");
    }
    check(full.ok && op.ok && op.check_error.empty(),
          "canary: " + full.error + op.error + op.check_error);
    canary.str("artifact", "canary.boundary").str("counts", op.counts);
  } else {
    ReplyLog log(query_draws(kCanarySeed, warm_sites, kCanaryDraws), fixture_keys());
    std::string replies;
    for (std::uint64_t i = 0; i < kCanaryDraws; ++i) {
      log.call(client, i, std::nullopt);
      if (log.first[i]) {
        replies.append(log.first[i]->payload.begin(), log.first[i]->payload.end());
      }
    }
    std::string error;
    check(log.answered == kCanaryDraws && log.check(warm, &error) == 0,
          "canary queries: " + error);
    canary.str("reply_digest", digest(replies));
  }

  // --- timed phase.
  std::vector<OpRecord> ops;
  std::vector<std::unique_ptr<ReplyLog>> streams;
  std::uint64_t client_cpu_ns = 0;
  const std::uint64_t loop_cpu_start = task_cpu_ns(pid, pid);
  StealMonitor steal(client_cpu);
  std::optional<IdlePollers> pollers(
      std::in_place, is_recompose ? std::vector<int>{loop_cpu}
                                  : std::vector<int>{loop_cpu, client_cpu});
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(o.seconds));
  if (is_query) {
    std::vector<std::thread> threads;
    const std::vector<int> cpus = {client_cpu, campaign_cpus[0]};
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      streams.push_back(std::make_unique<ReplyLog>(
          query_draws(mix64(o.seed + c), warm_sites, kStreamDraws), fixture_keys()));
      threads.emplace_back(closed_loop, daemon->port(), cpus[c],
                           std::ref(*streams.back()), deadline);
    }
    for (std::thread& thread : threads) thread.join();
  } else {
    std::atomic<bool> stop{false};
    std::thread trickler;
    // Stops and joins the trickle on every exit from this block.
    struct JoinTrickle {
      std::atomic<bool>& stop;
      std::thread& thread;
      ~JoinTrickle() {
        stop.store(true);
        if (thread.joinable()) thread.join();
      }
    } join_trickle{stop, trickler};
    if (is_campaign) {
      streams.push_back(std::make_unique<ReplyLog>(
          query_draws(mix64(o.seed), warm_sites, kStreamDraws), fixture_keys()));
      trickler = std::thread(trickle, daemon->port(), client_cpu,
                             std::ref(*streams.back()), start, std::cref(stop));
    }
    const std::uint64_t cpu_start = thread_cpu_ns();
    std::optional<EditSchedule> schedule;
    if (is_recompose) {
      schedule.emplace(section_names, kSectionBatch);
      if (schedule->capacity() < kMaxEdits) {
        throw std::runtime_error("the edit schedule runs out before kMaxEdits");
      }
    }
    for (std::uint64_t k = 0; Clock::now() < deadline && k < kMaxEdits; ++k) {
      const std::string keep = o.work + "/ops/" + std::to_string(k) + ".boundary";
      if (is_campaign) {
        ops.push_back(campaign_op(client, k, job_seed(o.seed, k), golden, store, keep));
      } else {
        const Edit edit = schedule->next();
        ops.push_back(recompose_op(client, k, plan_seed, &edit, golden, store, keep));
        const std::string stem = store + "/" + ops.back().key;
        if (ops.back().ok) {
          copy_file(stem + ".compose", o.work + "/ops/" + std::to_string(k) + ".compose");
        }
        if (ops.back().ok && o.trace && k < kTraceRecomposeOps) {
          copy_file(stem + "." + edit.section + ".clog",
                    o.work + "/keep/" + std::to_string(k) + ".clog");
        }
      }
      if (!ops.back().ok) {  // reconnect for the next op
        client.close();
        client.connect();
      }
    }
    client_cpu_ns = thread_cpu_ns() - cpu_start;
  }
  const Clock::time_point end = Clock::now();
  pollers.reset();
  steal.stop();
  const double loop_cpu_ns = static_cast<double>(task_cpu_ns(pid, pid) - loop_cpu_start);
  const double rss_mb = peak_rss_mb(pid);
  const std::vector<std::string> misplaced =
      threads_outside(pid, pid, campaign_cpus);
  check(misplaced.empty(),
        "daemon threads may run outside the campaign CPUs: " + join(misplaced));
  client.close();
  check(daemon->stop(), "ftb_served did not drain cleanly");
  daemon.reset();

  // --- outputs, checked outside the timed phase.
  std::uint64_t attempted = ops.size();
  std::uint64_t failed = 0;
  std::uint64_t answered = 0, busy = 0, errors = 0;
  // Windows ranked by steal, for the op latencies of the campaign plane:
  // each campaign op, or fixed slices of the recompose phase.  A query is
  // rarely hit by steal, so query latencies (and so every latency of the
  // query workload) pool the whole phase (README.md, "Steadiness").
  std::vector<Interval> windows;
  if (is_campaign) {
    for (const OpRecord& op : ops) {
      if (op.ok) windows.emplace_back(op.begin, op.end);
    }
  } else if (is_recompose) {
    for (Clock::time_point t = start; t + kWindow <= end; t += kWindow) {
      windows.emplace_back(t, t + kWindow);
    }
  }
  const std::vector<Interval> quiet = quietest_third(windows, steal);
  double quiet_steal = 0.0;
  for (const Interval& w : quiet) quiet_steal += steal.rate(w.first, w.second);

  std::vector<double> query_us, op_ms, quiet_op_ms;
  std::vector<double> lateness_ms;
  std::vector<double> budgets, quiet_budgets;
  for (const OpRecord& op : ops) {
    if (!op.ok) ++failed;
    check(op.check_error.empty(), "op " + std::to_string(op.index) + ": " + op.check_error);
    if (!op.ok) continue;
    answered += op.query_us.size();
    const bool in_quiet = inside(quiet, op.end);
    op_ms.push_back(op.op_ms);
    if (in_quiet) quiet_op_ms.push_back(op.op_ms);
    budgets.push_back(static_cast<double>(op.budget));
    if (in_quiet) quiet_budgets.push_back(static_cast<double>(op.budget));
    if (is_recompose) query_us.insert(query_us.end(), op.query_us.begin(), op.query_us.end());
  }
  for (const auto& stream : streams) {
    if (!stream->failure.empty()) throw std::runtime_error("query stream: " + stream->failure);
    attempted += stream->sent;
    failed += stream->failed();
    answered += stream->answered;
    busy += stream->busy;
    errors += stream->errors + stream->timeouts;
    client_cpu_ns += stream->cpu_ns;
    query_us.insert(query_us.end(), stream->latency_us.begin(), stream->latency_us.end());
    lateness_ms.insert(lateness_ms.end(), stream->lateness_ms.begin(),
                       stream->lateness_ms.end());
    std::string error;
    const std::uint64_t bad = stream->check(warm, &error);
    check(bad == 0, std::to_string(bad) + " wrong query replies; first: " + error);
  }
  if (is_query) {  // an op is one query
    for (const double us : query_us) op_ms.push_back(us / 1e3);
  }
  const std::vector<double>& timed_op_ms = is_query ? op_ms : quiet_op_ms;

  // Every tail the pooled samples support, for the steadiness study (study.py).
  const auto candidates = [](const std::vector<double>& samples) {
    JsonObject out;
    for (const double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
      if (const auto value = percentile(samples, p, kTailSupport)) {
        out.num("p" + json_num(p), *value);
      }
    }
    if (!samples.empty()) out.num("max", *std::max_element(samples.begin(), samples.end()));
    return out.text();
  };
  const std::string tail_candidates = JsonObject()
                                          .raw("op_tail_ms", candidates(timed_op_ms))
                                          .raw("query_tail_us", candidates(query_us))
                                          .text();
  const std::string e2e =
      JsonObject()
          .num("setup_s", median(setup_s))
          .num("op_p50_ms", median(timed_op_ms))
          .num("op_tail_ms", tail(timed_op_ms, tails.op, "op_tail_ms"))
          .num("query_p50_us", median(query_us))
          .num("query_tail_us", tail(query_us, tails.query, "query_tail_us"))
          .num("peak_rss_mb", rss_mb)
          .text();
  // The op latency over the whole phase, for the record.
  const std::string whole_phase = JsonObject()
                                      .num("op_p50_ms", median(op_ms))
                                      .num("ops", static_cast<double>(op_ms.size()))
                                      .text();
  const std::string quiet_json =
      JsonObject()
          .num("windows", static_cast<double>(windows.size()))
          .num("quiet_windows", static_cast<double>(quiet.size()))
          .num("quiet_steal_per_s", quiet.empty() ? 0.0 : quiet_steal / static_cast<double>(quiet.size()))
          .num("phase_steal_per_s", steal.rate(start, end))
          .num("quiet_ops", static_cast<double>(quiet_op_ms.size()))
          .num("quiet_budget_p50", median(quiet_budgets))
          .num("phase_budget_p50", median(budgets))
          .raw("whole_phase", whole_phase)
          .text();

  // --- traced run: the same ops again, broken into the public calls.
  JsonObject layers;
  std::vector<std::string> trace_counts;
  if (o.trace) {
    ftb::telemetry::Telemetry telemetry;
    telemetry.set_enabled(true);
    pin_thread(campaign_cpus);  // where the daemon's campaign plane ran
    std::vector<LayerSample> samples;
    if (is_campaign) {
      for (std::size_t k = 0; k < std::min(kTraceCampaignOps, ops.size()); ++k) {
        const std::string dir = o.work + "/trace/" + std::to_string(k);
        fs::create_directories(dir);
        samples.push_back(traced_campaign({"cg", ops[k].seed, kCampaignBatch},
                                          dir, telemetry, k));
        for (const char* ext : {".clog", ".boundary"}) {
          check(same_file(dir + "/" + ops[k].key + ext, store + "/" + ops[k].key + ext),
                "traced op " + std::to_string(k) + " " + ext + " differs from the daemon's");
        }
        trace_counts.push_back(sample_counts(samples.back()));
      }
    } else if (is_recompose) {
      for (std::size_t k = 0; k < std::min(kTraceRecomposeOps, ops.size()); ++k) {
        const std::string dir = o.work + "/trace/" + std::to_string(k);
        fs::create_directories(dir);
        const std::string previous =
            k == 0 ? o.work + "/keep/base.compose"
                   : o.work + "/ops/" + std::to_string(k - 1) + ".compose";
        std::vector<std::string> dirty, reused;
        samples.push_back(traced_recompose(
            {"fft", plan_seed, kSectionBatch, ops[k].overrides}, previous, dir,
            telemetry, k, &dirty, &reused));
        samples.back()["sections.dirty"] = static_cast<double>(dirty.size());
        samples.back()["sections.reused"] = static_cast<double>(reused.size());
        const std::string stem = dir + "/" + ops[k].key;
        const std::string kept = o.work + "/ops/" + std::to_string(k);
        check(same_file(stem + ".boundary", kept + ".boundary") &&
                  same_file(stem + ".compose", kept + ".compose") &&
                  same_file(stem + "." + ops[k].section + ".clog",
                            o.work + "/keep/" + std::to_string(k) + ".clog"),
              "traced op " + std::to_string(k) + " differs from the daemon's");
        trace_counts.push_back(sample_counts(samples.back()) + " dirty=" + join(dirty));
      }
    } else {
      LayerSample sample;
      for (const std::string& key : fixture_keys()) {
        const auto parsed = service::parse_store_key(key);
        const auto program = ftb::kernels::make_program(
            parsed->kernel, ftb::kernels::preset_from_string(parsed->preset));
        const std::uint64_t t0 = telemetry.now_ns();
        const ftb::fi::GoldenRun run = ftb::fi::run_golden(*program);
        const std::uint64_t dt = telemetry.now_ns() - t0;
        telemetry.record_span("fi.golden", "fi", t0, dt, {{"op", 0.0}});
        sample["fi.golden_ms"] += static_cast<double>(dt) / 1e6;
        sample["fi.golden_instructions"] += static_cast<double>(run.trace.size());
      }
      samples.push_back(sample);
      trace_counts.push_back(sample_counts(sample));
    }
    LayerSample m = median_sample(samples);

    // The in-process halves of this workload's queries.
    std::vector<LoadedKey> query_keys = warm;
    std::vector<QueryDraw> draws;
    for (const auto& stream : streams) {
      draws.insert(draws.end(), stream->draws.begin(), stream->draws.end());
    }
    if (is_recompose) {
      query_keys = {load_key(o.work + "/trace/0", ops.front().key)};
      draws = query_draws(mix64(o.seed), {golden.trace.size()}, kStreamDraws);
    }
    const QueryCosts costs = time_query_stream(draws, query_keys, telemetry, 0);
    trace_counts.push_back("queries flip=" + std::to_string(costs.flips) +
                           " site=" + std::to_string(costs.sites));

    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double experiments = m["campaign.experiments"];
    m["campaign.exec_us_per_experiment"] = ratio(m["campaign.exec_ms"] * 1e3, experiments);
    m["campaign.masked_share"] = ratio(m["campaign.masked"], experiments);
    m["campaign.cpu_ms_per_op"] = is_query ? 0.0 : m["cpu_ms"];
    m["service.submit_ack_ms"] = median(op_samples(ops, &OpRecord::ack_ms));
    m["service.loop_cpu_us_per_query"] =
        ratio(loop_cpu_ns / 1e3, static_cast<double>(answered));
    m["service.codec_us"] = costs.codec_us;
    m["boundary.predict_ns"] = costs.predict_ns;
    m["client.cpu_us_per_query"] =
        ratio(static_cast<double>(client_cpu_ns) / 1e3, static_cast<double>(answered));
    m["query.lateness_ms"] =
        lateness_ms.empty() ? 0.0 : tail(lateness_ms, tails.query, "query.lateness_ms");
    m["query.answered"] = static_cast<double>(answered);
    m["query.busy"] = static_cast<double>(busy);
    m["query.errors"] = static_cast<double>(errors);
    m["trace.unaccounted_share"] =
        is_query ? 1.0 - ratio(costs.codec_us + costs.predict_ns / 1e3, median(query_us))
                 : 1.0 - ratio(m["traced_ms"], median(quiet_op_ms));
    for (const std::string& name : kLayerMetrics) layers.num(name, m[name]);
    // Whole-replica time not covered by a layer span (program construction,
    // id sampling, record bookkeeping).
    layers.num("replica.op_ms", m["op_ms"]).num("replica.traced_ms", m["traced_ms"]);
    ftb::telemetry::write_chrome_trace(telemetry, o.work + "/trace.json");
  }

  std::vector<std::string> op_items;
  for (const OpRecord& op : ops) op_items.push_back(op_json(op));
  std::vector<std::string> error_items, misplaced_items, count_items;
  for (const std::string& e : check_errors) error_items.push_back(json_str(e));
  for (const std::string& t : misplaced) misplaced_items.push_back(json_str(t));
  for (const std::string& c : trace_counts) count_items.push_back(json_str(c));
  const std::string results =
      JsonObject()
          .str("workload", o.workload)
          .str("seed", std::to_string(o.seed))
          .num("phase_s", ms_between(start, end) / 1e3)
          .raw("setup_s", json_numbers(setup_s))
          .raw("e2e", e2e)
          .raw("quiet", quiet_json)
          .raw("tail_candidates", tail_candidates)
          .num("attempted", static_cast<double>(attempted))
          .num("failed", static_cast<double>(failed))
          .num("queries_answered", static_cast<double>(answered))
          .raw("ops", json_array(op_items))
          .raw("canary", canary.text())
          .raw("check_errors", json_array(error_items))
          .raw("misplaced_threads", json_array(misplaced_items))
          .num("steal_ticks", static_cast<double>(host_steal_ticks() - steal_start))
          .raw("layers", layers.text())
          .raw("trace_counts", json_array(count_items))
          .text();
  std::ofstream(o.out) << results << "\n";
}

}  // namespace perfbench
