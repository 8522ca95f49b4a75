// Tests for the telemetry layer (telemetry/{registry,events,export}.h):
// histogram bucket geometry, lock-free counters under the ThreadPool,
// registry reference stability, null/disabled sink no-ops, golden-string
// exports driven by a ManualClock (deterministic timestamps), and the
// end-to-end supervisor instrumentation -- an induced worker kill must leave
// worker.respawn / supervisor.requeue / supervisor.quarantine events in the
// JSONL stream.
#include "telemetry/events.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/sample_space.h"
#include "campaign/supervisor.h"
#include "fi/executor.h"
#include "kernels/hazard.h"
#include "telemetry/export.h"
#include "telemetry/registry.h"
#include "util/thread_pool.h"

namespace ftb {
namespace {

using telemetry::LatencyHistogram;

TEST(TelemetryHistogram, BucketEdges) {
  // Bucket 0 holds only the value 0; bucket b >= 1 is [2^(b-1), 2^b).
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(7), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(8), 4u);
  EXPECT_EQ(LatencyHistogram::bucket_of(UINT64_MAX), 64u);
  static_assert(LatencyHistogram::kBuckets == 65);

  EXPECT_EQ(LatencyHistogram::bucket_floor(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_floor(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_floor(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_floor(3), 4u);
  EXPECT_EQ(LatencyHistogram::bucket_floor(64), std::uint64_t{1} << 63);

  // Round-trip: every value lies in [bucket_floor(b), bucket_floor(b + 1)).
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{1023}, std::uint64_t{1024}, std::uint64_t{999999999}}) {
    const std::size_t bucket = LatencyHistogram::bucket_of(value);
    EXPECT_GE(value, LatencyHistogram::bucket_floor(bucket)) << value;
    if (bucket < 64) {
      EXPECT_LT(value, LatencyHistogram::bucket_floor(bucket + 1)) << value;
    }
  }
}

TEST(TelemetryHistogram, RecordTracksCountSumMinMax) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), UINT64_MAX);  // sentinel while empty
  EXPECT_EQ(hist.max(), 0u);

  hist.record(0);
  hist.record(1);
  hist.record(5);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum(), 6u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 5u);
  EXPECT_EQ(hist.bucket_count(0), 1u);  // 0
  EXPECT_EQ(hist.bucket_count(1), 1u);  // 1
  EXPECT_EQ(hist.bucket_count(3), 1u);  // 5 in [4, 8)
  EXPECT_EQ(hist.bucket_count(2), 0u);
}

TEST(TelemetryRegistry, ReturnsStableReferencesForSameName) {
  telemetry::MetricsRegistry registry;
  EXPECT_EQ(&registry.counter("x"), &registry.counter("x"));
  EXPECT_EQ(&registry.gauge("x"), &registry.gauge("x"));
  EXPECT_EQ(&registry.histogram("x"), &registry.histogram("x"));
  EXPECT_NE(&registry.counter("x"), &registry.counter("y"));
}

TEST(TelemetryRegistry, ConcurrentIncrementsUnderThreadPoolLoseNothing) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter = registry.counter("test.count");
  LatencyHistogram& hist = registry.histogram("test.hist");

  constexpr std::size_t kIters = 200000;
  util::ThreadPool pool(4);
  pool.parallel_for(0, kIters, [&](std::size_t i) {
    counter.add();
    hist.record(i % 7);
  });
  EXPECT_EQ(counter.value(), kIters);
  EXPECT_EQ(hist.count(), kIters);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    bucket_total += hist.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, kIters);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 6u);
}

TEST(TelemetryEvents, NullAndDisabledSinksAreInertNoOps) {
  EXPECT_FALSE(telemetry::active(nullptr));
  {
    // SpanScope on a null sink must be safe to construct and annotate.
    telemetry::SpanScope span(nullptr, "x", "y");
    span.arg("k", 1.0);
  }

  telemetry::Telemetry sink;  // disabled by default: the off-switch IS the default
  EXPECT_FALSE(telemetry::active(&sink));
  {
    telemetry::SpanScope span(&sink, "x", "y");
    span.arg("k", 1.0);
  }
  sink.instant("a", "b");
  sink.record_span("c", "d", 0, 10);
  EXPECT_TRUE(sink.events().empty());

  sink.set_enabled(true);
  EXPECT_TRUE(telemetry::active(&sink));
  sink.instant("a", "b");
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(TelemetryEvents, EventsOffSinkStillCountsMetricsAndHoldsNoEvents) {
  telemetry::Telemetry sink;
  sink.set_enabled(true);
  sink.set_events_enabled(false);
  EXPECT_TRUE(telemetry::active(&sink));
  {
    telemetry::SpanScope span(&sink, "x", "y");
    span.arg("k", 1.0);
  }
  sink.instant("a", "b");
  sink.record_span("c", "d", 0, 10);
  sink.metrics().counter("jobs.completed").add(3);
  sink.metrics().histogram("pool.chunk_round_trip_ns").record(40);
  sink.metrics().gauge("pool.workers").set(2.0);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.metrics().counter("jobs.completed").value(), 3u);
  EXPECT_EQ(sink.metrics().histogram("pool.chunk_round_trip_ns").count(), 1u);
  EXPECT_EQ(sink.metrics().gauge("pool.workers").value(), 2.0);

  sink.set_events_enabled(true);
  sink.instant("a", "b");
  EXPECT_EQ(sink.events().size(), 1u);
}

// Each thread records on its own trace track: threads are numbered per
// sink, 0 first, in the order of their first event.
TEST(TelemetryEvents, EachThreadRecordsOnItsOwnTrack) {
  telemetry::Telemetry sink;
  sink.set_enabled(true);
  sink.record_span("first", "t", 0, 10);
  std::thread([&] {
    telemetry::SpanScope span(&sink, "second", "t");
    sink.instant("second.instant", "t");
  }).join();
  sink.instant("first.instant", "t");
  const std::vector<telemetry::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].tid, 0u);
  EXPECT_EQ(events[1].tid, 1u);  // second.instant
  EXPECT_EQ(events[2].tid, 1u);  // the second thread's span
  EXPECT_EQ(events[3].tid, 0u);

  telemetry::Telemetry other;
  other.set_enabled(true);
  std::thread([&] { other.instant("x", "t"); }).join();
  EXPECT_EQ(other.events().front().tid, 0u);
}

TEST(TelemetryExport, GoldenJsonlAndChromeTraceUnderManualClock) {
  telemetry::ManualClock clock;
  telemetry::Telemetry sink(&clock);
  sink.set_enabled(true);

  clock.set_ns(1000);
  {
    telemetry::SpanScope span(&sink, "round", "campaign");
    span.arg("picked", 128.0);
    clock.set_ns(3500);
  }
  clock.set_ns(4200);
  sink.instant("death", "pool");

  const std::vector<telemetry::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 2u);

  EXPECT_EQ(telemetry::events_to_jsonl(events),
            "{\"kind\":\"span\",\"name\":\"round\",\"cat\":\"campaign\","
            "\"ts_ns\":1000,\"dur_ns\":2500,\"tid\":0,"
            "\"args\":{\"picked\":128}}\n"
            "{\"kind\":\"instant\",\"name\":\"death\",\"cat\":\"pool\","
            "\"ts_ns\":4200,\"tid\":0,\"args\":{}}\n");

  EXPECT_EQ(telemetry::events_to_chrome_trace(events),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"round\",\"cat\":\"campaign\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":0,\"ts\":1.0,\"dur\":2.5,\"args\":{\"picked\":128}},\n"
            "{\"name\":\"death\",\"cat\":\"pool\",\"ph\":\"i\",\"pid\":1,"
            "\"tid\":0,\"ts\":4.2,\"s\":\"g\",\"args\":{}}\n"
            "]}\n");
}

TEST(TelemetryExport, GoldenMetricsJson) {
  telemetry::MetricsRegistry registry;
  registry.counter("a.b").add(3);
  registry.gauge("g").set(1.5);
  LatencyHistogram& hist = registry.histogram("h");
  hist.record(0);
  hist.record(1);
  hist.record(5);

  EXPECT_EQ(telemetry::metrics_to_json(registry.snapshot()),
            "{\n"
            "  \"schema\": \"ftb.telemetry.metrics/1\",\n"
            "  \"counters\": {\n"
            "    \"a.b\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g\": 1.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h\": {\"count\": 3, \"sum\": 6, \"min\": 0, \"max\": 5, "
            "\"buckets\": [[0, 1], [1, 1], [4, 1]]}\n"
            "  }\n"
            "}\n");

  // An empty registry still produces the schema envelope.
  telemetry::MetricsRegistry empty;
  EXPECT_EQ(telemetry::metrics_to_json(empty.snapshot()),
            "{\n"
            "  \"schema\": \"ftb.telemetry.metrics/1\",\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(TelemetryExport, JsonEscapeHandlesControlAndQuoteCharacters) {
  EXPECT_EQ(telemetry::json_escape("plain"), "plain");
  EXPECT_EQ(telemetry::json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(telemetry::json_escape(std::string("\x01", 1)), "\\u0001");
}

// ---------------------------------------------------------------------------
// End-to-end: supervisor instrumentation under an induced worker kill
// ---------------------------------------------------------------------------

TEST(TelemetrySupervisor, WorkerKillEmitsRespawnRequeueAndQuarantineEvents) {
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  ASSERT_DOUBLE_EQ(golden.trace[program.offset_site(1)], 5.0);

  const std::vector<campaign::ExperimentId> ids = {
      campaign::encode(0, 1),                        // benign
      campaign::encode(program.offset_site(1), 61),  // SIGSEGV every attempt
      campaign::encode(1, 2),                        // benign
  };

  telemetry::Telemetry sink;
  sink.set_enabled(true);
  campaign::SupervisorOptions options;
  options.pool.workers = 2;
  options.quarantine_after = 2;  // death 1 -> requeue, death 2 -> quarantine
  options.telemetry = &sink;
  campaign::CampaignSupervisor supervisor(program, golden, options);
  const std::vector<campaign::ExperimentRecord> records = supervisor.run(ids);

  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].result.crash_reason, fi::CrashReason::kQuarantined);

  // The JSONL stream carries the whole story: initial spawns, the respawn
  // after each kill, the requeue of the blamed experiment, the quarantine.
  const std::string jsonl = telemetry::events_to_jsonl(sink.events());
  EXPECT_NE(jsonl.find("\"name\":\"worker.spawn\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"worker.respawn\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"worker.death\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"supervisor.requeue\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"supervisor.quarantine\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"supervisor.run\""), std::string::npos);

  telemetry::MetricsRegistry& metrics = sink.metrics();
  EXPECT_EQ(metrics.counter("pool.spawns").value(), 2u);
  EXPECT_EQ(metrics.counter("pool.respawns").value(), 2u);
  EXPECT_EQ(metrics.counter("pool.worker_deaths").value(), 2u);
  // At least the blamed experiment is requeued after the first kill;
  // innocent chunk-mates in flight on the dead worker are requeued too,
  // so this is a floor, not an exact count.
  EXPECT_GE(metrics.counter("supervisor.requeues").value(), 1u);
  EXPECT_EQ(metrics.counter("supervisor.quarantines").value(), 1u);

  // And the exported Chrome trace stays a single well-formed JSON document.
  const std::string trace = telemetry::events_to_chrome_trace(sink.events());
  EXPECT_EQ(trace.front(), '{');
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
}

}  // namespace
}  // namespace ftb
