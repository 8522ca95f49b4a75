#pragma once

// Scoped-span event stream with a pluggable clock.
//
// A Telemetry instance owns a MetricsRegistry (counters / gauges / latency
// histograms, see registry.h) plus an append-only stream of TraceEvents
// (spans and instants).  Everything downstream takes a `Telemetry*` that is
// nullptr by default: with a null sink every call collapses to a pointer
// test, so instrumented code pays (almost) nothing when telemetry is off.
//
// Timestamps come from a Clock interface so tests can drive a ManualClock
// and compare exported traces against golden strings.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/registry.h"

namespace ftb::telemetry {

// Monotonic nanosecond clock.  SteadyClock wraps std::chrono::steady_clock;
// ManualClock is fully deterministic for tests and golden-file exports.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::uint64_t now_ns() const = 0;
};

class SteadyClock final : public Clock {
 public:
  std::uint64_t now_ns() const override;
};

class ManualClock final : public Clock {
 public:
  std::uint64_t now_ns() const override { return now_.load(std::memory_order_relaxed); }
  void set_ns(std::uint64_t ns) { now_.store(ns, std::memory_order_relaxed); }
  void advance_ns(std::uint64_t ns) { now_.fetch_add(ns, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> now_{0};
};

struct TraceEvent {
  enum class Kind { kSpan, kInstant };

  Kind kind = Kind::kInstant;
  std::string name;
  std::string category;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;  // spans only
  // The recording thread: threads are numbered per sink, 0 first, in the
  // order of their first event.
  std::uint64_t tid = 0;
  // Small numeric payload ("round": 3, "picked": 128, ...).  Doubles keep the
  // export simple; counts up to 2^53 round-trip exactly.
  std::vector<std::pair<std::string, double>> args;
};

// Event + metrics sink.  Thread-safe; all methods are no-ops while disabled.
class Telemetry {
 public:
  // `clock` may be nullptr, in which case an internal SteadyClock is used.
  explicit Telemetry(const Clock* clock = nullptr);

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Whether spans and instants are kept (default on).  A long-lived sink
  // that only serves metrics turns them off: the event stream grows for
  // the sink's whole life, and only a trace export reads it.
  void set_events_enabled(bool on) { events_on_.store(on, std::memory_order_relaxed); }
  bool events_enabled() const { return events_on_.load(std::memory_order_relaxed); }

  const Clock& clock() const { return *clock_; }
  std::uint64_t now_ns() const { return clock_->now_ns(); }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Record an instantaneous event at the current clock time.
  void instant(std::string name, std::string category,
               std::vector<std::pair<std::string, double>> args = {});

  // Record a completed span [start_ns, start_ns + duration_ns).
  void record_span(std::string name, std::string category, std::uint64_t start_ns,
                   std::uint64_t duration_ns,
                   std::vector<std::pair<std::string, double>> args = {});

  // Snapshot of all events recorded so far, in insertion order.
  std::vector<TraceEvent> events() const;

 private:
  void push(TraceEvent event);

  SteadyClock default_clock_;
  const Clock* clock_;
  std::atomic<bool> enabled_{false};
  std::atomic<bool> events_on_{true};
  MetricsRegistry metrics_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::unordered_map<std::thread::id, std::uint64_t> tids_;
};

// True when `t` is non-null and enabled: gate for any instrumentation that
// has to do work (string building, clock reads) before calling into the sink.
inline bool active(const Telemetry* t) { return t != nullptr && t->enabled(); }

// RAII span.  Construction stamps the start time, destruction records the
// span.  Null/disabled telemetry makes the whole object a no-op.
class SpanScope {
 public:
  SpanScope(Telemetry* telemetry, std::string name, std::string category)
      : telemetry_(active(telemetry) ? telemetry : nullptr) {
    if (telemetry_ == nullptr) return;
    name_ = std::move(name);
    category_ = std::move(category);
    start_ns_ = telemetry_->now_ns();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Attach a numeric argument to the span (shown in trace viewers).
  void arg(std::string key, double value) {
    if (telemetry_ == nullptr) return;
    args_.emplace_back(std::move(key), value);
  }

  ~SpanScope() {
    if (telemetry_ == nullptr) return;
    const std::uint64_t end_ns = telemetry_->now_ns();
    telemetry_->record_span(std::move(name_), std::move(category_), start_ns_,
                            end_ns - start_ns_, std::move(args_));
  }

 private:
  Telemetry* telemetry_;
  std::string name_;
  std::string category_;
  std::uint64_t start_ns_ = 0;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace ftb::telemetry
