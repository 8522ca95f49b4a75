#include "telemetry/events.h"

#include <chrono>

namespace ftb::telemetry {

std::uint64_t SteadyClock::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Telemetry::Telemetry(const Clock* clock)
    : clock_(clock != nullptr ? clock : &default_clock_) {}

void Telemetry::instant(std::string name, std::string category,
                        std::vector<std::pair<std::string, double>> args) {
  if (!enabled() || !events_enabled()) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInstant;
  event.name = std::move(name);
  event.category = std::move(category);
  event.start_ns = now_ns();
  event.args = std::move(args);
  push(std::move(event));
}

void Telemetry::record_span(std::string name, std::string category,
                            std::uint64_t start_ns, std::uint64_t duration_ns,
                            std::vector<std::pair<std::string, double>> args) {
  if (!enabled() || !events_enabled()) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kSpan;
  event.name = std::move(name);
  event.category = std::move(category);
  event.start_ns = start_ns;
  event.duration_ns = duration_ns;
  event.args = std::move(args);
  push(std::move(event));
}

void Telemetry::push(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  event.tid = tids_.try_emplace(std::this_thread::get_id(), tids_.size())
                  .first->second;
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Telemetry::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

}  // namespace ftb::telemetry
