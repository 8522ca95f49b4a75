#include "campaign/supervisor.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

#include "telemetry/events.h"

namespace ftb::campaign {

namespace {

fi::ExperimentResult quarantine_result() {
  fi::ExperimentResult result;
  result.outcome = fi::Outcome::kCrash;
  result.crash_reason = fi::CrashReason::kQuarantined;
  result.injected_error = std::numeric_limits<double>::infinity();
  result.output_error = std::numeric_limits<double>::infinity();
  result.crash_site = 0;
  return result;
}

}  // namespace

CampaignSupervisor::CampaignSupervisor(const fi::Program& program,
                                       const fi::GoldenRun& golden,
                                       SupervisorOptions options)
    : program_(program),
      golden_(golden),
      options_(std::move(options)),
      pool_(program, golden,
            [&] {
              fi::WorkerPoolOptions pool_options = options_.pool;
              // A chunk must fit the worker-side slot arrays.
              pool_options.chunk_capacity = std::max(
                  pool_options.chunk_capacity, options_.chunk_size);
              // A supervised campaign must always carry a deadline: 0 would
              // disable hang detection and let one poisoned flip hang the
              // whole campaign (see SandboxOptions::timeout_ms).
              if (pool_options.heartbeat_timeout_ms == 0) {
                pool_options.heartbeat_timeout_ms = kFallbackDeadlineMs;
              }
              if (pool_options.telemetry == nullptr) {
                pool_options.telemetry = options_.telemetry;
              }
              return pool_options;
            }()) {
  if (options_.chunk_size == 0) options_.chunk_size = 1;
  if (options_.quarantine_after < 1) options_.quarantine_after = 1;
}

CampaignSupervisor::~CampaignSupervisor() = default;

int CampaignSupervisor::kill_count(ExperimentId id) const noexcept {
  const auto it = ledger_.find(id);
  return it != ledger_.end() ? it->second : 0;
}

SupervisorStats CampaignSupervisor::stats() const {
  SupervisorStats s = stats_;
  s.pool = pool_.stats();
  return s;
}

std::vector<ExperimentRecord> CampaignSupervisor::run(
    std::span<const ExperimentId> ids) {
  std::vector<ExperimentRecord> records(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) records[i].id = ids[i];
  if (ids.empty()) return records;

  telemetry::Telemetry* const tele = options_.telemetry;
  telemetry::SpanScope run_span(tele, "supervisor.run", "supervisor");
  run_span.arg("experiments", static_cast<double>(ids.size()));

  const int quarantine_after = options_.quarantine_after;

  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < ids.size(); ++i) pending.push_back(i);

  // Chunk entries dispatched to each worker slot, by position in `ids`.
  // Sized generously: slot indices are stable even after the pool shrinks.
  std::vector<std::vector<std::size_t>> assigned(
      static_cast<std::size_t>(std::max(options_.pool.workers, 1)));
  std::size_t outstanding = 0;  // dispatched, not yet resolved by an event

  const auto record_quarantined = [&](std::size_t index) {
    records[index].result = quarantine_result();
    ++stats_.quarantined;
    if (telemetry::active(tele)) {
      const ExperimentId id = ids[index];
      tele->instant("supervisor.quarantine", "supervisor",
                    {{"site", static_cast<double>(site_of(id))},
                     {"bit", static_cast<double>(bit_of(id))}});
      tele->metrics().counter("supervisor.quarantines").add();
    }
  };

  const auto note_requeue = [&](std::size_t index) {
    ++stats_.experiments_requeued;
    if (telemetry::active(tele)) {
      const ExperimentId id = ids[index];
      tele->instant("supervisor.requeue", "supervisor",
                    {{"site", static_cast<double>(site_of(id))},
                     {"bit", static_cast<double>(bit_of(id))}});
      tele->metrics().counter("supervisor.requeues").add();
    }
  };

  while (!pending.empty() || outstanding > 0) {
    // Degradation endpoint: every worker slot abandoned.  Deaths always
    // requeue their chunk before the count can drop, so nothing is
    // outstanding here.
    if (pool_.worker_count() == 0 && outstanding == 0) {
      if (!options_.allow_in_process_fallback) {
        throw std::runtime_error(
            "campaign supervisor: worker pool is empty and in-process "
            "fallback is disabled");
      }
      while (!pending.empty()) {
        const std::size_t index = pending.front();
        pending.pop_front();
        const ExperimentId id = ids[index];
        if (kill_count(id) > 0) {
          // This experiment has killed a worker before; running it without
          // isolation could take the whole campaign down.
          record_quarantined(index);
        } else {
          records[index].result =
              fi::run_injected(program_, golden_, injection_of(id));
          ++stats_.fallback_experiments;
          if (telemetry::active(tele)) {
            tele->metrics().counter("supervisor.fallback_experiments").add();
          }
        }
      }
      break;
    }

    // Dispatch chunks to every idle worker.
    bool dispatched = false;
    while (!pending.empty() && pool_.worker_count() > 0) {
      std::vector<std::size_t> chunk_indices;
      std::vector<fi::Injection> chunk;
      while (!pending.empty() && chunk_indices.size() < options_.chunk_size) {
        const std::size_t index = pending.front();
        if (kill_count(ids[index]) >= quarantine_after) {
          pending.pop_front();
          record_quarantined(index);
          continue;
        }
        pending.pop_front();
        chunk_indices.push_back(index);
        chunk.push_back(injection_of(ids[index]));
      }
      if (chunk_indices.empty()) break;
      const int worker = pool_.try_dispatch(chunk);
      if (worker < 0) {
        // All workers busy (or the pool just emptied): put the chunk back
        // in order and wait for events.
        for (auto it = chunk_indices.rbegin(); it != chunk_indices.rend();
             ++it) {
          pending.push_front(*it);
        }
        break;
      }
      assigned[static_cast<std::size_t>(worker)] = std::move(chunk_indices);
      outstanding += assigned[static_cast<std::size_t>(worker)].size();
      ++stats_.chunks_dispatched;
      dispatched = true;
    }

    const std::vector<fi::WorkerEvent> events = pool_.poll();
    for (const fi::WorkerEvent& event : events) {
      std::vector<std::size_t>& chunk =
          assigned[static_cast<std::size_t>(event.worker)];
      // Results the worker published before finishing/dying are valid
      // regardless of how it ended.
      for (std::size_t pos = 0; pos < event.done && pos < chunk.size();
           ++pos) {
        records[chunk[pos]].result = event.results[pos];
      }

      if (event.kind != fi::WorkerEvent::Kind::kChunkDone) {
        if (event.kind == fi::WorkerEvent::Kind::kWorkerDeath) {
          ++stats_.worker_deaths;
        } else {
          ++stats_.worker_hangs;
        }
        // The culprit (in-flight experiment, if any) is charged on the
        // ledger: quarantined at K kills, retried below that.  Everything
        // after it never ran and is requeued uncharged.
        std::size_t requeue_from = event.done;
        if (event.culprit != fi::WorkerEvent::kNoCulprit &&
            event.culprit < chunk.size()) {
          const std::size_t culprit_index = chunk[event.culprit];
          const int kills = ++ledger_[ids[culprit_index]];
          if (kills >= quarantine_after) {
            record_quarantined(culprit_index);
          } else {
            pending.push_back(culprit_index);
            note_requeue(culprit_index);
          }
          requeue_from = event.culprit + 1;
        }
        for (std::size_t pos = requeue_from; pos < chunk.size(); ++pos) {
          pending.push_back(chunk[pos]);
          note_requeue(chunk[pos]);
        }
      }

      outstanding -= chunk.size();
      chunk.clear();
    }

    if (telemetry::active(tele)) {
      auto& metrics = tele->metrics();
      metrics.gauge("supervisor.queue_depth")
          .set(static_cast<double>(pending.size() + outstanding));
      metrics.gauge("pool.workers")
          .set(static_cast<double>(pool_.worker_count()));
    }

    if (events.empty() && !dispatched && (!pending.empty() || outstanding > 0)) {
      pool_.wait(options_.poll_interval_us);
    }
  }

  return records;
}

}  // namespace ftb::campaign
