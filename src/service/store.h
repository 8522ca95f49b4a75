// In-memory boundary store for the ftb_served query plane.
//
// An entry bundles a deserialized FaultToleranceBoundary with the golden
// run of the program it was built for (prediction queries need the golden
// value at each site).  Every key of one program configuration (all seeds
// of one kernel@preset) has the same golden run, so the store builds it
// once per config key and its entries share it.  Entries are immutable
// once built and handed out as shared_ptr snapshots: a query thread keeps
// its snapshot alive for the duration of one request while loads and
// campaign publications swap the map under a brief mutex, so queries never
// block on a directory scan or a finishing campaign.
//
// Keys are "<kernel>@<preset>@<seed>" and double as file stems: the store
// directory holds "<key>.boundary" artifacts (boundary/serialize framing)
// and the campaign plane writes resumable journals next to them as
// "<key>.clog".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "boundary/boundary.h"
#include "fi/executor.h"
#include "fi/phase_map.h"
#include "telemetry/events.h"

namespace ftb::service {

struct StoreKey {
  std::string kernel;
  std::string preset;
  std::uint64_t seed = 1;

  std::string str() const;
};

/// Parses "<kernel>@<preset>@<seed>"; nullopt (with diagnostic) on
/// malformed input.
std::optional<StoreKey> parse_store_key(const std::string& text,
                                        std::string* error = nullptr);

/// One configuration's golden run and the phase map built from it,
/// immutable and shared by every entry of that configuration.
struct GoldenReference {
  fi::GoldenRun run;
  fi::PhaseMap phases;
};

struct StoreEntry {
  StoreKey key;
  std::string config_key;
  boundary::FaultToleranceBoundary boundary;
  std::shared_ptr<const GoldenReference> golden;
  /// Per-site detector coverage (detected / (detected + SDC)), present only
  /// for entries published by a detector-armed campaign in this process;
  /// boundary artifacts on disk do not persist it.  Empty = unknown, and
  /// the phase report omits its coverage column.
  std::vector<double> coverage_profile;
};

class BoundaryStore {
 public:
  explicit BoundaryStore(telemetry::Telemetry* telemetry = nullptr)
      : telemetry_(telemetry) {}

  /// Loads every "*.boundary" file in `dir` (non-recursive).  Corrupt
  /// artifacts, unparsable file stems, unknown kernels, and config-key
  /// mismatches are rejected with one diagnostic line each appended to
  /// `diagnostics`; good entries replace same-key entries already present.
  /// Returns the number of entries loaded.  A missing directory is not an
  /// error (zero entries, one diagnostic).
  std::size_t load_directory(const std::string& dir,
                             std::vector<std::string>* diagnostics = nullptr);

  /// Builds an entry for `key` from a freshly inferred boundary (the
  /// campaign plane calls this when a job finishes) and publishes it.
  /// `coverage_profile`, when non-empty, must have one value per site and
  /// is attached to the entry for phase-report queries.  False (with
  /// diagnostic) when the kernel/preset cannot be constructed.
  bool publish(const StoreKey& key,
               const boundary::FaultToleranceBoundary& boundary,
               std::string* error = nullptr,
               std::vector<double> coverage_profile = {});

  /// Snapshot lookup; nullptr when absent.
  std::shared_ptr<const StoreEntry> find(const std::string& key) const;

  /// Snapshot of all entries, key-sorted.
  std::vector<std::shared_ptr<const StoreEntry>> list() const;

  std::size_t size() const;

 private:
  /// Builds an entry for `key`; nullptr (with diagnostic) when the artifact
  /// does not fit the program.  Throws std::invalid_argument for unknown
  /// kernel/preset names (kernels::make_program's contract).
  std::shared_ptr<StoreEntry> build_entry(
      const StoreKey& key, boundary::FaultToleranceBoundary boundary,
      const std::string& expect_config, std::string* error);

  /// The golden run of `program`'s configuration, built on first use.
  std::shared_ptr<const GoldenReference> golden_for(const fi::Program& program);

  void insert(std::shared_ptr<const StoreEntry> entry);

  telemetry::Telemetry* telemetry_ = nullptr;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const StoreEntry>> entries_;
  std::mutex golden_mutex_;  // guards goldens_; queries never take it
  std::map<std::string, std::shared_ptr<const GoldenReference>> goldens_;
};

}  // namespace ftb::service
