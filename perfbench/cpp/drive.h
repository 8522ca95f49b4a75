// One benchmark run: boot ftb_served on fixed CPUs, run a workload's timed
// phase from this client process, check every output, and write the
// results as JSON for run.py.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct DriveOptions {
  std::string workload;  ///< campaign | recompose | query
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string served;    ///< ftb_served binary
  std::string work;      ///< empty scratch directory for this run
  std::string fixtures;  ///< directory holding the warm-key artifacts
  /// Event loop, client, then the two campaign-plane CPUs.
  std::vector<int> cpus;
  std::string out;       ///< results JSON
};

/// Throws on a failure that leaves no result to report.
void drive(const DriveOptions& options);

/// The warm keys every daemon but the recompose one loads at boot.
const std::vector<std::string>& fixture_keys();

/// Builds the warm-key artifacts into `dir`.
void build_fixtures(const std::string& dir);

}  // namespace perfbench
