#include "campaign/log.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "fi/outcome.h"
#include "util/cache.h"
#include "util/durable_file.h"

namespace ftb::campaign {

namespace {

constexpr std::uint64_t kMagic = 0x4654422d434c4f47ull;  // "FTB-CLOG"
// v2: adds a per-record crash_reason byte and a trailing CRC-32 frame check.
// v3: adds the kDetected outcome and a per-record flags word (bit 0 =
// detector_fired).  v2 logs still load (flags default to 0).
constexpr std::uint64_t kVersion = 3;
constexpr std::uint64_t kMinVersion = 2;

constexpr std::uint64_t kFlagDetectorFired = 1;

std::optional<CampaignLog> fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return std::nullopt;
}

// Masked ids a replay worker claims at a time.  Logs are sorted by id, so
// by site: the longest suffixes come first and are handed out first, and
// the workers finish together on short ones.
constexpr std::size_t kReplayClaim = 8;

/// One replay worker's private state; partials merge by max (and sum).
struct ReplayPartial {
  std::vector<double> best;   // per-site max below the cutoff
  std::vector<double> diffs;  // Compare-mode diff buffer
  double window_max = 0.0;
  std::uint64_t replayed = 0;
  std::uint64_t mismatches = 0;
};

}  // namespace

void CampaignLog::append(std::span<const ExperimentRecord> batch) {
  records_.insert(records_.end(), batch.begin(), batch.end());
}

void CampaignLog::dedupe() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const ExperimentRecord& a, const ExperimentRecord& b) {
                     return a.id < b.id;
                   });
  records_.erase(std::unique(records_.begin(), records_.end(),
                             [](const ExperimentRecord& a,
                                const ExperimentRecord& b) {
                               return a.id == b.id;
                             }),
                 records_.end());
}

void CampaignLog::merge(const CampaignLog& other) {
  if (other.config_key_ != config_key_) {
    throw std::invalid_argument("CampaignLog::merge: config key mismatch ('" +
                                config_key_ + "' vs '" + other.config_key_ +
                                "')");
  }
  append(other.records_);
  dedupe();
}

std::vector<ExperimentId> CampaignLog::ids() const {
  std::vector<ExperimentId> out;
  out.reserve(records_.size());
  for (const ExperimentRecord& record : records_) out.push_back(record.id);
  std::sort(out.begin(), out.end());
  return out;
}

std::string CampaignLog::serialize() const {
  util::BinaryWriter writer;
  writer.put_u64(kMagic);
  writer.put_u64(kVersion);
  writer.put_string(config_key_);
  writer.put_u64(records_.size());
  for (const ExperimentRecord& record : records_) {
    writer.put_u64(record.id);
    writer.put_u64(static_cast<std::uint64_t>(record.result.outcome));
    writer.put_u64(static_cast<std::uint64_t>(record.result.crash_reason));
    writer.put_f64(record.result.injected_error);
    writer.put_f64(record.result.output_error);
    writer.put_u64(record.result.crash_site);
    writer.put_u64(record.result.detector_fired ? kFlagDetectorFired : 0);
  }
  // Trailing CRC-32 of everything written so far, stored as a u64 so the
  // whole file stays 8-byte framed.
  const std::uint32_t crc =
      util::crc32(writer.buffer().data(), writer.buffer().size());
  writer.put_u64(crc);
  return {writer.buffer().begin(), writer.buffer().end()};
}

std::optional<CampaignLog> CampaignLog::deserialize(const std::string& payload,
                                                    std::string* error) {
  // The CRC is checked up front: a frame that fails it is corrupt, and any
  // decode error past this point would only describe a symptom of that.
  if (payload.size() < 4 * 8) {
    return fail(error, "campaign log truncated: " +
                           std::to_string(payload.size()) +
                           " bytes is smaller than the fixed header");
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(payload.data());
  const std::size_t body = payload.size() - 8;
  std::uint64_t stored_crc = 0;
  for (int i = 0; i < 8; ++i) {
    stored_crc |= static_cast<std::uint64_t>(bytes[body + i]) << (8 * i);
  }
  const std::uint32_t actual_crc = util::crc32(bytes, body);
  try {
    util::BinaryReader reader(std::vector<std::uint8_t>(bytes, bytes + body));
    if (reader.get_u64() != kMagic) {
      return fail(error, "campaign log has bad magic (not an FTB-CLOG file)");
    }
    const std::uint64_t version = reader.get_u64();
    if (version < kMinVersion || version > kVersion) {
      return fail(error, "campaign log has unsupported version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kMinVersion) + ".." +
                             std::to_string(kVersion) + ")");
    }
    if (stored_crc != actual_crc) {
      return fail(error,
                  "campaign log CRC mismatch (file is corrupt or was "
                  "truncated mid-write)");
    }
    CampaignLog log(reader.get_string());
    const std::uint64_t count = reader.get_u64();
    log.records_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      ExperimentRecord record;
      record.id = reader.get_u64();
      const std::uint64_t raw = reader.get_u64();
      if (raw > static_cast<std::uint64_t>(fi::Outcome::kDetected)) {
        // Name the value so a v-next log fails readably on this binary.
        return fail(error, "campaign log record " + std::to_string(i) +
                               " has unsupported outcome " +
                               fi::outcome_name(raw) +
                               " (raw value " + std::to_string(raw) +
                               "; this binary knows outcomes up to " +
                               fi::outcome_name(static_cast<std::uint64_t>(
                                   fi::Outcome::kDetected)) +
                               ")");
      }
      record.result.outcome = static_cast<fi::Outcome>(raw);
      const std::uint64_t reason = reader.get_u64();
      if (reason > static_cast<std::uint64_t>(fi::CrashReason::kQuarantined)) {
        return fail(error, "campaign log record " + std::to_string(i) +
                               " has invalid crash reason " +
                               std::to_string(reason));
      }
      record.result.crash_reason = static_cast<fi::CrashReason>(reason);
      record.result.injected_error = reader.get_f64();
      record.result.output_error = reader.get_f64();
      record.result.crash_site = reader.get_u64();
      if (version >= 3) {
        const std::uint64_t flags = reader.get_u64();
        record.result.detector_fired = (flags & kFlagDetectorFired) != 0;
      }
      log.records_.push_back(record);
    }
    return log;
  } catch (const std::runtime_error& e) {
    return fail(error, std::string("campaign log truncated: ") + e.what());
  }
}

bool CampaignLog::save(const std::string& path) const {
  // Durable publish (tmp + fsync + rename + parent-dir fsync): a journal
  // flush is the checkpoint the resume path trusts, so it must survive a
  // crash, not just a concurrent reader.
  return util::write_file_durable(path, serialize());
}

std::optional<CampaignLog> CampaignLog::load(const std::string& path,
                                             std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "cannot open campaign log '" + path + "'");
  const std::string payload{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  std::string detail;
  auto log = deserialize(payload, &detail);
  if (!log) return fail(error, "'" + path + "': " + detail);
  return log;
}

LogEvidence fold_log_evidence(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              const CampaignLog& log,
                              const boundary::AccumulatorOptions& options,
                              util::ThreadPool& pool,
                              telemetry::Telemetry* telemetry,
                              ReplayWindow window) {
  telemetry::SpanScope span(telemetry, "boundary.replay", "boundary");
  const std::size_t sites = golden.trace.size();
  LogEvidence evidence{boundary::BoundaryAccumulator(sites, options), {}, 0.0};

  // Record pass: injected-error evidence straight from the classic records
  // (burst and memory-resident ones describe another fault model).  It runs
  // to completion first, so every site's cutoff is final before the first
  // propagation value is folded.
  std::vector<ExperimentId> masked_ids;
  for (const ExperimentRecord& record : log.records()) {
    if (!is_classic(record.id)) continue;
    evidence.accumulator.record_injection(site_of(record.id),
                                          bit_of(record.id),
                                          record.result.outcome,
                                          record.result.injected_error);
    if (record.result.outcome == fi::Outcome::kMasked) {
      masked_ids.push_back(record.id);
    }
  }
  std::vector<double> cutoff(sites);
  for (std::size_t j = 0; j < sites; ++j) {
    cutoff[j] = evidence.accumulator.propagation_cutoff(j);
  }
  const std::uint64_t window_begin =
      std::min<std::uint64_t>(window.begin, sites);
  const std::uint64_t window_end = std::min<std::uint64_t>(window.end, sites);

  // Replay: diffs are zero before the injection site, so only the suffix
  // is folded.  `v < cutoff` also rejects +inf and NaN.
  std::atomic<std::size_t> next{0};
  const auto replay = [&](ReplayPartial& part) {
    part.best.assign(sites, 0.0);
    part.diffs.resize(sites);
    for (;;) {
      const std::size_t begin = next.fetch_add(kReplayClaim);
      if (begin >= masked_ids.size()) break;
      const std::size_t end =
          std::min(begin + kReplayClaim, masked_ids.size());
      for (std::size_t i = begin; i < end; ++i) {
        const ExperimentId id = masked_ids[i];
        const fi::ExperimentResult result = fi::run_injected_compare(
            program, golden, injection_of(id), part.diffs);
        ++part.replayed;
        if (result.outcome != fi::Outcome::kMasked) {
          ++part.mismatches;  // Algorithm 1 folds masked runs only
          continue;
        }
        const std::uint64_t site = site_of(id);
        for (std::uint64_t j = site; j < sites; ++j) {
          const double v = part.diffs[j];
          part.best[j] = v < cutoff[j] && v > part.best[j] ? v : part.best[j];
        }
        for (std::uint64_t j = std::max(site, window_begin); j < window_end;
             ++j) {
          const double v = part.diffs[j];
          if (std::isfinite(v) && v > part.window_max) part.window_max = v;
        }
      }
    }
  };
  std::vector<ReplayPartial> partials(
      std::min(pool.thread_count(), masked_ids.size()));
  if (partials.size() == 1) {
    replay(partials[0]);
  } else if (partials.size() > 1) {
    for (ReplayPartial& part : partials) {
      pool.submit([&replay, &part] { replay(part); });
    }
    pool.wait_idle();
  }

  ReplayStats& stats = evidence.stats;
  stats.threads = partials.size();
  for (const ReplayPartial& part : partials) {
    evidence.window_max = std::max(evidence.window_max, part.window_max);
    stats.replayed += part.replayed;
    stats.mismatches += part.mismatches;
  }
  for (std::size_t j = 0; j < sites; ++j) {
    double value = 0.0;
    for (const ReplayPartial& part : partials) {
      value = std::max(value, part.best[j]);
    }
    if (value > 0.0) evidence.accumulator.record_masked_value(j, value);
  }

  span.arg("replayed", static_cast<double>(stats.replayed));
  span.arg("threads", static_cast<double>(stats.threads));
  span.arg("mismatches", static_cast<double>(stats.mismatches));
  if (telemetry::active(telemetry)) {
    telemetry->metrics()
        .counter("boundary.replay_mismatches")
        .add(stats.mismatches);
  }
  return evidence;
}

boundary::FaultToleranceBoundary boundary_from_log(
    const fi::Program& program, const fi::GoldenRun& golden,
    const CampaignLog& log, const boundary::AccumulatorOptions& options,
    util::ThreadPool& pool, telemetry::Telemetry* telemetry) {
  if (log.config_key() != program.config_key()) {
    throw std::invalid_argument(
        "boundary_from_log: log was recorded for a different configuration");
  }
  return fold_log_evidence(program, golden, log, options, pool, telemetry)
      .accumulator.finalize();
}

}  // namespace ftb::campaign
