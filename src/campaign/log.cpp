#include "campaign/log.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
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
// v4: the append-only in-flight journal -- a CRC-checked header, then
// CRC-framed batches of v3 records (log.h).
constexpr std::uint64_t kVersion = 3;
constexpr std::uint64_t kMinVersion = 2;
constexpr std::uint64_t kJournalVersion = 4;

constexpr std::uint64_t kFlagDetectorFired = 1;

/// Encoded bytes of one record in v3 and v4 (v2 lacks the flags word).
constexpr std::size_t kRecordBytes = 7 * 8;

std::optional<CampaignLog> fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return std::nullopt;
}

std::uint64_t read_u64(const std::uint8_t* bytes) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

void put_record(util::BinaryWriter& writer, const ExperimentRecord& record) {
  writer.put_u64(record.id);
  writer.put_u64(static_cast<std::uint64_t>(record.result.outcome));
  writer.put_u64(static_cast<std::uint64_t>(record.result.crash_reason));
  writer.put_f64(record.result.injected_error);
  writer.put_f64(record.result.output_error);
  writer.put_u64(record.result.crash_site);
  writer.put_u64(record.result.detector_fired ? kFlagDetectorFired : 0);
}

/// Appends a CRC-32 of everything written so far, stored as a u64 so the
/// encoding stays 8-byte framed.
std::string seal(util::BinaryWriter& writer) {
  const std::uint32_t crc =
      util::crc32(writer.buffer().data(), writer.buffer().size());
  writer.put_u64(crc);
  return {reinterpret_cast<const char*>(writer.buffer().data()),
          writer.buffer().size()};
}

/// Decodes record `index` into `record`.  Returns a diagnosis for a value
/// this binary cannot represent, empty on success; truncation throws
/// (BinaryReader).
std::string get_record(util::BinaryReader& reader, std::uint64_t version,
                       std::uint64_t index, ExperimentRecord& record) {
  record.id = reader.get_u64();
  const std::uint64_t raw = reader.get_u64();
  if (raw > static_cast<std::uint64_t>(fi::Outcome::kDetected)) {
    // Name the value so a v-next log fails readably on this binary.
    return "campaign log record " + std::to_string(index) +
           " has unsupported outcome " + fi::outcome_name(raw) +
           " (raw value " + std::to_string(raw) +
           "; this binary knows outcomes up to " +
           fi::outcome_name(
               static_cast<std::uint64_t>(fi::Outcome::kDetected)) +
           ")";
  }
  record.result.outcome = static_cast<fi::Outcome>(raw);
  const std::uint64_t reason = reader.get_u64();
  if (reason > static_cast<std::uint64_t>(fi::CrashReason::kQuarantined)) {
    return "campaign log record " + std::to_string(index) +
           " has invalid crash reason " + std::to_string(reason);
  }
  record.result.crash_reason = static_cast<fi::CrashReason>(reason);
  record.result.injected_error = reader.get_f64();
  record.result.output_error = reader.get_f64();
  record.result.crash_site = reader.get_u64();
  if (version >= 3) {
    const std::uint64_t flags = reader.get_u64();
    record.result.detector_fired = (flags & kFlagDetectorFired) != 0;
  }
  return {};
}

struct Decoded {
  std::string config_key;
  std::vector<ExperimentRecord> records;
  std::uint64_t torn_frames = 0;
};

/// A v2/v3 image: one CRC over the whole file, checked up front -- a file
/// that fails it is corrupt, and any decode error past it would only
/// describe a symptom of that.  Returns a diagnosis, empty on success.
std::string decode_image(const std::uint8_t* bytes, std::size_t size,
                         std::uint64_t version, Decoded& out) {
  const std::size_t body = size - 8;
  if (read_u64(bytes + body) != util::crc32(bytes, body)) {
    return "campaign log CRC mismatch (file is corrupt or was truncated "
           "mid-write)";
  }
  util::BinaryReader reader(std::vector<std::uint8_t>(bytes + 16, bytes + body));
  out.config_key = reader.get_string();
  const std::uint64_t count = reader.get_u64();
  // A CRC stops rot, not a crafted file: bound the count by the bytes left
  // before reserving for it.
  const std::size_t record_bytes = version >= 3 ? kRecordBytes : 6 * 8;
  if (count > reader.remaining() / record_bytes) {
    return "campaign log declares " + std::to_string(count) +
           " records but holds only " + std::to_string(reader.remaining()) +
           " bytes of them";
  }
  out.records.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string diagnosis = get_record(reader, version, i, out.records[i]);
    if (!diagnosis.empty()) return diagnosis;
  }
  return {};
}

/// A v4 journal: the header's CRC, then frame after frame.  Only the last
/// frame may be torn; it is dropped and counted.  Returns a diagnosis,
/// empty on success.
std::string decode_journal(const std::uint8_t* bytes, std::size_t size,
                           Decoded& out) {
  util::BinaryReader reader(std::vector<std::uint8_t>(bytes + 16, bytes + size));
  out.config_key = reader.get_string();
  const std::size_t header = size - reader.remaining();
  if (reader.get_u64() != util::crc32(bytes, header)) {
    return "campaign log header CRC mismatch (file is corrupt)";
  }
  while (reader.remaining() > 0) {
    const std::size_t pos = size - reader.remaining();
    const std::size_t left = reader.remaining();
    // An empty frame takes 16 bytes.  A frame whose declared length runs
    // past end-of-file is a torn append; the same bound keeps a forged
    // count from driving an allocation.
    if (left < 16 || read_u64(bytes + pos) > (left - 16) / kRecordBytes) {
      ++out.torn_frames;
      break;
    }
    const std::uint64_t count = reader.get_u64();
    const std::size_t body = 8 + count * kRecordBytes;
    if (read_u64(bytes + pos + body) != util::crc32(bytes + pos, body)) {
      if (pos + body + 8 == size) {
        ++out.torn_frames;  // the append that was cut short
        break;
      }
      return "campaign log frame at byte offset " + std::to_string(pos) +
             " fails its CRC with " + std::to_string(size - pos - body - 8) +
             " bytes after it (the journal is corrupt, not torn)";
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      ExperimentRecord record;
      std::string diagnosis = get_record(reader, kJournalVersion,
                                         out.records.size(), record);
      if (!diagnosis.empty()) return diagnosis;
      out.records.push_back(record);
    }
    (void)reader.get_u64();  // the frame CRC, checked above
  }
  return {};
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
  // A fresh checkpointed run journals its ids in strictly descending order:
  // sorted and without duplicates once reversed.
  if (std::adjacent_find(records_.begin(), records_.end(),
                         [](const ExperimentRecord& a,
                            const ExperimentRecord& b) {
                           return a.id <= b.id;
                         }) == records_.end()) {
    std::reverse(records_.begin(), records_.end());
    return;
  }
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
  writer.reserve(5 * 8 + config_key_.size() + records_.size() * kRecordBytes);
  writer.put_u64(kMagic);
  writer.put_u64(kVersion);
  writer.put_string(config_key_);
  writer.put_u64(records_.size());
  for (const ExperimentRecord& record : records_) put_record(writer, record);
  return seal(writer);
}

std::string encode_journal_header(const std::string& config_key) {
  util::BinaryWriter writer;
  writer.put_u64(kMagic);
  writer.put_u64(kJournalVersion);
  writer.put_string(config_key);
  return seal(writer);
}

std::string encode_journal_frame(std::span<const ExperimentRecord> records) {
  util::BinaryWriter writer;
  writer.reserve(2 * 8 + records.size() * kRecordBytes);
  writer.put_u64(records.size());
  for (const ExperimentRecord& record : records) put_record(writer, record);
  return seal(writer);
}

std::optional<CampaignLog> CampaignLog::deserialize(const std::string& payload,
                                                    std::string* error,
                                                    std::uint64_t* torn_frames) {
  if (payload.size() < 4 * 8) {
    return fail(error, "campaign log truncated: " +
                           std::to_string(payload.size()) +
                           " bytes is smaller than the fixed header");
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(payload.data());
  if (read_u64(bytes) != kMagic) {
    return fail(error, "campaign log has bad magic (not an FTB-CLOG file)");
  }
  const std::uint64_t version = read_u64(bytes + 8);
  if (version < kMinVersion || version > kJournalVersion) {
    return fail(error, "campaign log has unsupported version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kMinVersion) + ".." +
                           std::to_string(kJournalVersion) + ")");
  }
  Decoded decoded;
  std::string diagnosis;
  try {
    diagnosis = version == kJournalVersion
                    ? decode_journal(bytes, payload.size(), decoded)
                    : decode_image(bytes, payload.size(), version, decoded);
  } catch (const std::runtime_error& e) {
    diagnosis = std::string("campaign log truncated: ") + e.what();
  }
  if (!diagnosis.empty()) return fail(error, diagnosis);
  CampaignLog log(std::move(decoded.config_key));
  log.records_ = std::move(decoded.records);
  if (torn_frames != nullptr) *torn_frames = decoded.torn_frames;
  return log;
}

bool CampaignLog::save(const std::string& path) const {
  // Durable publish (tmp + fsync + rename + parent-dir fsync): a finished
  // journal is what the boundary is built from, so it must survive a
  // crash, not just a concurrent reader.
  return util::write_file_durable(path, serialize());
}

std::optional<CampaignLog> CampaignLog::load(const std::string& path,
                                             std::string* error,
                                             std::uint64_t* torn_frames) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "cannot open campaign log '" + path + "'");
  const std::string payload{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  std::string detail;
  auto log = deserialize(payload, &detail, torn_frames);
  if (!log) return fail(error, "'" + path + "': " + detail);
  return log;
}

LogEvidence fold_log_evidence(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              const CampaignLog& log,
                              const boundary::AccumulatorOptions& options,
                              util::ThreadPool& pool,
                              telemetry::Telemetry* telemetry,
                              ReplayWindow window,
                              const FirstPassEvidence* first) {
  telemetry::SpanScope span(telemetry, "boundary.replay", "boundary");
  const std::size_t sites = golden.trace.size();
  LogEvidence evidence{boundary::BoundaryAccumulator(sites, options), {}, 0.0};
  ReplayStats& stats = evidence.stats;

  // Record pass: injected-error evidence straight from the classic records
  // (burst and memory-resident ones describe another fault model).  It runs
  // to completion first, so every site's cutoff is final before the first
  // propagation value is folded.  `cutoff` starts as the filter's cutoff
  // whether or not the filter is on: the one first-pass evidence was
  // folded against.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cutoff(sites, kInf);
  for (const ExperimentRecord& record : log.records()) {
    if (!is_classic(record.id)) continue;
    const std::uint64_t site = site_of(record.id);
    evidence.accumulator.record_injection(site, bit_of(record.id),
                                          record.result.outcome,
                                          record.result.injected_error);
    if (record.result.outcome == fi::Outcome::kSdc &&
        std::isfinite(record.result.injected_error)) {
      cutoff[site] = std::min(cutoff[site], record.result.injected_error);
    }
  }
  const std::uint64_t window_begin =
      std::min<std::uint64_t>(window.begin, sites);
  const std::uint64_t window_end = std::min<std::uint64_t>(window.end, sites);

  // First-pass evidence stands in for the masked records it covers.
  std::vector<double> folded;
  const bool use_first = first != nullptr && !first->empty() &&
                         first->resolve(cutoff, options.filter, folded);
  stats.first_pass_dropped = first != nullptr && !first->empty() && !use_first;
  if (use_first) {
    evidence.window_max = first->window_max(window_begin, window_end);
  }
  if (!options.filter) cutoff.assign(sites, kInf);  // propagation_cutoff()
  std::vector<ExperimentId> masked_ids;
  for (const ExperimentRecord& record : log.records()) {
    if (!is_classic(record.id) ||
        record.result.outcome != fi::Outcome::kMasked) {
      continue;
    }
    if (use_first && first->covers(record.id)) {
      ++stats.folded;
    } else {
      masked_ids.push_back(record.id);
    }
  }

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

  stats.threads = partials.size();
  for (const ReplayPartial& part : partials) {
    evidence.window_max = std::max(evidence.window_max, part.window_max);
    stats.replayed += part.replayed;
    stats.mismatches += part.mismatches;
  }
  for (std::size_t j = 0; j < sites; ++j) {
    double value = folded.empty() ? 0.0 : folded[j];
    for (const ReplayPartial& part : partials) {
      value = std::max(value, part.best[j]);
    }
    if (value > 0.0) evidence.accumulator.record_masked_value(j, value);
  }

  span.arg("replayed", static_cast<double>(stats.replayed));
  span.arg("threads", static_cast<double>(stats.threads));
  span.arg("mismatches", static_cast<double>(stats.mismatches));
  span.arg("folded", static_cast<double>(stats.folded));
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
    util::ThreadPool& pool, telemetry::Telemetry* telemetry,
    const FirstPassEvidence* first) {
  if (log.config_key() != program.config_key()) {
    throw std::invalid_argument(
        "boundary_from_log: log was recorded for a different configuration");
  }
  return fold_log_evidence(program, golden, log, options, pool, telemetry, {},
                           first)
      .accumulator.finalize();
}

}  // namespace ftb::campaign
