#include "boundary/serialize.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "util/cache.h"
#include "util/durable_file.h"

namespace ftb::boundary {

namespace {

constexpr std::uint64_t kMagic = 0x4654422d424e4452ull;  // "FTB-BNDR"
// v1: magic, version, body, no integrity check.
// v2: magic, version, body, trailing CRC-32 stored as a u64 (the campaign
//     log's framing discipline), so torn writes and bit rot are rejected
//     instead of silently producing a wrong boundary.
constexpr std::uint64_t kVersionLegacy = 1;
constexpr std::uint64_t kVersion = 2;

std::optional<BoundaryArtifact> fail(std::string* error,
                                     const std::string& what) {
  if (error != nullptr) *error = what;
  return std::nullopt;
}

/// Decodes the body shared by v1 and v2: config key, thresholds, exact
/// flags.  Throws std::runtime_error on truncation (BinaryReader) or on a
/// site count the remaining bytes cannot hold.
BoundaryArtifact decode_body(util::BinaryReader& reader,
                             std::uint64_t version) {
  BoundaryArtifact artifact;
  artifact.version = version;
  artifact.config_key = reader.get_string();
  const std::uint64_t sites = reader.get_u64();
  // v1 has no CRC and a CRC does not stop a crafted file: bound the count
  // by the bytes left before reserving for it.
  if (sites > reader.remaining() / 8) {
    throw std::runtime_error("declares " + std::to_string(sites) +
                             " sites but holds only " +
                             std::to_string(reader.remaining()) + " bytes");
  }
  std::vector<double> thresholds;
  thresholds.reserve(sites);
  for (std::uint64_t i = 0; i < sites; ++i) {
    thresholds.push_back(reader.get_f64());
  }
  std::vector<std::uint8_t> exact = reader.get_bytes();
  if (exact.size() != sites) {
    throw std::runtime_error("exact-flag vector has " +
                             std::to_string(exact.size()) + " entries for " +
                             std::to_string(sites) + " sites");
  }
  artifact.boundary =
      FaultToleranceBoundary(std::move(thresholds), std::move(exact));
  return artifact;
}

}  // namespace

std::string serialize(const FaultToleranceBoundary& boundary,
                      const std::string& config_key) {
  util::BinaryWriter writer;
  writer.put_u64(kMagic);
  writer.put_u64(kVersion);
  writer.put_string(config_key);
  writer.put_u64(boundary.sites());
  for (std::size_t i = 0; i < boundary.sites(); ++i) {
    writer.put_f64(boundary.threshold(i));
  }
  std::vector<std::uint8_t> exact(boundary.sites());
  for (std::size_t i = 0; i < boundary.sites(); ++i) {
    exact[i] = boundary.is_exact(i) ? 1 : 0;
  }
  writer.put_bytes(exact);
  const std::uint32_t crc =
      util::crc32(writer.buffer().data(), writer.buffer().size());
  writer.put_u64(crc);
  return {writer.buffer().begin(), writer.buffer().end()};
}

std::optional<BoundaryArtifact> deserialize_artifact(
    const std::string& payload, const std::string& expect_config,
    std::string* error) {
  if (payload.size() < 2 * 8) {
    return fail(error, "boundary artifact truncated: " +
                           std::to_string(payload.size()) +
                           " bytes is smaller than the fixed header");
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(payload.data());
  try {
    std::uint64_t magic = 0, version = 0;
    for (int i = 0; i < 8; ++i) {
      magic |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
      version |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
    }
    if (magic != kMagic) {
      return fail(error,
                  "boundary artifact has bad magic (not an FTB-BNDR file)");
    }
    if (version != kVersionLegacy && version != kVersion) {
      return fail(error, "boundary artifact has unsupported version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kVersionLegacy) + " or " +
                             std::to_string(kVersion) + ")");
    }
    std::size_t body = payload.size();
    if (version == kVersion) {
      if (payload.size() < 3 * 8) {
        return fail(error,
                    "boundary artifact truncated: no room for the CRC frame");
      }
      body -= 8;
      std::uint64_t stored_crc = 0;
      for (int i = 0; i < 8; ++i) {
        stored_crc |= static_cast<std::uint64_t>(bytes[body + i]) << (8 * i);
      }
      if (stored_crc != util::crc32(bytes, body)) {
        return fail(error,
                    "boundary artifact CRC mismatch (file is corrupt or was "
                    "truncated mid-write)");
      }
    }
    util::BinaryReader reader(
        std::vector<std::uint8_t>(bytes + 16, bytes + body));
    BoundaryArtifact artifact = decode_body(reader, version);
    if (!reader.exhausted()) {
      // A v2 file whose version word rotted to 1 lands here: the legacy
      // parse leaves the CRC frame behind as unexplained trailing bytes.
      return fail(error, "boundary artifact has trailing garbage after the "
                         "encoded boundary");
    }
    if (!expect_config.empty() && artifact.config_key != expect_config) {
      return fail(error, "boundary artifact was built for config '" +
                             artifact.config_key + "', not '" + expect_config +
                             "'");
    }
    return artifact;
  } catch (const std::runtime_error& e) {
    return fail(error,
                std::string("boundary artifact is corrupt: ") + e.what());
  }
}

std::optional<FaultToleranceBoundary> deserialize(
    const std::string& payload, const std::string& expect_config,
    std::string* error) {
  auto artifact = deserialize_artifact(payload, expect_config, error);
  if (!artifact.has_value()) return std::nullopt;
  return std::move(artifact->boundary);
}

bool save_to_file(const FaultToleranceBoundary& boundary,
                  const std::string& config_key, const std::string& path) {
  // Durable publish (tmp + fsync + rename + parent-dir fsync): the store
  // serves whatever *.boundary files exist, so a published artifact must
  // never be a rename that a crash can un-write.
  return util::write_file_durable(path, serialize(boundary, config_key));
}

std::optional<BoundaryArtifact> load_artifact_from_file(
    const std::string& path, const std::string& expect_config,
    std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "' for reading";
    return std::nullopt;
  }
  const std::string payload{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  return deserialize_artifact(payload, expect_config, error);
}

std::optional<FaultToleranceBoundary> load_from_file(
    const std::string& path, const std::string& expect_config,
    std::string* error) {
  auto artifact = load_artifact_from_file(path, expect_config, error);
  if (!artifact.has_value()) return std::nullopt;
  return std::move(artifact->boundary);
}

}  // namespace ftb::boundary
