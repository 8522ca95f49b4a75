#include "boundary/serialize.h"

#include <cstdio>
#include <filesystem>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/cache.h"

namespace ftb::boundary {
namespace {

FaultToleranceBoundary sample_boundary() {
  return FaultToleranceBoundary({0.0, 1.5e-7, 42.0,
                                 std::numeric_limits<double>::infinity()},
                                {0, 1, 0, 1});
}

TEST(Serialize, RoundTrip) {
  const FaultToleranceBoundary original = sample_boundary();
  const std::string payload = serialize(original, "cg:test-config");
  const auto restored = deserialize(payload, "cg:test-config");
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->sites(), original.sites());
  for (std::size_t i = 0; i < original.sites(); ++i) {
    EXPECT_EQ(restored->threshold(i), original.threshold(i)) << i;
    EXPECT_EQ(restored->is_exact(i), original.is_exact(i)) << i;
  }
}

TEST(Serialize, ConfigMismatchRejected) {
  const std::string payload = serialize(sample_boundary(), "cg:A");
  EXPECT_FALSE(deserialize(payload, "cg:B").has_value());
  // No expectation: accepted regardless of the embedded key.
  EXPECT_TRUE(deserialize(payload).has_value());
}

TEST(Serialize, CorruptPayloadRejected) {
  std::string payload = serialize(sample_boundary(), "cfg");
  EXPECT_FALSE(deserialize(payload.substr(0, payload.size() / 2)).has_value());
  payload[0] ^= 0x5a;  // break the magic
  EXPECT_FALSE(deserialize(payload).has_value());
  EXPECT_FALSE(deserialize("").has_value());
}

TEST(Serialize, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("ftb_boundary_" + std::to_string(::getpid()) + ".bin");
  const FaultToleranceBoundary original = sample_boundary();
  ASSERT_TRUE(save_to_file(original, "cfg", path.string()));
  const auto restored = load_from_file(path.string(), "cfg");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sites(), original.sites());
  EXPECT_DOUBLE_EQ(restored->threshold(2), 42.0);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileIsNullopt) {
  EXPECT_FALSE(load_from_file("/nonexistent/ftb.bin").has_value());
}

TEST(Serialize, EmptyBoundary) {
  const FaultToleranceBoundary empty;
  const auto restored = deserialize(serialize(empty, "k"), "k");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sites(), 0u);
}

TEST(Serialize, ArtifactCarriesMetadata) {
  const std::string payload = serialize(sample_boundary(), "cg:meta");
  std::string error;
  const auto artifact = deserialize_artifact(payload, {}, &error);
  ASSERT_TRUE(artifact.has_value()) << error;
  EXPECT_EQ(artifact->config_key, "cg:meta");
  EXPECT_EQ(artifact->version, 2u);
  EXPECT_EQ(artifact->boundary.sites(), sample_boundary().sites());
}

TEST(Serialize, EveryByteCorruptionRejected) {
  const std::string payload = serialize(sample_boundary(), "cfg-corrupt");
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::string rotted = payload;
    rotted[i] = static_cast<char>(rotted[i] ^ 0x5a);
    std::string error;
    const auto artifact = deserialize_artifact(rotted, {}, &error);
    EXPECT_FALSE(artifact.has_value()) << "byte " << i << " xor 0x5a accepted";
    EXPECT_FALSE(error.empty()) << "byte " << i << ": no diagnostic";
  }
}

TEST(Serialize, EveryTruncationRejected) {
  const std::string payload = serialize(sample_boundary(), "cfg-trunc");
  for (std::size_t len = 0; len < payload.size(); ++len) {
    std::string error;
    const auto artifact =
        deserialize_artifact(payload.substr(0, len), {}, &error);
    EXPECT_FALSE(artifact.has_value()) << "prefix of " << len << " accepted";
    EXPECT_FALSE(error.empty()) << "prefix of " << len << ": no diagnostic";
  }
}

TEST(Serialize, TrailingGarbageRejected) {
  std::string payload = serialize(sample_boundary(), "cfg-tail");
  payload += std::string(8, '\0');
  std::string error;
  EXPECT_FALSE(deserialize_artifact(payload, {}, &error).has_value());
  EXPECT_FALSE(error.empty());
}

// An unframed v1 file (written before the CRC frame existed) must still
// load; new saves always re-emit v2.
TEST(Serialize, LegacyV1PayloadLoads) {
  const FaultToleranceBoundary original = sample_boundary();
  util::BinaryWriter writer;
  writer.put_u64(0x4654422d424e4452ull);  // "FTB-BNDR"
  writer.put_u64(1);                      // legacy version, no CRC
  writer.put_string("legacy-cfg");
  writer.put_u64(original.sites());
  for (std::size_t i = 0; i < original.sites(); ++i) {
    writer.put_f64(original.threshold(i));
  }
  std::vector<std::uint8_t> exact(original.sites());
  for (std::size_t i = 0; i < original.sites(); ++i) {
    exact[i] = original.is_exact(i) ? 1 : 0;
  }
  writer.put_bytes(exact);
  const std::string payload{writer.buffer().begin(), writer.buffer().end()};

  std::string error;
  const auto artifact = deserialize_artifact(payload, "legacy-cfg", &error);
  ASSERT_TRUE(artifact.has_value()) << error;
  EXPECT_EQ(artifact->version, 1u);
  ASSERT_EQ(artifact->boundary.sites(), original.sites());
  for (std::size_t i = 0; i < original.sites(); ++i) {
    EXPECT_EQ(artifact->boundary.threshold(i), original.threshold(i)) << i;
  }
  // A legacy payload with junk after the body is not a valid v1 file (and
  // is exactly what a version-rotted v2 file looks like).
  std::string error2;
  EXPECT_FALSE(
      deserialize_artifact(payload + "x", "legacy-cfg", &error2).has_value());
  EXPECT_FALSE(error2.empty());
}

// A v1 file has no CRC (and a CRC would not stop a crafted one): a forged
// site count must be refused before anything is reserved for it.
TEST(Serialize, ForgedSiteCountIsDiagnosedNotAllocated) {
  for (const std::uint64_t sites : {std::uint64_t{1} << 61,
                                    std::uint64_t{1} << 36}) {
    util::BinaryWriter writer;
    writer.put_u64(0x4654422d424e4452ull);  // "FTB-BNDR"
    writer.put_u64(1);                      // legacy version, no CRC
    writer.put_string("");
    writer.put_u64(sites);
    writer.put_u64(0);
    const std::string payload{writer.buffer().begin(), writer.buffer().end()};
    std::string error;
    EXPECT_FALSE(deserialize_artifact(payload, {}, &error).has_value());
    EXPECT_NE(error.find("declares " + std::to_string(sites) + " sites"),
              std::string::npos)
        << error;
  }
}

TEST(Serialize, UnsupportedVersionDiagnosed) {
  util::BinaryWriter writer;
  writer.put_u64(0x4654422d424e4452ull);
  writer.put_u64(99);
  const std::string payload{writer.buffer().begin(), writer.buffer().end()};
  std::string error;
  EXPECT_FALSE(deserialize_artifact(payload, {}, &error).has_value());
  EXPECT_NE(error.find("unsupported version"), std::string::npos) << error;
}

}  // namespace
}  // namespace ftb::boundary
