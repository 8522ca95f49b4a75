#include "util/cache.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ftb::util {
namespace {

TEST(BinaryCodec, RoundTrip) {
  BinaryWriter writer;
  writer.put_u64(0xdeadbeefcafef00dull);
  writer.put_f64(-3.14159);
  writer.put_bytes({1, 2, 3, 255});
  writer.put_f64_vec({0.5, -0.25, 1e300});
  writer.put_string("fault tolerance boundary");

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.get_u64(), 0xdeadbeefcafef00dull);
  EXPECT_DOUBLE_EQ(reader.get_f64(), -3.14159);
  EXPECT_EQ(reader.get_bytes(), (std::vector<std::uint8_t>{1, 2, 3, 255}));
  EXPECT_EQ(reader.get_f64_vec(), (std::vector<double>{0.5, -0.25, 1e300}));
  EXPECT_EQ(reader.get_string(), "fault tolerance boundary");
  EXPECT_TRUE(reader.exhausted());
}

TEST(BinaryCodec, TruncationThrows) {
  BinaryWriter writer;
  writer.put_u64(7);
  std::vector<std::uint8_t> cut = writer.buffer();
  cut.pop_back();
  BinaryReader reader(std::move(cut));
  EXPECT_THROW(reader.get_u64(), std::runtime_error);
}

TEST(BinaryCodec, NonFiniteDoublesSurvive) {
  BinaryWriter writer;
  writer.put_f64(std::numeric_limits<double>::infinity());
  writer.put_f64(std::numeric_limits<double>::quiet_NaN());
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(std::isinf(reader.get_f64()));
  EXPECT_TRUE(std::isnan(reader.get_f64()));
}

/// The byte-at-a-time encoder BinaryWriter replaced: the bytes it pins.
std::vector<std::uint8_t> reference_u64(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return out;
}

TEST(BinaryCodec, WordsAreTheByteAtATimeLittleEndianBytes) {
  const std::uint64_t words[] = {0,
                                 ~std::uint64_t{0},
                                 1,
                                 0x0123456789abcdefull,
                                 0x8000000000000000ull,
                                 0x00000000ffffffffull};
  const double doubles[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            std::bit_cast<double>(0x7ff0000000000001ull),
                            std::bit_cast<double>(0xfff8dead0000beefull),
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            std::bit_cast<double>(0x000fffffffffffffull),
                            std::numeric_limits<double>::max(),
                            -3.14159};
  BinaryWriter writer;
  std::vector<std::uint8_t> want;
  for (std::uint64_t v : words) {
    writer.put_u64(v);
    const std::vector<std::uint8_t> bytes = reference_u64(v);
    want.insert(want.end(), bytes.begin(), bytes.end());
  }
  for (double v : doubles) {
    writer.put_f64(v);
    const std::vector<std::uint8_t> bytes =
        reference_u64(std::bit_cast<std::uint64_t>(v));
    want.insert(want.end(), bytes.begin(), bytes.end());
  }
  writer.put_string("key");
  const std::vector<std::uint8_t> length = reference_u64(3);
  want.insert(want.end(), length.begin(), length.end());
  want.insert(want.end(), {'k', 'e', 'y'});
  EXPECT_EQ(writer.buffer(), want);

  // Reserving changes no byte.
  BinaryWriter reserved;
  reserved.reserve(want.size());
  for (std::uint64_t v : words) reserved.put_u64(v);
  for (double v : doubles) reserved.put_f64(v);
  reserved.put_string("key");
  EXPECT_EQ(reserved.buffer(), want);
}

/// The nibble-table CRC-32 util::crc32 replaced: the values it pins.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  static constexpr std::uint32_t kTable[16] = {
      0x00000000u, 0x1db71064u, 0x3b6e20c8u, 0x26d930acu,
      0x76dc4190u, 0x6b6b51f4u, 0x4db26158u, 0x5005713cu,
      0xedb88320u, 0xf00f9344u, 0xd6d6a3e8u, 0xcb61b38cu,
      0x9b64c2b0u, 0x86d3d2d4u, 0xa00ae278u, 0xbdbdf21cu};
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    crc = (crc >> 4) ^ kTable[crc & 0x0f];
    crc = (crc >> 4) ^ kTable[crc & 0x0f];
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (std::uint8_t& byte : bytes) {
    byte = static_cast<std::uint8_t>(rng.next_u64());
  }
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xcbf43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesTheNibbleReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> bytes = random_bytes(1024 + 8, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      ASSERT_EQ(crc32(bytes.data() + offset, length),
                reference_crc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, MatchesTheNibbleReferenceOnAFinishedJournalSizedBuffer) {
  // The size of a finished 20000-record campaign journal.
  const std::vector<std::uint8_t> bytes = random_bytes(1120087, 11);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            reference_crc32(bytes.data(), bytes.size()));
}

TEST(Fnv1a, StableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

class CacheDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ftb_cache_test_" + std::to_string(::getpid()));
    ASSERT_EQ(setenv("FTB_CACHE_DIR", dir_.c_str(), 1), 0);
  }
  void TearDown() override {
    ASSERT_EQ(setenv("FTB_CACHE_DIR", "off", 1), 0);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(CacheDirTest, StoreLoadRoundTrip) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  cache_store("key-one", payload);
  const auto loaded = cache_load("key-one");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
}

TEST_F(CacheDirTest, MissForUnknownKey) {
  EXPECT_FALSE(cache_load("never-stored").has_value());
}

TEST_F(CacheDirTest, OverwriteReplacesPayload) {
  cache_store("key", {1});
  cache_store("key", {2, 3});
  const auto loaded = cache_load("key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, (std::vector<std::uint8_t>{2, 3}));
}

TEST_F(CacheDirTest, CorruptFileIsAMiss) {
  cache_store("key", {1, 2, 3});
  // Truncate the stored file behind the cache's back.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::filesystem::resize_file(entry.path(), 4);
  }
  EXPECT_FALSE(cache_load("key").has_value());
}

TEST(CacheDisabled, OffMeansNoop) {
  ASSERT_EQ(setenv("FTB_CACHE_DIR", "off", 1), 0);
  EXPECT_TRUE(cache_dir().empty());
  cache_store("key", {1});                       // must not crash
  EXPECT_FALSE(cache_load("key").has_value());   // and never hit
}

}  // namespace
}  // namespace ftb::util
