#include "util/cache.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/durable_file.h"

namespace ftb::util {

namespace {

constexpr std::uint64_t kMagic = 0x4654422d43414348ull;  // "FTB-CACH"
constexpr std::uint64_t kVersion = 1;

}  // namespace

void BinaryWriter::put_bytes(const std::vector<std::uint8_t>& v) {
  put_u64(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void BinaryWriter::put_f64_vec(const std::vector<double>& v) {
  put_u64(v.size());
  for (double x : v) put_f64(x);
}

void BinaryWriter::put_string(const std::string& s) {
  put_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryReader::need(std::size_t n) const {
  // Compare against the remaining span, not pos_ + n: a length prefix near
  // SIZE_MAX would wrap pos_ + n and sail past the bound.
  if (n > buf_.size() - pos_) {
    throw std::runtime_error("BinaryReader: truncated payload");
  }
}

std::uint64_t BinaryReader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double BinaryReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<std::uint8_t> BinaryReader::get_bytes() {
  const std::uint64_t n = get_u64();
  need(n);
  std::vector<std::uint8_t> out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::vector<double> BinaryReader::get_f64_vec() {
  const std::uint64_t n = get_u64();
  if (n > remaining() / 8) {
    throw std::runtime_error("BinaryReader: truncated payload");
  }
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(get_f64());
  return out;
}

std::string BinaryReader::get_string() {
  const std::uint64_t n = get_u64();
  need(n);
  std::string out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::uint64_t fnv1a(const std::string& text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char ch : text) {
    hash ^= ch;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTable[0] is
/// the classic byte table, kCrcTable[k][b] the CRC of byte b followed by k
/// zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_table() {
  std::array<std::array<std::uint32_t, 256>, 8> table{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    table[0][b] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = table[k - 1][b];
      table[k][b] = (prev >> 8) ^ table[0][prev & 0xffu];
    }
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  std::uint32_t crc = 0xffffffffu;
  // Eight bytes per step, each through its own table.
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    crc = kCrcTable[7][lo & 0xffu] ^ kCrcTable[6][(lo >> 8) & 0xffu] ^
          kCrcTable[5][(lo >> 16) & 0xffu] ^ kCrcTable[4][lo >> 24] ^
          kCrcTable[3][hi & 0xffu] ^ kCrcTable[2][(hi >> 8) & 0xffu] ^
          kCrcTable[1][(hi >> 16) & 0xffu] ^ kCrcTable[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ kCrcTable[0][(crc ^ *data) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

std::string cache_dir() {
  const char* env = std::getenv("FTB_CACHE_DIR");
  std::string dir = env ? env : ".ftb_cache";
  if (dir == "off" || dir == "0" || dir.empty()) return {};
  return dir;
}

namespace {

std::string cache_path(const std::string& key) {
  const std::string dir = cache_dir();
  if (dir.empty()) return {};
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.bin",
                static_cast<unsigned long long>(fnv1a(key)));
  return dir + "/" + name;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> cache_load(const std::string& key) {
  const std::string path = cache_path(key);
  if (path.empty()) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> data{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
  try {
    BinaryReader reader(std::move(data));
    if (reader.get_u64() != kMagic) return std::nullopt;
    if (reader.get_u64() != kVersion) return std::nullopt;
    if (reader.get_string() != key) return std::nullopt;  // hash collision
    return reader.get_bytes();
  } catch (const std::runtime_error&) {
    return std::nullopt;  // corrupt or truncated file: treat as a miss
  }
}

void cache_store(const std::string& key,
                 const std::vector<std::uint8_t>& payload) {
  const std::string path = cache_path(key);
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cache_dir(), ec);
  if (ec) return;

  BinaryWriter writer;
  writer.put_u64(kMagic);
  writer.put_u64(kVersion);
  writer.put_string(key);
  writer.put_bytes(payload);

  // Best-effort durable publish; a failed write degrades to a cache miss.
  write_file_durable(path, writer.buffer());
}

}  // namespace ftb::util
