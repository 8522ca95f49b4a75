// Binary result cache.  Exhaustive ground-truth campaigns are by far the
// most expensive step of the evaluation, and several bench binaries need the
// same table, so campaigns can persist results keyed by a configuration
// string.  The cache directory comes from FTB_CACHE_DIR (default
// ".ftb_cache"); set FTB_CACHE_DIR=off to disable caching entirely.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace ftb::util {

/// Append-only little-endian binary encoder.
class BinaryWriter {
 public:
  /// Reserves room for `bytes` more bytes; encoders that know their size
  /// call it once up front.
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }
  /// One 8-byte append of the little-endian bytes; inline, because the
  /// journal encoders call it for every word.
  void put_u64(std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(v));
    std::memcpy(buf_.data() + at, &v, sizeof(v));
  }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_bytes(const std::vector<std::uint8_t>& v);
  void put_f64_vec(const std::vector<double>& v);
  void put_string(const std::string& s);

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Matching decoder; all getters throw std::runtime_error on truncation.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> data) : buf_(std::move(data)) {}

  std::uint64_t get_u64();
  double get_f64();
  std::vector<std::uint8_t> get_bytes();
  std::vector<double> get_f64_vec();
  std::string get_string();

  bool exhausted() const noexcept { return pos_ == buf_.size(); }

  /// Bytes left to read.  Decoders validate untrusted element counts
  /// against this before reserving (count <= remaining() / min bytes per
  /// element), so a forged length prefix cannot drive a huge allocation.
  std::size_t remaining() const noexcept { return buf_.size() - pos_; }

 private:
  void need(std::size_t n) const;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// FNV-1a of a string; used to derive cache file names from config keys.
std::uint64_t fnv1a(const std::string& text) noexcept;

/// CRC-32 (IEEE 802.3 polynomial, reflected; zlib's crc32) over a byte
/// range, slicing by 8 bytes; used to guard persistent journals (campaign
/// logs), artifacts and wire frames against torn or bit-rotted bytes.
/// crc32(...) of an empty range is 0.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

/// The active cache directory, or empty if caching is disabled.
std::string cache_dir();

/// Loads the payload cached under `key`, verifying that the stored key
/// matches (hash collisions fall back to a miss).  Returns nullopt on miss,
/// disabled cache, or corrupt file.
std::optional<std::vector<std::uint8_t>> cache_load(const std::string& key);

/// Stores payload under `key` (atomic rename); no-op if caching is disabled.
void cache_store(const std::string& key, const std::vector<std::uint8_t>& payload);

}  // namespace ftb::util
