#include "util/gorilla.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace ftb::util {

namespace {

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void BitWriter::put(std::uint64_t value, int bits) {
  bit_count_ += static_cast<std::size_t>(bits);
  while (bits > 0) {
    const int room = 8 - used_;
    const int take = bits < room ? bits : room;
    const std::uint64_t chunk =
        (value >> (bits - take)) & ((std::uint64_t{1} << take) - 1);
    current_ = static_cast<std::uint8_t>((current_ << take) | chunk);
    used_ += take;
    bits -= take;
    if (used_ == 8) {
      bytes_.push_back(current_);
      current_ = 0;
      used_ = 0;
    }
  }
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (used_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(current_ << (8 - used_)));
    current_ = 0;
    used_ = 0;
  }
  return std::move(bytes_);
}

std::uint64_t BitReader::get(int bits) {
  if (bits == 0) return 0;
  if (pos_ + static_cast<std::size_t>(bits) > bytes_.size() * 8) {
    throw std::runtime_error("BitReader: read past end");
  }
  std::uint64_t value = 0;
  while (bits > 0) {
    const std::size_t byte = pos_ >> 3;
    const int offset = static_cast<int>(pos_ & 7);
    const int available = 8 - offset;
    const int take = bits < available ? bits : available;
    const std::uint8_t chunk = static_cast<std::uint8_t>(
        (bytes_[byte] >> (available - take)) & ((1u << take) - 1u));
    value = (value << take) | chunk;
    pos_ += static_cast<std::size_t>(take);
    bits -= take;
  }
  return value;
}

std::vector<std::uint8_t> GorillaCodec::compress(
    std::span<const double> values) {
  BitWriter writer;
  if (values.empty()) return writer.finish();

  std::uint64_t previous = to_bits(values[0]);
  writer.put(previous, 64);

  int window_leading = -1;   // no window yet
  int window_meaningful = 0;

  for (std::size_t i = 1; i < values.size(); ++i) {
    const std::uint64_t bits = to_bits(values[i]);
    const std::uint64_t x = bits ^ previous;
    previous = bits;
    if (x == 0) {
      writer.put(0, 1);
      continue;
    }
    writer.put(1, 1);
    int leading = std::countl_zero(x);
    const int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit header cap
    const int meaningful = 64 - leading - trailing;

    const bool window_fits =
        window_leading >= 0 && leading >= window_leading &&
        trailing >= 64 - window_leading - window_meaningful;
    if (window_fits) {
      writer.put(0, 1);
      writer.put(x >> (64 - window_leading - window_meaningful),
                 window_meaningful);
    } else {
      writer.put(1, 1);
      writer.put(static_cast<std::uint64_t>(leading), 5);
      // 6-bit length; 64 would overflow, encode meaningful-1 (1..64 -> 0..63).
      writer.put(static_cast<std::uint64_t>(meaningful - 1), 6);
      writer.put(x >> trailing, meaningful);
      window_leading = leading;
      window_meaningful = meaningful;
    }
  }
  return writer.finish();
}

GorillaCodec::Decoder::Decoder(std::span<const std::uint8_t> data,
                               std::size_t count)
    : reader_(data), count_(count), leading_(-1) {}

double GorillaCodec::Decoder::next() {
  if (!has_next()) {
    throw std::runtime_error("GorillaCodec::Decoder: exhausted");
  }
  if (produced_ == 0) {
    previous_ = reader_.get(64);
    ++produced_;
    return from_bits(previous_);
  }
  if (!reader_.get_bit()) {  // identical to previous
    ++produced_;
    return from_bits(previous_);
  }
  if (reader_.get_bit()) {  // new window
    leading_ = static_cast<int>(reader_.get(5));
    meaningful_ = static_cast<int>(reader_.get(6)) + 1;
    if (leading_ + meaningful_ > 64) {
      throw std::runtime_error("GorillaCodec::Decoder: corrupt window header");
    }
  } else if (leading_ < 0) {
    // A reuse before any header names no window to reuse.
    throw std::runtime_error("GorillaCodec::Decoder: corrupt window header");
  }
  const std::uint64_t significant =
      reader_.get(meaningful_);
  const int trailing = 64 - leading_ - meaningful_;
  previous_ ^= significant << trailing;
  ++produced_;
  return from_bits(previous_);
}

std::vector<double> GorillaCodec::decompress(
    std::span<const std::uint8_t> data, std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  Decoder decoder(data, count);
  while (decoder.has_next()) out.push_back(decoder.next());
  return out;
}

}  // namespace ftb::util
