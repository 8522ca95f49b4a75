#include "util/gorilla.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "fi/executor.h"
#include "kernels/registry.h"
#include "util/rng.h"

namespace ftb::util {
namespace {

TEST(BitIo, RoundTripAssortedWidths) {
  BitWriter writer;
  writer.put(0b101, 3);
  writer.put(0xdeadbeef, 32);
  writer.put(1, 1);
  writer.put(0x0123456789abcdefull, 64);
  writer.put(0, 7);
  const std::vector<std::uint8_t> bytes = writer.finish();

  BitReader reader(bytes);
  EXPECT_EQ(reader.get(3), 0b101u);
  EXPECT_EQ(reader.get(32), 0xdeadbeefu);
  EXPECT_EQ(reader.get(1), 1u);
  EXPECT_EQ(reader.get(64), 0x0123456789abcdefull);
  EXPECT_EQ(reader.get(7), 0u);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter writer;
  writer.put(0xff, 8);
  const std::vector<std::uint8_t> bytes = writer.finish();
  BitReader reader(bytes);
  (void)reader.get(8);
  EXPECT_THROW(reader.get(1), std::runtime_error);
}

void expect_round_trip(const std::vector<double>& values) {
  const std::vector<std::uint8_t> compressed = GorillaCodec::compress(values);
  const std::vector<double> restored =
      GorillaCodec::decompress(compressed, values.size());
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Bitwise equality, including signed zeros and non-finite values.
    EXPECT_EQ(std::memcmp(&restored[i], &values[i], sizeof(double)), 0) << i;
  }
}

TEST(Gorilla, EmptyAndSingle) {
  expect_round_trip({});
  expect_round_trip({3.14159});
}

TEST(Gorilla, ConstantRuns) { expect_round_trip(std::vector<double>(100, 7.5)); }

TEST(Gorilla, SmoothSeries) {
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(1.0 + 1e-6 * i);
  }
  expect_round_trip(values);
  // Smooth series must compress below 64 bits/value (XOR residuals only
  // touch low mantissa bits most steps).
  const auto compressed = GorillaCodec::compress(values);
  EXPECT_LT(compressed.size() * 8, values.size() * 48);
}

TEST(Gorilla, RandomSeries) {
  Rng rng(5);
  std::vector<double> values(1000);
  for (double& v : values) v = rng.next_double(-1e6, 1e6);
  expect_round_trip(values);
}

TEST(Gorilla, SpecialValues) {
  expect_round_trip({0.0, -0.0, 1.0, -1.0,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::denorm_min(),
                     std::numeric_limits<double>::max()});
}

TEST(Gorilla, DecoderIsSequentialAndBounded) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  const auto compressed = GorillaCodec::compress(values);
  GorillaCodec::Decoder decoder(compressed, values.size());
  EXPECT_TRUE(decoder.has_next());
  EXPECT_DOUBLE_EQ(decoder.next(), 1.0);
  EXPECT_DOUBLE_EQ(decoder.next(), 2.0);
  EXPECT_DOUBLE_EQ(decoder.next(), 3.0);
  EXPECT_FALSE(decoder.has_next());
  EXPECT_THROW(decoder.next(), std::runtime_error);
}

TEST(Gorilla, GoldenTracesRoundTripWithBoundedSize) {
  // The paper's Overhead concern: golden traces are big.  Structured traces
  // (CG's zero-init runs and repeated iterates) compress; high-entropy ones
  // (LU/FFT random fills) may expand, but never by more than the two
  // control bits per value (~ 3.2%).
  for (const char* name : {"cg", "lu", "fft", "jacobi", "stencil2d"}) {
    const fi::ProgramPtr program =
        kernels::make_program(name, kernels::Preset::kTiny);
    const fi::GoldenRun golden = fi::run_golden(*program);
    const auto compressed = GorillaCodec::compress(golden.trace);
    expect_round_trip(golden.trace);
    const double ratio = static_cast<double>(compressed.size()) /
                         static_cast<double>(golden.trace.size() * 8);
    EXPECT_LT(ratio, 1.04) << name;
  }
  // CG specifically must compress: its trace starts with long zero runs.
  const fi::ProgramPtr cg = kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*cg);
  EXPECT_LT(GorillaCodec::compress(golden.trace).size(),
            golden.trace.size() * 8);
}

TEST(Gorilla, CorruptHeaderThrowsNotCrashes) {
  const std::vector<double> values = {1.0, 1.5, 2.25, -8.0};
  auto compressed = GorillaCodec::compress(values);
  // Flip bits across the buffer; decoding must either succeed or throw.
  for (std::size_t byte = 0; byte < compressed.size(); ++byte) {
    auto mutated = compressed;
    mutated[byte] ^= 0xff;
    try {
      (void)GorillaCodec::decompress(mutated, values.size());
    } catch (const std::runtime_error&) {
      // acceptable
    }
  }
  SUCCEED();
}

TEST(Gorilla, WindowReuseBeforeAnyHeaderThrows) {
  // A first value, then control bits 1 (changed) and 0 (reuse the window),
  // which no header has set: the decoder must refuse the stream.
  BitWriter writer;
  writer.put(0x3ff0000000000000ull, 64);  // 1.0
  writer.put(0b10, 2);
  writer.put(0, 14);
  const std::vector<std::uint8_t> bytes = writer.finish();
  EXPECT_THROW((void)GorillaCodec::decompress(bytes, 2), std::runtime_error);
}

}  // namespace
}  // namespace ftb::util
