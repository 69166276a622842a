// Copyright 2026 The CrackStore Authors
//
// Tests for RNG, string helpers and the table printer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "durability/log_format.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace crackstore {
namespace {

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Pcg32Test, DeterministicForSeed) {
  Pcg32 a(42);
  Pcg32 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(Pcg32Test, BoundedStaysInBound) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Pcg32Test, BoundedOneAlwaysZero) {
  Pcg32 rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Pcg32Test, RangeInclusiveBothEnds) {
  Pcg32 rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInRange(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Pcg32Test, RangeSingleton) {
  Pcg32 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextInRange(-5, -5), -5);
}

TEST(Pcg32Test, RangeNegativeSpan) {
  Pcg32 rng(11);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-100, 100);
    EXPECT_GE(v, -100);
    EXPECT_LE(v, 100);
  }
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(13);
  double mn = 1.0, mx = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  EXPECT_LT(mn, 0.05);  // coverage sanity
  EXPECT_GT(mx, 0.95);
}

TEST(Pcg32Test, RoughUniformity) {
  Pcg32 rng(17);
  std::vector<int> histogram(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.NextBounded(10)];
  for (int count : histogram) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);  // within 10% relative
  }
}

TEST(ShuffleTest, ProducesPermutation) {
  std::vector<int> v(1000);
  std::iota(v.begin(), v.end(), 0);
  Pcg32 rng(21);
  Shuffle(&v, &rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ShuffleTest, ActuallyShuffles) {
  std::vector<int> v(1000);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  Pcg32 rng(23);
  Shuffle(&v, &rng);
  EXPECT_NE(v, orig);
}

TEST(ShuffleTest, HandlesTinyVectors) {
  std::vector<int> empty;
  std::vector<int> one{42};
  Pcg32 rng(1);
  Shuffle(&empty, &rng);
  Shuffle(&one, &rng);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one[0], 42);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag=1", "--flag="));
  EXPECT_FALSE(StartsWith("-flag=1", "--flag="));
  EXPECT_FALSE(StartsWith("", "x"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(ParseFlagTest, ExtractsValue) {
  std::string value;
  EXPECT_TRUE(ParseFlag("--n=1000", "n", &value));
  EXPECT_EQ(value, "1000");
  EXPECT_FALSE(ParseFlag("--m=1000", "n", &value));
}

TEST(HumanCountTest, Scales) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1500), "1.5k");
  EXPECT_EQ(HumanCount(2500000), "2.5M");
  EXPECT_EQ(HumanCount(3000000000ULL), "3.0G");
}

TEST(TablePrinterTest, CsvEscaping) {
  TablePrinter tp;
  tp.SetHeader({"a", "b"});
  tp.AddRow({"plain", "has,comma"});
  tp.AddRow({"has\"quote", "x"});
  char buf[256];
  std::FILE* f = fmemopen(buf, sizeof(buf), "w");
  tp.PrintCsv(f);
  std::fclose(f);
  std::string out(buf);
  EXPECT_NE(out.find("a,b\n"), std::string::npos);
  EXPECT_NE(out.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\",x\n"), std::string::npos);
}

TEST(TablePrinterTest, CountsRows) {
  TablePrinter tp;
  tp.SetHeader({"x"});
  EXPECT_EQ(tp.num_rows(), 0u);
  tp.AddRow({"1"});
  tp.AddRow({"2"});
  EXPECT_EQ(tp.num_rows(), 2u);
}

TEST(TablePrinterTest, AlignedOutputHasRule) {
  TablePrinter tp;
  tp.SetHeader({"col"});
  tp.AddRow({"v"});
  char buf[256];
  std::FILE* f = fmemopen(buf, sizeof(buf), "w");
  tp.PrintAligned(f);
  std::fclose(f);
  std::string out(buf);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Crc32Test, KnownVectors) {
  // The classic zlib test vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, StreamingMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t oneshot = Crc32(data);
  uint32_t part = Crc32(data.substr(0, 10));
  uint32_t streamed = Crc32(data.substr(10), part);
  EXPECT_EQ(streamed, oneshot);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(1024, 'x');
  uint32_t clean = Crc32(data);
  data[512] = 'y';
  EXPECT_NE(Crc32(data), clean);
}

// The byte-at-a-time reference the slice-by-8 implementation must equal.
uint32_t BytewiseCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::string RandomBytes(size_t n, uint32_t seed) {
  std::string out(n, '\0');
  uint32_t x = seed;
  for (char& c : out) {
    x = x * 1103515245u + 12345u;
    c = static_cast<char>(x >> 16);
  }
  return out;
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  const std::string buf = RandomBytes(128, 99);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      std::string_view piece(buf.data() + offset, len);
      ASSERT_EQ(Crc32(piece), BytewiseCrc32(piece))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(piece, 0x12345678u), BytewiseCrc32(piece, 0x12345678u))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, LargeBufferAndStreamingSplits) {
  const std::string mib = RandomBytes(1 << 20, 7);
  const uint32_t whole = Crc32(mib);
  EXPECT_EQ(whole, BytewiseCrc32(mib));
  for (size_t split : {size_t{1}, size_t{7}, size_t{8}, size_t{4093},
                       size_t{(1 << 20) - 3}}) {
    std::string_view all(mib);
    EXPECT_EQ(Crc32(all.substr(split), Crc32(all.substr(0, split))), whole)
        << "split " << split;
  }
  // Three-way split with ragged pieces.
  std::string_view all(mib);
  uint32_t crc = Crc32(all.substr(0, 13));
  crc = Crc32(all.substr(13, 100003), crc);
  crc = Crc32(all.substr(100016), crc);
  EXPECT_EQ(crc, whole);
}

// Values computed by the byte-at-a-time implementation that wrote earlier
// logs, checkpoints and MANIFESTs: they must stay readable.
TEST(Crc32Test, GoldenValuesFromTheBytewiseImplementation) {
  const std::string buf = RandomBytes(1000, 12345);
  EXPECT_EQ(Crc32(buf), 0xfcfd9f35u);
  EXPECT_EQ(Crc32(buf, 0xDEADBEEFu), 0x8b4216a8u);
  // A commit-log frame of lsn 42 around the first 37 bytes: the stored CRC
  // (bytes 8..11) chains the lsn and length header into the body's.
  std::string frame;
  durability::AppendFrame(&frame, 42, std::string_view(buf.data(), 37));
  std::string hex;
  for (unsigned char c : frame) hex += StrFormat("%02x", c);
  EXPECT_EQ(hex,
            "2a00000000000000959e577e25000000dc0465aa1fad1d5adae5ac1b1e5f1370"
            "796cfd10ff19af601d04acb41d022b4678733af2df");
}

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
}

TEST(AccumulatingTimerTest, SumsWindows) {
  AccumulatingTimer t;
  t.Start();
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink += i;
  t.Stop();
  double first = t.TotalSeconds();
  EXPECT_GT(first, 0.0);
  t.Start();
  for (int i = 0; i < 10000; ++i) sink += i;
  t.Stop();
  EXPECT_GT(t.TotalSeconds(), first);
  t.Reset();
  EXPECT_EQ(t.TotalSeconds(), 0.0);
}

}  // namespace
}  // namespace crackstore
