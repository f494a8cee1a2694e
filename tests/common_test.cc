#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace monsoon {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = Status::InvalidArgument("bad");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

StatusOr<int> Doubled(StatusOr<int> input) {
  MONSOON_ASSIGN_OR_RETURN(int v, std::move(input));
  return v * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_EQ(Doubled(Status::NotFound("x")).status().code(), StatusCode::kNotFound);
}

TEST(Pcg32Test, DeterministicBySeed) {
  Pcg32 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    uint32_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Pcg32 a2(123), c2(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c2.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Pcg32Test, BoundedStaysInRange) {
  Pcg32 rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Pcg32Test, BoundedCoversAllValues) {
  Pcg32 rng(10);
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Pcg32Test, Int64RangeInclusive) {
  Pcg32 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = rng.NextInt64(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(12);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(BetaSamplerTest, MeanMatchesAlphaOverAlphaPlusBeta) {
  Pcg32 rng(13);
  struct Case {
    double a, b;
  };
  for (Case c : {Case{3, 1}, Case{1, 3}, Case{0.5, 0.5}, Case{2, 10}}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += SampleBeta(rng, c.a, c.b);
    EXPECT_NEAR(sum / n, c.a / (c.a + c.b), 0.02)
        << "Beta(" << c.a << "," << c.b << ")";
  }
}

TEST(BetaSamplerTest, SamplesInUnitInterval) {
  Pcg32 rng(14);
  for (int i = 0; i < 5000; ++i) {
    double v = SampleBeta(rng, 0.5, 0.5);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(ZipfTest, UniformWhenSIsZero) {
  ZipfGenerator zipf(10, 0.0);
  Pcg32 rng(15);
  std::vector<int> counts(11, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next(rng)];
  for (int k = 1; k <= 10; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), 0.1, 0.02);
  }
}

TEST(ZipfTest, SkewConcentratesOnSmallValues) {
  ZipfGenerator zipf(1000, 2.0);
  Pcg32 rng(16);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = zipf.Next(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v == 1) ++ones;
  }
  // P(1) for Zipf(2) over 1000 values is ~0.61.
  EXPECT_GT(ones / static_cast<double>(n), 0.5);
}

TEST(ZipfTest, HigherSkewMeansMoreConcentration) {
  Pcg32 rng(17);
  auto mass_on_one = [&](double s) {
    ZipfGenerator zipf(100, s);
    int ones = 0;
    for (int i = 0; i < 10000; ++i) {
      if (zipf.Next(rng) == 1) ++ones;
    }
    return ones;
  };
  EXPECT_LT(mass_on_one(0.5), mass_on_one(1.5));
  EXPECT_LT(mass_on_one(1.5), mass_on_one(4.0));
}

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  // Nearby inputs should differ in many bits.
  int differing = __builtin_popcountll(Mix64(1) ^ Mix64(2));
  EXPECT_GT(differing, 16);
}

TEST(HashTest, StringHashing) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(StringUtilTest, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimString("  x y  "), "x y");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString("   "), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
}

constexpr Range<int> kAnyInt{INT_MIN, INT_MAX};

TEST(ParseIntTest, ReadsTheWholeStringAsBase10) {
  EXPECT_EQ(ParseNumber("42", kAnyInt), 42);
  EXPECT_EQ(ParseNumber("-5", kAnyInt), -5);
  EXPECT_EQ(ParseNumber("010", kAnyInt), 10);
  for (const char* bad :
       {"", "-", "3x", "x3", "+5", " 5", "5 ", "\t5", "0x10", "1.5", "1e3"}) {
    EXPECT_FALSE(ParseNumber(bad, kAnyInt).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseIntTest, UnsignedTakesNoSign) {
  EXPECT_EQ(ParseNumber("0", kUint64Range), 0u);
  EXPECT_EQ(ParseNumber("7", kUint64Range), 7u);
  EXPECT_FALSE(ParseNumber("-1", kUint64Range).has_value());
  EXPECT_FALSE(ParseNumber("+1", kUint64Range).has_value());
  EXPECT_FALSE(ParseNumber("-1", kListenPortRange).has_value());
}

TEST(ParseIntTest, BothBoundsAreInclusive) {
  EXPECT_EQ(ParseNumber("1", kCountRange), 1);
  EXPECT_EQ(ParseNumber("1024", kCountRange), 1024);
  EXPECT_FALSE(ParseNumber("0", kCountRange).has_value());
  EXPECT_FALSE(ParseNumber("1025", kCountRange).has_value());
  EXPECT_EQ(ParseNumber("0", kListenPortRange), 0);
  EXPECT_EQ(ParseNumber("65535", kListenPortRange), 65535);
  EXPECT_FALSE(ParseNumber("65536", kListenPortRange).has_value());
  EXPECT_FALSE(ParseNumber("70000", kListenPortRange).has_value());
  EXPECT_FALSE(ParseNumber("0", kConnectPortRange).has_value());
  EXPECT_EQ(ParseNumber("9223372036854775", kWideRange), 9223372036854775u);
  EXPECT_FALSE(ParseNumber("9223372036854776", kWideRange).has_value());
}

TEST(ParseIntTest, OverflowIsOutOfRange) {
  EXPECT_EQ(ParseNumber("2147483647", kAnyInt), INT_MAX);
  EXPECT_EQ(ParseNumber("-2147483648", kAnyInt), INT_MIN);
  EXPECT_FALSE(ParseNumber("2147483648", kAnyInt).has_value());
  EXPECT_FALSE(ParseNumber("-2147483649", kAnyInt).has_value());
  EXPECT_FALSE(ParseNumber("9223372036854775807", kAnyInt).has_value());
  EXPECT_FALSE(ParseNumber("9223372036854775808", kAnyInt).has_value());
  EXPECT_FALSE(ParseNumber("-9223372036854775809", kAnyInt).has_value());
  EXPECT_EQ(ParseNumber("18446744073709551615", kUint64Range), UINT64_MAX);
  EXPECT_FALSE(ParseNumber("18446744073709551616", kUint64Range).has_value());
  EXPECT_FALSE(ParseNumber("99999999999999999999", kUint64Range).has_value());
}

TEST(ParseIntTest, DoublesReadDecimals) {
  constexpr Range<double> kUnit{0.0, 1.0};
  EXPECT_EQ(ParseNumber("0.25", kUnit), 0.25);
  EXPECT_EQ(ParseNumber("1", kUnit), 1.0);
  EXPECT_EQ(ParseNumber("0", kUnit), 0.0);
  for (const char* bad :
       {"", "1.5", "-0.1", "+0.5", " 0.5", "0.5x", "nan", "inf", "1e400"}) {
    EXPECT_FALSE(ParseNumber(bad, kUnit).has_value()) << "'" << bad << "'";
  }
}

// common_test is single-threaded, so the cases may set variables.
constexpr const char* kTestVar = "MONSOON_COMMON_TEST_VALUE";

TEST(EnvTest, UnsetVariableGivesTheDefault) {
  unsetenv(kTestVar);
  EXPECT_EQ(EnvNumber(kTestVar, 7, kCountRange), 7);
  EXPECT_FALSE(EnvString(kTestVar).has_value());
  setenv(kTestVar, "", 1);
  EXPECT_EQ(EnvNumber(kTestVar, 7, kCountRange), 7);
  unsetenv(kTestVar);
}

TEST(EnvTest, InvalidValuesGiveTheDefault) {
  setenv(kTestVar, "3x", 1);
  EXPECT_EQ(EnvNumber(kTestVar, 7, kUint64Range), 7u);
  EXPECT_EQ(EnvNumber(kTestVar, 7, kCountRange), 7);
  setenv(kTestVar, "-1", 1);
  EXPECT_EQ(EnvNumber(kTestVar, 7, kUint64Range), 7u);
  setenv(kTestVar, "99999999999", 1);
  EXPECT_EQ(EnvNumber(kTestVar, 1, kCountRange), 1);
  setenv(kTestVar, "70000", 1);
  EXPECT_EQ(EnvNumber(kTestVar, 0, kListenPortRange), 0);
  unsetenv(kTestVar);
}

TEST(EnvTest, InRangeValueIsRead) {
  setenv(kTestVar, "12", 1);
  EXPECT_EQ(EnvNumber(kTestVar, 7, kCountRange), 12);
  EXPECT_EQ(EnvNumber(kTestVar, 7, kUint64Range), 12u);
  EXPECT_EQ(EnvNumber(kTestVar, 0.5, Range<double>{0, 100}), 12.0);
  unsetenv(kTestVar);
}

TEST(FlagTest, NumericFlagStoresAMatchingValue) {
  int threads = 0;
  EXPECT_FALSE(NumericFlag("--shards=4", "--threads=", kCountRange, &threads));
  EXPECT_EQ(threads, 0);
  EXPECT_TRUE(NumericFlag("--threads=4", "--threads=", kCountRange, &threads));
  EXPECT_EQ(threads, 4);
}

TEST(FlagTest, NumericFlagOutOfRangeExitsWithCode2) {
  uint16_t port = 0;
  EXPECT_EXIT(NumericFlag("--port=70000", "--port=", kListenPortRange, &port),
              testing::ExitedWithCode(2),
              "--port expects an integer in \\[0, 65535\\], got '70000'");
  int threads = 0;
  EXPECT_EXIT(NumericFlag("--threads=2x", "--threads=", kCountRange, &threads),
              testing::ExitedWithCode(2), "--threads expects an integer");
}

}  // namespace
}  // namespace monsoon
