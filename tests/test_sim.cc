// Unit tests for the sim substrate: deterministic PRNG, stat counters and
// logging plumbing.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/log.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace hht::sim {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next64(), b.next64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += (a.next64() != b.next64());
  EXPECT_GT(differing, 60);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(77);
  const std::uint64_t first = a.next64();
  a.next64();
  a.reseed(77);
  EXPECT_EQ(first, a.next64());
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_LT(rng.nextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.nextBelow(8));
  EXPECT_EQ(seen.size(), 8u);  // all 8 residues appear in 400 draws
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.nextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // uniform mean
}

TEST(Rng, NextFloatRespectsBounds) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.nextFloat(-2.5f, 7.25f);
    ASSERT_GE(f, -2.5f);
    ASSERT_LT(f, 7.25f);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.nextBool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(StatSet, CounterStartsAtZeroAndAccumulates) {
  StatSet s;
  EXPECT_EQ(s.value("a.b"), 0u);
  EXPECT_FALSE(s.contains("a.b"));
  s.counter("a.b") += 3;
  s.counter("a.b") += 4;
  EXPECT_EQ(s.value("a.b"), 7u);
  EXPECT_TRUE(s.contains("a.b"));
}

TEST(StatSet, ReferencesStayValidAcrossInserts) {
  StatSet s;
  std::uint64_t& a = s.counter("first");
  for (int i = 0; i < 100; ++i) s.counter("other." + std::to_string(i)) = 1;
  a = 42;
  EXPECT_EQ(s.value("first"), 42u);
}

TEST(StatSet, AbsorbPrefixesAndSums) {
  StatSet inner;
  inner.counter("x") = 5;
  StatSet outer;
  outer.counter("pre.x") = 2;
  outer.absorb(inner, "pre.");
  EXPECT_EQ(outer.value("pre.x"), 7u);
}

TEST(StatSet, ClearRemovesEverything) {
  StatSet s;
  s.counter("a") = 1;
  s.clear();
  EXPECT_FALSE(s.contains("a"));
  EXPECT_TRUE(s.all().empty());
}

TEST(Log, SetAndGetLevel) {
  setLogLevel(LogLevel::Debug);
  EXPECT_EQ(logLevel(), LogLevel::Debug);
  setLogLevel(LogLevel::Off);
  EXPECT_EQ(logLevel(), LogLevel::Off);
}

TEST(Log, MacroIsSilentWhenDisabled) {
  setLogLevel(LogLevel::Off);
  // Must compile, evaluate the level check only, and not crash.
  HHT_LOG_AT(Trace, "test", "value=%d", 42);
  SUCCEED();
}

}  // namespace
}  // namespace hht::sim
