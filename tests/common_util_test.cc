// Unit and property tests for the common utilities: Rng, hashing, KMV
// sketch, bit helpers, and the logging threshold.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <set>
#include <unordered_set>

#include "common/bit_util.h"
#include "common/hash.h"
#include "common/kmv.h"
#include "common/logging.h"
#include "common/rng.h"

namespace blusim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Below(13), 13u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  Rng rng(13);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t v = rng.Zipf(100, 0.8);
    ASSERT_LT(v, 100u);
    ++counts[v];
  }
  // The head of the distribution must dominate the tail.
  uint64_t head = counts[0] + counts[1] + counts[2];
  uint64_t tail = counts[97] + counts[98] + counts[99];
  EXPECT_GT(head, 10 * std::max<uint64_t>(tail, 1));
}

TEST(HashTest, Murmur64Deterministic) {
  const char data[] = "hello columnar world";
  EXPECT_EQ(Murmur3_64(data, sizeof(data)), Murmur3_64(data, sizeof(data)));
}

TEST(HashTest, Murmur64SensitiveToEveryByte) {
  std::string base(64, 'a');
  const uint64_t h0 = Murmur3_64(base.data(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    std::string mod = base;
    mod[i] = 'b';
    EXPECT_NE(Murmur3_64(mod.data(), mod.size()), h0) << "byte " << i;
  }
}

TEST(HashTest, Murmur64AllTailLengths) {
  // Covers the 15-way switch over the trailing block.
  std::string data(48, 'x');
  std::set<uint64_t> hashes;
  for (size_t len = 0; len <= 32; ++len) {
    hashes.insert(Murmur3_64(data.data(), len));
  }
  EXPECT_EQ(hashes.size(), 33u);  // all distinct
}

TEST(HashTest, Mix64IsBijectiveOnSample) {
  std::unordered_set<uint64_t> out;
  for (uint64_t v = 0; v < 5000; ++v) out.insert(Mix64(v));
  EXPECT_EQ(out.size(), 5000u);
}

class KmvAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KmvAccuracyTest, EstimateWithin15Percent) {
  const uint64_t distinct = GetParam();
  KmvSketch sketch(256);
  Rng rng(5);
  // Feed 4 occurrences of each value in shuffled-ish order.
  for (int rep = 0; rep < 4; ++rep) {
    for (uint64_t v = 0; v < distinct; ++v) {
      sketch.AddHash(Mix64(v * 2654435761ULL + 17));
    }
  }
  const double est = static_cast<double>(sketch.Estimate());
  const double truth = static_cast<double>(distinct);
  if (distinct < 256) {
    EXPECT_EQ(sketch.Estimate(), distinct);  // exact below k
  } else {
    EXPECT_NEAR(est / truth, 1.0, 0.15) << "estimate " << est;
  }
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, KmvAccuracyTest,
                         ::testing::Values(1, 12, 100, 255, 256, 1000, 10000,
                                           100000, 500000));

TEST(KmvTest, DuplicatesDoNotInflate) {
  KmvSketch sketch(64);
  for (int i = 0; i < 100000; ++i) sketch.AddHash(Mix64(42));
  EXPECT_EQ(sketch.Estimate(), 1u);
}

TEST(KmvTest, MergeEquivalentToUnion) {
  KmvSketch a(128), b(128), all(128);
  for (uint64_t v = 0; v < 5000; ++v) {
    const uint64_t h = Mix64(v);
    if (v % 2 == 0) a.AddHash(h);
    else b.AddHash(h);
    all.AddHash(h);
  }
  a.Merge(b);
  EXPECT_EQ(a.Estimate(), all.Estimate());
}

// Naive KMV over a sorted set of the k smallest distinct hashes: the
// sketch's estimate depends only on that set, so it must match exactly.
class NaiveKmv {
 public:
  explicit NaiveKmv(size_t k) : k_(k) {}
  void AddHash(uint64_t hash) {
    if (kept_.size() < k_) {
      kept_.insert(hash);
    } else if (hash < *kept_.rbegin() && kept_.count(hash) == 0) {
      kept_.erase(std::prev(kept_.end()));
      kept_.insert(hash);
    }
  }
  uint64_t Estimate() const {
    if (kept_.size() < k_) return kept_.size();
    const double hk = static_cast<double>(*kept_.rbegin()) /
                      18446744073709551616.0;
    if (hk <= 0.0) return kept_.size();
    return static_cast<uint64_t>((static_cast<double>(k_) - 1.0) / hk);
  }
  size_t size() const { return kept_.size(); }

 private:
  size_t k_;
  std::set<uint64_t> kept_;
};

TEST(KmvTest, MatchesNaiveReference) {
  // Small k forces evictions and wrap-around in the membership set; draws
  // from a bounded pool repeat values; the all-ones hash (the set's free
  // marker) and clustered small values mix in. A descending stream makes
  // every add past k evict the root.
  std::vector<std::vector<uint64_t>> streams;
  Rng rng(21);
  for (uint64_t pool : {5ULL, 300ULL, 100000ULL}) {
    std::vector<uint64_t> stream;
    for (int i = 0; i < 20000; ++i) {
      switch (rng.Below(8)) {
        case 0: stream.push_back(~0ULL); break;
        case 1: stream.push_back(rng.Below(pool)); break;
        default: stream.push_back(Mix64(rng.Below(pool))); break;
      }
    }
    streams.push_back(std::move(stream));
  }
  std::vector<uint64_t> descending;
  for (uint64_t v = 20000; v > 0; --v) {
    descending.push_back(v << 20);
    descending.push_back(v << 20);
  }
  streams.push_back(std::move(descending));

  for (size_t k : {1u, 2u, 3u, 7u, 64u, 256u}) {
    for (size_t s = 0; s < streams.size(); ++s) {
      KmvSketch sketch(k);
      NaiveKmv naive(k);
      for (size_t i = 0; i < streams[s].size(); ++i) {
        sketch.AddHash(streams[s][i]);
        naive.AddHash(streams[s][i]);
        ASSERT_EQ(sketch.size(), naive.size())
            << "k=" << k << " stream=" << s << " i=" << i;
        ASSERT_EQ(sketch.Estimate(), naive.Estimate())
            << "k=" << k << " stream=" << s << " i=" << i;
      }
    }
  }
}

TEST(BitUtilTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
  EXPECT_EQ(NextPow2((1ULL << 40) + 1), 1ULL << 41);
}

TEST(BitUtilTest, IsPow2) {
  EXPECT_FALSE(IsPow2(0));
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(65));
}

TEST(BitUtilTest, AlignUp) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 16), 16u);
}

TEST(BitUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

// Restores the default (env unset, threshold kWarning) on scope exit so
// these tests cannot leak log-level state into each other.
class LogLevelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("BLUSIM_LOG_LEVEL");
    ReinitLogLevelFromEnvForTest();
  }
};

TEST_F(LogLevelTest, DefaultsToWarningWithoutEnv) {
  unsetenv("BLUSIM_LOG_LEVEL");
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kWarning);
}

TEST_F(LogLevelTest, HonorsNamedEnvLevels) {
  setenv("BLUSIM_LOG_LEVEL", "debug", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kDebug);
  setenv("BLUSIM_LOG_LEVEL", "info", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kInfo);
  setenv("BLUSIM_LOG_LEVEL", "error", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kError);
  setenv("BLUSIM_LOG_LEVEL", "off", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kOff);
}

TEST_F(LogLevelTest, HonorsNumericEnvLevels) {
  setenv("BLUSIM_LOG_LEVEL", "0", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kDebug);
  setenv("BLUSIM_LOG_LEVEL", "4", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kOff);
}

TEST_F(LogLevelTest, GarbageEnvFallsBackToDefault) {
  setenv("BLUSIM_LOG_LEVEL", "verbose-ish", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kWarning);
}

TEST_F(LogLevelTest, SetLogLevelOverridesEnv) {
  setenv("BLUSIM_LOG_LEVEL", "debug", 1);
  ReinitLogLevelFromEnvForTest();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
}

TEST_F(LogLevelTest, LogEveryNCompilesAndRuns) {
  // Streams only on hits 1, 101, 201 of this statement; with the threshold
  // at kOff nothing reaches stderr either way -- this exercises the macro's
  // counter and statement form.
  SetLogLevel(LogLevel::kOff);
  for (int i = 0; i < 250; ++i) {
    BLUSIM_LOG_EVERY_N(Warning, 100) << "hit " << i;
  }
}

}  // namespace
}  // namespace blusim
