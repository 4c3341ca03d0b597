//===- tests/visited_table_test.cpp - The shared visited table ------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// VisitedTable (checker/VisitedTable.h) against a std::unordered_map
// reference that applies the same dominance rule: random keys across
// many doublings (key 0 included), (delays, mask) replacement surviving
// a grow, the bounded policy's fixed footprint and saturation, image
// round trips under both policies, and concurrent insertion.
//
//===----------------------------------------------------------------------===//

#include "checker/VisitedTable.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace p;

namespace {

using Visit = VisitedTable::Visit;

/// The reference: a plain map applying dominatedOrReplace.
struct Reference {
  std::unordered_map<uint64_t, std::pair<int32_t, uint64_t>> Map;

  Visit visit(uint64_t Key, int Delays, uint64_t Mask) {
    auto [It, Inserted] = Map.try_emplace(Key, Delays, Mask);
    if (Inserted)
      return Visit::Explore;
    return dominatedOrReplace(It->second.first, It->second.second, Delays,
                              Mask)
               ? Visit::Dominated
               : Visit::Explore;
  }
};

/// Keys drawn from a small pool so most visits are revisits; key 0 and
/// the all-ones key (stripe 63) are always in the pool.
std::vector<uint64_t> keyPool(size_t N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<uint64_t> Pool{0, ~0ull};
  while (Pool.size() != N)
    Pool.push_back(Rng());
  return Pool;
}

/// Drives \p T and a reference with the same random visits and expects
/// identical outcomes throughout.
void differential(VisitedTable &T, bool Masks, size_t PoolSize,
                  size_t Visits, uint64_t Seed) {
  std::vector<uint64_t> Pool = keyPool(PoolSize, Seed);
  std::mt19937_64 Rng(Seed + 1);
  Reference Ref;
  for (size_t I = 0; I != Visits; ++I) {
    const uint64_t Key = Pool[Rng() % Pool.size()];
    const int Delays = static_cast<int>(Rng() % 6);
    const uint64_t Mask = Masks ? Rng() & 0xf : 0;
    ASSERT_EQ(T.visit(Key, Delays, Mask), Ref.visit(Key, Delays, Mask))
        << "visit " << I << " key " << Key;
  }
  // Every stored pair is still there: re-visiting under it is dominated.
  for (const auto &[Key, Pair] : Ref.Map)
    EXPECT_EQ(T.visit(Key, Pair.first, Pair.second), Visit::Dominated) << Key;
}

TEST(VisitedTable, GrowableMatchesReferenceAcrossDoublings) {
  VisitedTable T;
  T.init(0, false);
  const uint64_t Initial = T.bytes();
  // ~3000 keys per stripe: each stripe doubles from 64 slots about six
  // times.
  differential(T, false, 200000, 600000, 7);
  EXPECT_GE(T.bytes(), Initial * 32);
}

TEST(VisitedTable, GrowableWithMasksMatchesReference) {
  VisitedTable T;
  T.init(0, true);
  differential(T, true, 50000, 300000, 11);
}

TEST(VisitedTable, KeyZeroIsAnOrdinaryKey) {
  VisitedTable T;
  T.init(0, false);
  EXPECT_EQ(T.insert(0), Visit::Explore);
  EXPECT_EQ(T.insert(0), Visit::Dominated);
  // Empty slots are marked in the delays field, so no real key stands
  // in for 0 and collides with it.
  EXPECT_EQ(T.insert(0x9e3779b97f4a7c15ULL), Visit::Explore);
}

TEST(VisitedTable, DelaysAndMaskReplacementSurviveGrow) {
  VisitedTable T;
  T.init(0, true);
  const uint64_t Key = 0x0123456789abcdefULL;
  ASSERT_EQ(T.visit(Key, 3, 0b10), Visit::Explore);
  ASSERT_EQ(T.visit(Key, 2, 0b01), Visit::Explore); // Replaces (3, 0b10).

  // Fill Key's stripe (same top bits) far past one doubling.
  const uint64_t Before = T.bytes();
  for (uint64_t I = 1; I <= 1000; ++I)
    ASSERT_EQ(T.insert((Key & ~0xffffffffULL) | I), Visit::Explore);
  ASSERT_GT(T.bytes(), Before);

  EXPECT_EQ(T.visit(Key, 2, 0b01), Visit::Dominated);
  EXPECT_EQ(T.visit(Key, 4, 0b11), Visit::Dominated); // Superset mask.
  EXPECT_EQ(T.visit(Key, 3, 0b10), Visit::Explore);   // Mask not covered.
  // (3, 0b10) replaced (2, 0b01): the forgotten pair no longer prunes.
  EXPECT_EQ(T.visit(Key, 2, 0b01), Visit::Explore);
  EXPECT_EQ(T.visit(Key, 1, 0b01), Visit::Explore); // Fewer delays.
  EXPECT_EQ(T.visit(Key, 1, 0b01), Visit::Dominated);
}

TEST(VisitedTable, BoundedNeverGrowsAndReportsSaturation) {
  // Below the floor: every stripe gets InitialStripeSlots slots.
  VisitedTable T;
  T.init(1024, false);
  const uint64_t Cap = T.bytes();
  const uint64_t Slots = VisitedTable::NumStripes *
                         VisitedTable::InitialStripeSlots;
  EXPECT_GE(Cap, Slots * (sizeof(uint64_t) + sizeof(int32_t)));

  std::mt19937_64 Rng(3);
  std::vector<uint64_t> Stored;
  uint64_t Full = 0;
  for (uint64_t I = 0; I != 4 * Slots; ++I) {
    const uint64_t Key = Rng();
    switch (T.insert(Key)) {
    case Visit::Explore:
      Stored.push_back(Key);
      break;
    case Visit::Full:
      ++Full;
      break;
    case Visit::Dominated:
      ADD_FAILURE() << "fresh random key reported as seen";
      break;
    }
    ASSERT_EQ(T.bytes(), Cap) << "a bounded table grew";
  }
  EXPECT_EQ(Stored.size(), Slots); // Every slot filled, then saturation.
  EXPECT_EQ(Full, 4 * Slots - Slots);
  for (uint64_t Key : Stored)
    EXPECT_EQ(T.insert(Key), Visit::Dominated);
}

TEST(VisitedTable, ImageRoundTripsUnderBothPolicies) {
  for (uint64_t CapBytes : {uint64_t(0), uint64_t(1) << 20}) {
    for (bool Masks : {false, true}) {
      SCOPED_TRACE(testing::Message() << "cap=" << CapBytes
                                      << " masks=" << Masks);
      VisitedTable A;
      A.init(CapBytes, Masks);
      std::vector<uint64_t> Pool = keyPool(20000, 5);
      std::mt19937_64 Rng(6);
      for (int I = 0; I != 60000; ++I)
        A.visit(Pool[Rng() % Pool.size()], static_cast<int>(Rng() % 4),
                Masks ? Rng() & 3 : 0);

      VisitedImage Img;
      A.exportImage(Img);
      VisitedTable B;
      B.init(CapBytes, Masks);
      ASSERT_TRUE(B.importImage(Img));
      EXPECT_EQ(B.bytes(), A.bytes());
      VisitedImage Again;
      B.exportImage(Again);
      EXPECT_EQ(Again.StripeSlots, Img.StripeSlots);
      EXPECT_EQ(Again.Keys, Img.Keys);
      EXPECT_EQ(Again.Delays, Img.Delays);
      EXPECT_EQ(Again.Masks, Img.Masks);

      // Both tables now answer every visit alike, new keys included.
      for (int I = 0; I != 20000; ++I) {
        const uint64_t Key = (I & 1) ? Pool[Rng() % Pool.size()] : Rng();
        const int Delays = static_cast<int>(Rng() % 4);
        const uint64_t Mask = Masks ? Rng() & 3 : 0;
        ASSERT_EQ(A.visit(Key, Delays, Mask), B.visit(Key, Delays, Mask));
      }

      // An image never loads into a table of another shape.
      VisitedTable OtherMasks;
      OtherMasks.init(CapBytes, !Masks);
      EXPECT_FALSE(OtherMasks.importImage(Img));
      VisitedTable OtherCap;
      OtherCap.init(CapBytes ? 2 * CapBytes : uint64_t(1) << 20, Masks);
      EXPECT_FALSE(OtherCap.importImage(Img));
    }
  }
}

TEST(VisitedTable, ConcurrentInsertsCountEachKeyOnce) {
  VisitedTable T;
  T.init(0, false);
  std::vector<uint64_t> Pool = keyPool(100000, 9);
  std::atomic<uint64_t> New{0}, WaitNs{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W != 4; ++W)
    Threads.emplace_back([&, W] {
      // Every thread inserts the whole pool, starting at its own offset.
      for (size_t I = 0; I != Pool.size(); ++I)
        if (T.insert(Pool[(I + W * Pool.size() / 4) % Pool.size()],
                     &WaitNs) == Visit::Explore)
          New.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(New.load(), Pool.size());
}

} // namespace
