//===- tests/visited_table_test.cpp - The shared visited table ------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// VisitedTable (checker/VisitedTable.h) against a reference model: a
// map from (configuration, tag) to budget applying the same dominance
// rule, plus a set of configurations. Covers random node visits and
// config-only notes across many doublings (configuration 0 included),
// budget replacement surviving a grow, saturated
// budgets that never dominate, the bounded policy's fixed footprint and
// Full windows (which store and count nothing), image round trips after
// stripes grew, and concurrent visits that report each configuration
// new exactly once.
//
//===----------------------------------------------------------------------===//

#include "checker/VisitedTable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

using namespace p;

namespace {

using Visit = VisitedTable::Visit;
constexpr uint64_t TagMask = ~VisitedTable::BudgetMask;
constexpr uint64_t Saturated = VisitedTable::Saturated;

/// The reference model of one table.
struct Reference {
  /// (configuration, stored tag bits) -> stored budget.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Nodes;
  std::set<uint64_t> Cfgs;

  Visit visit(uint64_t Cfg, uint64_t Tag, int Budget) {
    const uint64_t Spent = std::min<uint64_t>(Budget, Saturated);
    const bool Known = !Cfgs.insert(Cfg).second;
    auto [It, Inserted] = Nodes.try_emplace({Cfg, Tag & TagMask}, Spent);
    if (Inserted)
      return Known ? Visit::Explore : Visit::NewConfig;
    uint64_t &StoredBudget = It->second;
    if (StoredBudget != Saturated && StoredBudget <= Spent)
      return Visit::Dominated;
    StoredBudget = Spent;
    return Visit::Explore;
  }

  Visit note(uint64_t Cfg) {
    return Cfgs.insert(Cfg).second ? Visit::NewConfig : Visit::Dominated;
  }
};

/// Configurations drawn from a small pool so most visits are revisits;
/// configuration 0 and the all-ones one (stripe 63) are always in it.
std::vector<uint64_t> cfgPool(size_t N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<uint64_t> Pool{0, ~0ull};
  while (Pool.size() != N)
    Pool.push_back(Rng());
  return Pool;
}

/// Drives \p T and a reference with the same random node visits and
/// config-only notes (about one in five) and expects identical outcomes
/// throughout. Each configuration has up to four node tags; tag 0 and
/// tags differing only below the tag bits are in the mix.
void differential(VisitedTable &T, size_t PoolSize, size_t Steps,
                  uint64_t Seed) {
  const std::vector<uint64_t> Pool = cfgPool(PoolSize, Seed);
  const uint64_t Tags[] = {0, 0x9e3779b97f4a7c15ULL, ~0ull,
                           0x9e3779b97f4a7c15ULL ^ 1};
  std::mt19937_64 Rng(Seed + 1);
  Reference Ref;
  for (size_t I = 0; I != Steps; ++I) {
    const uint64_t Cfg = Pool[Rng() % Pool.size()];
    if (Rng() % 5 == 0) {
      ASSERT_EQ(T.note(Cfg), Ref.note(Cfg)) << "note " << I;
      continue;
    }
    const uint64_t Tag = Tags[Rng() % 4] ^ (Cfg << 20);
    const int Budget = static_cast<int>(Rng() % 6);
    ASSERT_EQ(T.visit(Cfg, Tag, Budget), Ref.visit(Cfg, Tag, Budget))
        << "visit " << I << " cfg " << Cfg;
  }
  // Every stored budget is still there: re-visiting under it is
  // dominated, and every noted configuration is known.
  for (const auto &[Node, Budget] : Ref.Nodes)
    EXPECT_EQ(T.visit(Node.first, Node.second, static_cast<int>(Budget)),
              Visit::Dominated)
        << Node.first;
  for (uint64_t Cfg : Ref.Cfgs)
    EXPECT_EQ(T.note(Cfg), Visit::Dominated) << Cfg;
}

TEST(VisitedTable, GrowableMatchesReferenceAcrossDoublings) {
  VisitedTable T;
  T.init(0);
  const uint64_t Initial = T.bytes();
  // ~2000 configurations per stripe with up to four nodes each: every
  // stripe doubles from 64 slots about seven times.
  differential(T, 120000, 600000, 7);
  EXPECT_GE(T.bytes(), Initial * 64);
}

TEST(VisitedTable, GrowableDenseRevisitsMatchReference) {
  // A denser pool: ten visits per configuration, so most of them meet a
  // stored node and exercise dominance and replacement.
  VisitedTable T;
  T.init(0);
  differential(T, 30000, 300000, 11);
}

TEST(VisitedTable, KeyZeroIsAnOrdinaryKey) {
  VisitedTable T;
  T.init(0);
  EXPECT_EQ(T.note(0), Visit::NewConfig);
  EXPECT_EQ(T.note(0), Visit::Dominated);
  // The node takes over the config-only entry; it is not a new state.
  EXPECT_EQ(T.visit(0, 0, 0), Visit::Explore);
  EXPECT_EQ(T.visit(0, 0, 0), Visit::Dominated);
  EXPECT_EQ(T.visit(0, ~0ull, 0), Visit::Explore); // Another node.
  // Holes are marked in the budget field, so no real entry stands in
  // for configuration 0 and collides with it.
  EXPECT_EQ(T.visit(0x9e3779b97f4a7c15ULL, 0, 0), Visit::NewConfig);
}

TEST(VisitedTable, DelaysAndMaskReplacementSurviveGrow) {
  VisitedTable T;
  T.init(0);
  const uint64_t Cfg = 0x0123456789abcdefULL, Tag = 0xfedcba9876543210ULL;
  ASSERT_EQ(T.visit(Cfg, Tag, 3), Visit::NewConfig);
  ASSERT_EQ(T.visit(Cfg, Tag, 2), Visit::Explore); // Replaces.

  // Fill Cfg's stripe (same top bits) far past one doubling, and give
  // Cfg more nodes of its own.
  const uint64_t Before = T.bytes();
  for (uint64_t I = 1; I <= 1000; ++I) {
    ASSERT_EQ(T.note((Cfg & ~0xffffffffULL) | I), Visit::NewConfig);
    ASSERT_EQ(T.visit(Cfg, Tag + (I << 32), 0), Visit::Explore);
  }
  ASSERT_GT(T.bytes(), Before);

  EXPECT_EQ(T.visit(Cfg, Tag, 2), Visit::Dominated);
  EXPECT_EQ(T.visit(Cfg, Tag, 4), Visit::Dominated); // More delays.
  EXPECT_EQ(T.visit(Cfg, Tag, 1), Visit::Explore);   // Fewer delays.
  EXPECT_EQ(T.visit(Cfg, Tag, 1), Visit::Dominated);
  EXPECT_EQ(T.visit(Cfg, Tag, 2), Visit::Dominated);
  // Only the tag bits above the budget field name the node.
  EXPECT_EQ(T.visit(Cfg, Tag ^ VisitedTable::BudgetMask, 1),
            Visit::Dominated);
}

TEST(VisitedTable, SaturatedBudgetsNeverDominate) {
  for (bool Growable : {true, false}) {
    VisitedTable T;
    T.init(Growable ? 0 : 1 << 20);
    const int Huge = std::numeric_limits<int>::max();
    const int Big = static_cast<int>(Saturated) + 5;
    EXPECT_EQ(T.visit(1, 2, Big), Visit::NewConfig);
    EXPECT_EQ(T.visit(1, 2, Big), Visit::Explore);
    EXPECT_EQ(T.visit(1, 2, Huge), Visit::Explore);
    EXPECT_EQ(T.visit(1, 2, static_cast<int>(Saturated)), Visit::Explore);
    // A real budget replaces it and dominates every larger one.
    EXPECT_EQ(T.visit(1, 2, 3), Visit::Explore);
    EXPECT_EQ(T.visit(1, 2, Huge), Visit::Dominated);
    // The largest budget the field holds still dominates itself.
    const int Largest = static_cast<int>(Saturated) - 1;
    EXPECT_EQ(T.visit(5, 6, Largest), Visit::NewConfig);
    EXPECT_EQ(T.visit(5, 6, Largest), Visit::Dominated);
    EXPECT_EQ(T.visit(5, 6, Largest + 1), Visit::Dominated);
  }
}

// A visit reports the budget the node's entry held before it: what the
// true branch of a `*` needs from its false sibling's probe.
TEST(VisitedTable, VisitReportsTheBudgetItMet) {
  VisitedTable T;
  T.init(0);
  uint64_t Met = 0;
  EXPECT_EQ(T.visit(1, 2 << 20, 3, nullptr, &Met), Visit::NewConfig);
  EXPECT_EQ(Met, VisitedTable::NoBudget);
  EXPECT_EQ(T.visit(1, 2 << 20, 5, nullptr, &Met), Visit::Dominated);
  EXPECT_EQ(Met, 3u); // The budget that dominated it.
  EXPECT_EQ(T.visit(1, 2 << 20, 1, nullptr, &Met), Visit::Explore);
  EXPECT_EQ(Met, 3u); // The budget it replaced.
  EXPECT_EQ(T.visit(1, 4 << 20, 0, nullptr, &Met), Visit::Explore);
  EXPECT_EQ(Met, VisitedTable::NoBudget); // A new node, known config.
  const int Big = static_cast<int>(Saturated) + 1;
  EXPECT_EQ(T.visit(7, 0, Big, nullptr, &Met), Visit::NewConfig);
  EXPECT_EQ(T.visit(7, 0, Big, nullptr, &Met), Visit::Explore);
  EXPECT_EQ(Met, VisitedTable::NoBudget); // Saturated: never dominates.
  EXPECT_EQ(VisitedTable::storedBudget(Big), VisitedTable::NoBudget);
  EXPECT_EQ(VisitedTable::storedBudget(3), 3u);
  EXPECT_EQ(T.usedSlots(), 3u);
  EXPECT_EQ(T.slots() * 16, T.bytes());
}

TEST(VisitedTable, BoundedNeverGrowsAndReportsSaturation) {
  // Below the floor: every stripe gets InitialStripeSlots slots.
  VisitedTable T;
  T.init(1024);
  const uint64_t Cap = T.bytes();
  const uint64_t Slots = VisitedTable::NumStripes *
                         VisitedTable::InitialStripeSlots;
  EXPECT_EQ(Cap, Slots * 2 * sizeof(uint64_t));

  std::mt19937_64 Rng(3);
  std::vector<std::pair<uint64_t, bool>> Stored; // (config, noted).
  uint64_t Full = 0;
  for (uint64_t I = 0; I != 4 * Slots; ++I) {
    const uint64_t Cfg = Rng();
    // Alternate nodes and config-only notes; both fill slots.
    switch (I % 2 ? T.note(Cfg) : T.visit(Cfg, Rng(), 1)) {
    case Visit::NewConfig:
      Stored.push_back({Cfg, I % 2 != 0});
      break;
    case Visit::Full:
      ++Full;
      break;
    default:
      ADD_FAILURE() << "fresh random configuration reported as known";
      break;
    }
    ASSERT_EQ(T.bytes(), Cap) << "a bounded table grew";
  }
  EXPECT_EQ(Stored.size(), Slots); // Every slot filled, then saturation.
  EXPECT_EQ(Full, 4 * Slots - Slots);

  // A saturated table still knows what it stored. A new node of a
  // stored configuration finds no room: Full, not a new state. A node
  // may take over its configuration's config-only entry, once.
  for (const auto &[Cfg, Noted] : Stored) {
    EXPECT_EQ(T.note(Cfg), Visit::Dominated);
    const uint64_t Tag = 0x5555ull << 40;
    EXPECT_EQ(T.visit(Cfg, Tag, 1), Noted ? Visit::Explore : Visit::Full);
    EXPECT_EQ(T.visit(Cfg, Tag, 1), Noted ? Visit::Dominated : Visit::Full);
  }
  EXPECT_EQ(T.note(Rng()), Visit::Full);
  EXPECT_EQ(T.visit(Rng(), 0, 0), Visit::Full);
}

TEST(VisitedTable, ImageRoundTripsUnderBothPolicies) {
  for (uint64_t CapBytes : {uint64_t(0), uint64_t(1) << 20}) {
    SCOPED_TRACE(testing::Message() << "cap=" << CapBytes);
    VisitedTable A;
    A.init(CapBytes);
    const uint64_t Initial = A.bytes();
    std::vector<uint64_t> Pool = cfgPool(20000, 5);
    std::mt19937_64 Rng(6);
    for (int I = 0; I != 60000; ++I) {
      const uint64_t Cfg = Pool[Rng() % Pool.size()];
      if (I % 4 == 0)
        A.note(Cfg);
      else
        A.visit(Cfg, Rng() % 3 << 32, static_cast<int>(Rng() % 4));
    }
    if (!CapBytes) { // The stripes grew before the capture.
      ASSERT_GT(A.bytes(), 8 * Initial);
    }

    VisitedImage Img;
    A.exportImage(Img);
    VisitedTable B;
    B.init(CapBytes);
    ASSERT_TRUE(B.importImage(Img));
    EXPECT_EQ(B.bytes(), A.bytes());
    VisitedImage Again;
    B.exportImage(Again);
    EXPECT_EQ(Again.StripeSlots, Img.StripeSlots);
    EXPECT_EQ(Again.Words, Img.Words);
    EXPECT_EQ(Again.Cfgs, Img.Cfgs);

    // Both tables now answer alike, new configurations included.
    for (int I = 0; I != 20000; ++I) {
      const uint64_t Cfg = (I & 1) ? Pool[Rng() % Pool.size()] : Rng();
      if (I % 3 == 0) {
        ASSERT_EQ(A.note(Cfg), B.note(Cfg));
        continue;
      }
      const uint64_t Tag = Rng() % 3 << 32;
      const int Budget = static_cast<int>(Rng() % 4);
      ASSERT_EQ(A.visit(Cfg, Tag, Budget), B.visit(Cfg, Tag, Budget));
    }

    // An image never loads into a table of another shape.
    VisitedTable OtherCap;
    OtherCap.init(CapBytes ? 2 * CapBytes : uint64_t(1) << 24);
    EXPECT_FALSE(OtherCap.importImage(Img));
  }
}

TEST(VisitedTable, ConcurrentInsertsCountEachKeyOnce) {
  VisitedTable T;
  T.init(0);
  std::vector<uint64_t> Pool = cfgPool(100000, 9);
  std::atomic<uint64_t> New{0}, WaitNs{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W != 4; ++W)
    Threads.emplace_back([&, W] {
      // Every thread covers the whole pool, starting at its own offset,
      // with its own node of each configuration plus a shared one and,
      // for every third, a config-only note.
      for (size_t I = 0; I != Pool.size(); ++I) {
        const uint64_t Cfg = Pool[(I + W * Pool.size() / 4) % Pool.size()];
        const Visit Vs[] = {
            T.visit(Cfg, uint64_t(W + 1) << 40, 0, &WaitNs),
            T.visit(Cfg, 0, 0, &WaitNs),
            I % 3 ? Visit::Dominated : T.note(Cfg, &WaitNs)};
        for (Visit V : Vs)
          if (V == Visit::NewConfig)
            New.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(New.load(), Pool.size());
  for (uint64_t Cfg : Pool)
    for (uint64_t Tag = 0; Tag <= 4; ++Tag)
      ASSERT_EQ(T.visit(Cfg, Tag << 40, 0), Visit::Dominated);
}

} // namespace
