//===- tests/choice_ledger_test.cpp - Windows of open `*` pairs -----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The per-worker ledger that decides a true branch from the window its
// false sibling opened (checker/ChoiceLedger.h): opening, nesting, the
// owner closing the window, admission without a window, clearing, and
// the checkpoint round trip.
//
//===----------------------------------------------------------------------===//

#include "checker/ChoiceLedger.h"

#include <gtest/gtest.h>

#include <vector>

using namespace p;

namespace {

using Verdict = ChoiceLedger::Verdict;
constexpr uint64_t None = VisitedTable::NoBudget;

TEST(ChoiceLedger, WindowOfANewChoicePointAdmitsItsTrueBranch) {
  ChoiceLedger L;
  L.onFalse(1, 10, None); // The false branch's probe met no entry.
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L.onTrue(1, 10, 3), Verdict::Admit);
  EXPECT_EQ(L.size(), 0u); // The owner's pop closed the window.
  EXPECT_EQ(L.onTrue(1, 10, 3), Verdict::NoWindow);
}

TEST(ChoiceLedger, MetBudgetDecidesTheTrueBranch) {
  ChoiceLedger L;
  L.onFalse(1, 10, 2); // Explored before under budget 2.
  EXPECT_EQ(L.onTrue(1, 10, 2), Verdict::Prune);
  L.onFalse(1, 10, 2);
  EXPECT_EQ(L.onTrue(1, 10, 1), Verdict::Admit); // 1 is cheaper.
  EXPECT_EQ(L.size(), 0u);
}

TEST(ChoiceLedger, NestedPopsShareTheOwnersWindow) {
  ChoiceLedger L;
  L.onFalse(1, 10, 5); // Owner: its probe replaced budget 5 with 2.
  L.onFalse(1, 10, 2); // Nested, inside the owner's subtree (budget 3).
  L.onFalse(7, 70, None); // Another choice point's window.
  EXPECT_EQ(L.size(), 2u);
  // The nested true branch (budget 3) is admitted against 5 and stores
  // 3; the window stays open for the owner.
  EXPECT_EQ(L.onTrue(1, 10, 3), Verdict::Admit);
  EXPECT_EQ(L.size(), 2u);
  // The owner (budget 2) is admitted against 3 and closes the window.
  EXPECT_EQ(L.onTrue(1, 10, 2), Verdict::Admit);
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L.onTrue(1, 10, 2), Verdict::NoWindow);
  EXPECT_EQ(L.onTrue(7, 70, 0), Verdict::Admit);
  EXPECT_EQ(L.size(), 0u);
}

TEST(ChoiceLedger, NestedTrueBranchAtTheOwnersBudgetPrunesTheOwner) {
  ChoiceLedger L;
  L.onFalse(1, 10, None);
  L.onFalse(1, 10, 4);
  EXPECT_EQ(L.onTrue(1, 10, 4), Verdict::Admit); // Stores 4.
  EXPECT_EQ(L.onTrue(1, 10, 4), Verdict::Prune); // Same budget: pruned.
  EXPECT_EQ(L.size(), 0u);
}

TEST(ChoiceLedger, KeysNeedBothHashes) {
  ChoiceLedger L;
  L.onFalse(1, 10, 0);
  EXPECT_EQ(L.onTrue(2, 10, 5), Verdict::NoWindow);
  EXPECT_EQ(L.onTrue(1, 11, 5), Verdict::NoWindow);
  EXPECT_EQ(L.onTrue(1, 10, 5), Verdict::Prune);
}

TEST(ChoiceLedger, ClearDropsEveryWindow) {
  ChoiceLedger L;
  for (uint64_t K = 0; K != 1000; ++K) // Past several growths.
    L.onFalse(K * 3, K, 1);
  EXPECT_EQ(L.size(), 1000u);
  L.clear();
  EXPECT_EQ(L.size(), 0u);
  for (uint64_t K = 0; K != 1000; ++K)
    ASSERT_EQ(L.onTrue(K * 3, K, 0), Verdict::NoWindow) << K;
}

TEST(ChoiceLedger, ClosingKeepsCollidingWindowsReachable) {
  ChoiceLedger L;
  // Keys equal modulo every power-of-two capacity share one probe run;
  // closing any of them must leave the others findable.
  for (uint64_t K = 0; K != 20; ++K)
    L.onFalse(K, K << 32, K);
  for (uint64_t K = 0; K != 20; K += 2)
    ASSERT_EQ(L.onTrue(K, K << 32, K), Verdict::Prune) << K;
  for (uint64_t K = 1; K < 20; K += 2)
    ASSERT_EQ(L.onTrue(K, K << 32, K - 1), Verdict::Admit) << K;
  EXPECT_EQ(L.size(), 0u);
}

TEST(ChoiceLedger, WindowsSurviveExportAndImport) {
  ChoiceLedger L;
  L.onFalse(1, 10, 6);
  L.onFalse(1, 10, 3);
  L.onFalse(2, 20, None);
  std::vector<ChoiceWindow> Saved;
  L.exportWindows(Saved);
  ASSERT_EQ(Saved.size(), 2u);

  ChoiceLedger R;
  R.onFalse(9, 90, 0); // Replaced by the import.
  R.importWindows(Saved);
  EXPECT_EQ(R.size(), 2u);
  EXPECT_EQ(R.onTrue(9, 90, 0), Verdict::NoWindow);
  EXPECT_EQ(R.onTrue(1, 10, 6), Verdict::Prune); // Nested pop.
  EXPECT_EQ(R.onTrue(1, 10, 5), Verdict::Admit); // The owner closes.
  EXPECT_EQ(R.onTrue(1, 10, 5), Verdict::NoWindow);
  EXPECT_EQ(R.onTrue(2, 20, 7), Verdict::Admit);
}

} // namespace
