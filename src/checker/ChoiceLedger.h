//===- checker/ChoiceLedger.h - Per-worker windows of open `*` pairs -------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search keeps one visited entry per `*`: a choice point's two
/// branches differ only in the chooser's InjectedChoice, so the false
/// branch's pop probes the table for the pair and the true branch's pop
/// never touches it. What the true branch's own entry would hold — the
/// budget it was explored under — equals the pair's entry except over
/// one interval: from the false branch's pop to the true branch's pop,
/// while the false branch's subtree is explored. A ChoiceLedger replays
/// the true branch's entry over those intervals, one window per choice
/// point (see DESIGN.md, "One visited entry per `*`"):
///
///  * opening — a false-branch pop that finds no window for its key
///    opens one holding the budget its probe met (NoBudget when new);
///  * nesting — a later false-branch pop of the same key counts one
///    more nested pop;
///  * deciding — a true-branch pop is admitted when the window holds
///    NoBudget or a budget its own does not dominate; an admitted pop
///    stores its budget, as the table would have;
///  * closing — a true-branch pop with nested pops left decrements the
///    count; otherwise it closes the window.
///
/// A true branch with no window is admitted (a stolen branch, or a
/// restart without saved windows): it may repeat work, never skip it.
/// The ledger belongs to one worker, and its slots are reused: it
/// allocates only when the number of windows open at once doubles.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_CHOICELEDGER_H
#define P_CHECKER_CHOICELEDGER_H

#include "checker/VisitedTable.h"

#include <cstdint>
#include <vector>

namespace p {

/// One open window, keyed by its choice point's (configuration hash,
/// node tag). Also the checkpoint form of a window.
struct ChoiceWindow {
  uint64_t Cfg = 0;
  uint64_t Key = 0;
  uint64_t Budget = VisitedTable::NoBudget; ///< The true branch's entry.
  uint32_t Nested = 0; ///< False-branch pops after the opening one.
};

class ChoiceLedger {
public:
  /// A false-branch pop of choice point (\p Cfg, \p Key) whose probe
  /// met \p Met: opens a window holding \p Met, or nests in the open one.
  void onFalse(uint64_t Cfg, uint64_t Key, uint64_t Met) {
    const size_t I = find(Cfg, Key);
    if (I != NoSlot)
      ++Slots[I].W.Nested;
    else
      insert({Cfg, Key, Met, 0});
  }

  enum class Verdict : uint8_t { Admit, Prune, NoWindow };

  /// A true-branch pop of (\p Cfg, \p Key) under \p Budget: decides it
  /// from the window, then decrements or closes the window.
  Verdict onTrue(uint64_t Cfg, uint64_t Key, uint64_t Budget) {
    const size_t I = find(Cfg, Key);
    if (I == NoSlot)
      return Verdict::NoWindow;
    ChoiceWindow &W = Slots[I].W;
    const bool Pruned =
        W.Budget != VisitedTable::NoBudget && dominates(W.Budget, Budget);
    if (!Pruned)
      W.Budget = Budget;
    if (W.Nested)
      --W.Nested;
    else
      erase(I);
    return Pruned ? Verdict::Prune : Verdict::Admit;
  }

  /// Open windows.
  size_t size() const { return Used; }

  /// Drops every window (the slots stay allocated).
  void clear() {
    if (Used == 0)
      return;
    for (Slot &S : Slots)
      S.Live = false;
    Used = 0;
  }

  /// Checkpoint capture and restore of the open windows.
  void exportWindows(std::vector<ChoiceWindow> &Out) const {
    for (const Slot &S : Slots)
      if (S.Live)
        Out.push_back(S.W);
  }
  void importWindows(const std::vector<ChoiceWindow> &In) {
    clear();
    for (const ChoiceWindow &W : In)
      if (find(W.Cfg, W.Key) == NoSlot)
        insert(W);
  }

private:
  struct Slot {
    ChoiceWindow W;
    bool Live = false;
  };

  static constexpr size_t NoSlot = ~size_t(0);

  size_t mask() const { return Slots.size() - 1; }
  size_t home(uint64_t Key) const { return Key & mask(); }
  size_t next(size_t I) const { return (I + 1) & mask(); }

  size_t find(uint64_t Cfg, uint64_t Key) const {
    if (Used == 0)
      return NoSlot;
    for (size_t I = home(Key); Slots[I].Live; I = next(I))
      if (Slots[I].W.Key == Key && Slots[I].W.Cfg == Cfg)
        return I;
    return NoSlot;
  }

  /// Linear probing, at most half full.
  void insert(const ChoiceWindow &W) {
    if (2 * (Used + 1) > Slots.size())
      rehash(Slots.empty() ? 64 : 2 * Slots.size());
    size_t I = home(W.Key);
    while (Slots[I].Live)
      I = next(I);
    Slots[I] = {W, true};
    ++Used;
  }

  /// Backward-shift deletion: no tombstones, so probe runs stay short.
  void erase(size_t Hole) {
    Slots[Hole].Live = false;
    --Used;
    for (size_t I = next(Hole); Slots[I].Live; I = next(I)) {
      // Move the entry back unless its home lies cyclically in (Hole, I].
      if (((I - home(Slots[I].W.Key)) & mask()) >= ((I - Hole) & mask())) {
        Slots[Hole] = Slots[I];
        Slots[I].Live = false;
        Hole = I;
      }
    }
  }

  void rehash(size_t Cap) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Cap, Slot{});
    Used = 0;
    for (const Slot &S : Old)
      if (S.Live) {
        size_t I = home(S.W.Key);
        while (Slots[I].Live)
          I = next(I);
        Slots[I] = S;
        ++Used;
      }
  }

  std::vector<Slot> Slots; ///< Power-of-two size, at most half full.
  size_t Used = 0;
};

} // namespace p

#endif // P_CHECKER_CHOICELEDGER_H
