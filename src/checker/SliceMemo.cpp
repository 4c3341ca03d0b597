//===- checker/SliceMemo.cpp ------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/SliceMemo.h"

#include "checker/StateHash.h"
#include "support/Hashing.h"

#include <unordered_set>

using namespace p;

SliceMemo::SliceMemo(const Executor &Exec, std::atomic<uint64_t> *Mismatches)
    : Exec(Exec), Enabled(!Exec.observed()), Mismatches(Mismatches) {
  if (!Enabled)
    return;
  Sets.resize(SetCount);
  if (Mismatches)
    Oracle.emplace(Exec);
}

SliceMemo::Entry *SliceMemo::find(Set &S, const CowMachine &Cur, uint64_t Fp,
                                  int32_t Id) {
  for (unsigned W = 0; W != Ways; ++W) {
    Entry &E = S.Way[W];
    // CowMachine == is the snapshot pointer, else the contents.
    if (E.Id == Id && E.Fp == Fp && *E.Pre == Cur) {
      S.Mru = static_cast<uint8_t>(W);
      return &E;
    }
  }
  return nullptr;
}

SliceMemo::Entry *SliceMemo::record(Set &S, CowMachine &&Pre, uint64_t Fp,
                                    int32_t Id, const Config &Cfg,
                                    const Executor::StepResult &R) {
  const unsigned W = S.Way[0].Id < 0 ? 0 : S.Way[1].Id < 0 ? 1 : 1 - S.Mru;
  Entry &E = S.Way[W];
  E = Entry();
  E.Id = Id;
  E.Fp = Fp;
  E.Pre = std::move(Pre);
  E.Post = Cfg.Machines[Id];
  E.R = R;
  E.Replay =
      R.Outcome == Executor::StepOutcome::SchedulingPoint && R.Other != Id;
  S.Mru = static_cast<uint8_t>(W);
  return &E;
}

Executor::StepResult SliceMemo::run(Config &Cfg, int32_t Id,
                                    bool &Interpreted) {
  Last = nullptr;
  Interpreted = true;
  if (!Enabled || Cfg.hasError())
    return Exec.step(Cfg, Id);

  const uint64_t Fp = machineFingerprint(Cfg.Machines[Id]);
  Set &S = Sets[hashCombine(Fp, static_cast<uint32_t>(Id)) & (SetCount - 1)];
  if (Entry *E = find(S, Cfg.Machines[Id], Fp, Id);
      E && (!E->Replay || Cfg.isLive(E->R.Other))) {
    std::optional<Config> Before;
    if (Oracle)
      Before.emplace(Cfg);
    Cfg.Machines[Id] = *E->Post;
    if (E->Replay)
      Exec.enqueueEvent(Cfg, E->R.Other, E->R.Event, E->R.Payload);
    if (Before)
      verify(*Before, Cfg, Id, E->R);
    Interpreted = false;
    Last = E;
    return E->R;
  }

  // Holding the pre snapshot makes the slice clone it, so the entry's
  // key never changes under it.
  CowMachine Pre = Cfg.Machines[Id];
  const uint64_t Dropped = Cfg.OverflowDropped;
  const Executor::StepResult R = Exec.step(Cfg, Id);
  // Only self-contained slices (see SliceMemo.h). A scheduling point
  // without a delivered send's Event is a `new` or a send that a
  // crashed target dropped.
  if (Cfg.hasError() || R.Outcome == Executor::StepOutcome::Error ||
      (R.Outcome == Executor::StepOutcome::SchedulingPoint && R.Event < 0) ||
      Cfg.OverflowDropped != Dropped)
    return R;
  Last = record(S, std::move(Pre), Fp, Id, Cfg, R);
  return R;
}

void SliceMemo::verify(const Config &Before, const Config &After, int32_t Id,
                       const Executor::StepResult &R) {
  Config Copy = Before;
  const Executor::StepResult Want = Oracle->step(Copy, Id);
  bool Same = Want == R && Copy.Error == After.Error &&
              Copy.ErrorMessage == After.ErrorMessage &&
              Copy.ErrorMachine == After.ErrorMachine &&
              Copy.OverflowDropped == After.OverflowDropped &&
              Copy.Machines.size() == After.Machines.size();
  for (size_t I = 0; Same && I != Copy.Machines.size(); ++I)
    Same = Copy.Machines[I] == After.Machines[I];
  if (!Same)
    Mismatches->fetch_add(1, std::memory_order_relaxed);
}

void SliceMemo::choose(Config &Cfg, int32_t Id, bool Choice) {
  if (Last && Cfg.Machines[Id].sharesSnapshotWith(*Last->Post)) {
    std::optional<CowMachine> &C = Last->Choice[Choice];
    if (!C) {
      MachineState M = **Last->Post;
      M.InjectedChoice = Choice;
      C.emplace(std::move(M));
    }
    Cfg.Machines[Id] = *C;
    return;
  }
  Cfg.mutableMachine(Id).InjectedChoice = Choice;
}

uint64_t SliceMemo::entries() const {
  uint64_t N = 0;
  for (const Set &S : Sets)
    for (const Entry &E : S.Way)
      N += E.Id >= 0;
  return N;
}

uint64_t SliceMemo::heldBytes() const {
  std::unordered_set<const void *> Seen;
  uint64_t Bytes = 0;
  auto Count = [&](const std::optional<CowMachine> &M) {
    if (M && Seen.insert(M->snapshotKey()).second)
      Bytes += M->snapshotBytes();
  };
  for (const Set &S : Sets)
    for (const Entry &E : S.Way) {
      Count(E.Pre);
      Count(E.Post);
      Count(E.Choice[0]);
      Count(E.Choice[1]);
    }
  return Bytes;
}
