//===- checker/VisitedTable.cpp -------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/VisitedTable.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

using namespace p;

void *p::allocStripeBytes(size_t Bytes) {
#if defined(__unix__) || defined(__APPLE__)
  if (Bytes >= StripeMapBytes) {
    void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    return P;
  }
#endif
  return ::operator new(Bytes);
}

void p::freeStripeBytes(void *P, size_t Bytes) {
#if defined(__unix__) || defined(__APPLE__)
  if (Bytes >= StripeMapBytes) {
    munmap(P, Bytes);
    return;
  }
#endif
  ::operator delete(P);
}

std::unique_lock<std::mutex> p::lockTimed(std::mutex &Mu,
                                          std::atomic<uint64_t> *WaitNs) {
  std::unique_lock<std::mutex> L(Mu, std::try_to_lock);
  if (!L.owns_lock()) {
    auto T0 = std::chrono::steady_clock::now();
    L.lock();
    if (WaitNs)
      WaitNs->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - T0)
                            .count(),
                        std::memory_order_relaxed);
  }
  return L;
}

void VisitedTable::init(uint64_t CapBytes) {
  Growable = CapBytes == 0;
  const uint64_t PerStripe =
      Growable ? InitialStripeSlots
               : std::max<uint64_t>(CapBytes / sizeof(Slot) / NumStripes,
                                    InitialStripeSlots);
  for (Stripe &S : Stripes) {
    S.Slots.assign(PerStripe, Slot{});
    S.Used = 0;
  }
  Bytes.store(NumStripes * PerStripe * sizeof(Slot),
              std::memory_order_relaxed);
}

VisitedTable::Visit VisitedTable::probe(uint64_t Cfg, uint64_t Word,
                                        std::atomic<uint64_t> *WaitNs,
                                        uint64_t *Met) {
  const uint64_t Spent = Word & BudgetMask;
  if (Met)
    *Met = NoBudget;
  Stripe &S = Stripes[stripeOf(Cfg)];
  auto L = lockTimed(S.Mu, WaitNs);
  const uint64_t Cap = S.Slots.size();
  // A growable stripe always has a hole within Cap probes.
  const uint64_t Probes = Growable ? Cap : std::min(ProbeLimit, Cap);
  bool Known = false;   // Some entry of Cfg is in the run.
  uint64_t Reuse = Cap; // Its first config-only entry, if any.
  uint64_t At = home(Cfg, Cap);
  for (uint64_t I = 0; I != Probes; ++I, At = At + 1 == Cap ? 0 : At + 1) {
    Slot &Sl = S.Slots[At];
    const uint64_t Field = Sl.Word & BudgetMask;
    if (Field == EmptySlot) {
      if (Reuse != Cap)
        break;
      Sl = {Cfg, Word};
      ++S.Used;
      if (Growable && S.Used * MaxLoadDen > Cap * MaxLoadNum)
        grow(S);
      return Known ? Visit::Explore : Visit::NewConfig;
    }
    if (Sl.Cfg != Cfg)
      continue;
    if (Spent == CfgOnly)
      return Visit::Dominated; // A note of a known configuration.
    Known = true;
    if (Field == CfgOnly) {
      if (Reuse == Cap)
        Reuse = At;
      continue;
    }
    if ((Sl.Word ^ Word) & ~BudgetMask)
      continue; // Another node of the same configuration.
    if (Met && Field != Saturated)
      *Met = Field;
    if (Field != Saturated && dominates(Field, Spent))
      return Visit::Dominated;
    Sl.Word = Word;
    return Visit::Explore;
  }
  if (Reuse == Cap)
    return Visit::Full;
  // The node takes over its configuration's config-only entry.
  S.Slots[Reuse].Word = Word;
  return Visit::Explore;
}

void VisitedTable::grow(Stripe &S) {
  const uint64_t OldCap = S.Slots.size();
  const uint64_t Cap = 2 * OldCap;
  std::vector<Slot, StripeAllocator<Slot>> Slots(Cap);
  for (const Slot &From : S.Slots) {
    if ((From.Word & BudgetMask) == EmptySlot)
      continue;
    uint64_t At = home(From.Cfg, Cap);
    while ((Slots[At].Word & BudgetMask) != EmptySlot)
      if (++At == Cap)
        At = 0;
    Slots[At] = From;
  }
  S.Slots = std::move(Slots);
  // The net allocation grows by the old array's size.
  Bytes.fetch_add(OldCap * sizeof(Slot), std::memory_order_relaxed);
}

uint64_t VisitedTable::usedSlots() const {
  uint64_t N = 0;
  for (const Stripe &S : Stripes)
    N += S.Used;
  return N;
}

void VisitedTable::exportImage(VisitedImage &Img) const {
  Img = VisitedImage();
  for (const Stripe &S : Stripes) {
    Img.StripeSlots.push_back(S.Slots.size());
    for (const Slot &Sl : S.Slots) {
      Img.Words.push_back(Sl.Word);
      if ((Sl.Word & BudgetMask) != EmptySlot)
        Img.Cfgs.push_back(Sl.Cfg);
    }
  }
}

bool VisitedTable::importImage(const VisitedImage &Img) {
  if (Img.StripeSlots.empty() && Img.Words.empty())
    return true; // A table the captured run did not use.
  if (Img.StripeSlots.size() != NumStripes)
    return false;
  uint64_t Next = 0, NextCfg = 0;
  for (unsigned I = 0; I != NumStripes; ++I) {
    Stripe &S = Stripes[I];
    const uint64_t Cap = Img.StripeSlots[I];
    // Bounded stripes must match this cap; growable ones may have any
    // capacity the captured run grew them to.
    if ((Growable ? Cap < InitialStripeSlots : Cap != S.Slots.size()) ||
        Cap > Img.Words.size() - Next)
      return false;
    S.Slots.assign(Cap, Slot{});
    S.Used = 0;
    for (uint64_t J = 0; J != Cap; ++J) {
      const uint64_t Word = Img.Words[Next++];
      if (Word == EmptySlot)
        continue;
      if ((Word & BudgetMask) == EmptySlot || NextCfg == Img.Cfgs.size())
        return false;
      S.Slots[J] = {Img.Cfgs[NextCfg++], Word};
      ++S.Used;
    }
    // A growable stripe must keep a hole for every probe to end in.
    if (Growable && S.Used * MaxLoadDen > Cap * MaxLoadNum)
      return false;
  }
  if (Next != Img.Words.size() || NextCfg != Img.Cfgs.size())
    return false;
  Bytes.store(Next * sizeof(Slot), std::memory_order_relaxed);
  return true;
}
