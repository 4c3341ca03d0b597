//===- checker/VisitedTable.cpp -------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/VisitedTable.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace p;

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

void VisitedTable::init(uint64_t CapBytes, bool Masks) {
  Growable = CapBytes == 0;
  WithMasks = Masks;
  const uint64_t PerStripe =
      Growable ? InitialStripeSlots
               : std::max<uint64_t>(CapBytes / sizeof(Slot) / NumStripes,
                                    InitialStripeSlots);
  for (Stripe &S : Stripes) {
    S.Slots.assign(PerStripe, Slot{});
    S.Masks.assign(WithMasks ? PerStripe : 0, 0);
    S.Used = 0;
  }
  Bytes.store(NumStripes * PerStripe * slotBytes(), std::memory_order_relaxed);
}

VisitedTable::Visit VisitedTable::visit(uint64_t Key, int Delays,
                                        uint64_t Mask,
                                        std::atomic<uint64_t> *WaitNs) {
  assert(Delays >= 0 && (WithMasks || Mask == 0));
  Stripe &S = Stripes[stripeOf(Key)];
  auto L = lockTimed(S.Mu, WaitNs);
  const uint64_t Cap = S.Slots.size();
  // A growable stripe always has a hole within Cap probes.
  const uint64_t Probes = Growable ? Cap : std::min(ProbeLimit, Cap);
  uint64_t At = home(Key, Cap);
  for (uint64_t I = 0; I != Probes; ++I) {
    Slot &Sl = S.Slots[At];
    if (Sl.Delays == EmptySlot) {
      Sl.Key = Key;
      Sl.Delays = static_cast<int32_t>(Delays);
      if (WithMasks)
        S.Masks[At] = Mask;
      ++S.Used;
      if (Growable && S.Used * MaxLoadDen > Cap * MaxLoadNum)
        grow(S);
      return Visit::Explore;
    }
    if (Sl.Key == Key) {
      uint64_t NoMask = 0;
      return dominatedOrReplace(Sl.Delays, WithMasks ? S.Masks[At] : NoMask,
                                Delays, Mask)
                 ? Visit::Dominated
                 : Visit::Explore;
    }
    if (++At == Cap)
      At = 0;
  }
  return Visit::Full;
}

void VisitedTable::grow(Stripe &S) {
  const uint64_t OldCap = S.Slots.size();
  const uint64_t Cap = 2 * OldCap;
  std::vector<Slot> Slots(Cap);
  std::vector<uint64_t> Masks(WithMasks ? Cap : 0, 0);
  for (uint64_t I = 0; I != OldCap; ++I) {
    const Slot &From = S.Slots[I];
    if (From.Delays == EmptySlot)
      continue;
    uint64_t At = home(From.Key, Cap);
    while (Slots[At].Delays != EmptySlot)
      if (++At == Cap)
        At = 0;
    Slots[At] = From;
    if (WithMasks)
      Masks[At] = S.Masks[I];
  }
  S.Slots = std::move(Slots);
  S.Masks = std::move(Masks);
  // The net allocation grows by the old arrays' size.
  Bytes.fetch_add(OldCap * slotBytes(), std::memory_order_relaxed);
}

void VisitedTable::exportImage(VisitedImage &Img) const {
  Img = VisitedImage();
  for (const Stripe &S : Stripes) {
    Img.StripeSlots.push_back(S.Slots.size());
    for (size_t I = 0; I != S.Slots.size(); ++I) {
      Img.Delays.push_back(S.Slots[I].Delays);
      if (S.Slots[I].Delays == EmptySlot)
        continue;
      Img.Keys.push_back(S.Slots[I].Key);
      if (WithMasks)
        Img.Masks.push_back(S.Masks[I]);
    }
  }
}

bool VisitedTable::importImage(const VisitedImage &Img) {
  if (Img.StripeSlots.empty() && Img.Delays.empty())
    return true; // A table the captured run did not use.
  if (Img.StripeSlots.size() != NumStripes ||
      Img.Masks.size() != (WithMasks ? Img.Keys.size() : 0))
    return false;
  uint64_t Next = 0, NextKey = 0;
  for (unsigned I = 0; I != NumStripes; ++I) {
    Stripe &S = Stripes[I];
    const uint64_t Cap = Img.StripeSlots[I];
    // Bounded stripes must match this cap; growable ones may have any
    // capacity the captured run grew them to.
    if ((Growable ? Cap < InitialStripeSlots : Cap != S.Slots.size()) ||
        Cap > Img.Delays.size() - Next)
      return false;
    S.Slots.assign(Cap, Slot{});
    S.Masks.assign(WithMasks ? Cap : 0, 0);
    S.Used = 0;
    for (uint64_t J = 0; J != Cap; ++J) {
      const int32_t Delays = Img.Delays[Next++];
      if (Delays == EmptySlot)
        continue;
      if (Delays < 0 || NextKey == Img.Keys.size())
        return false;
      S.Slots[J] = {Img.Keys[NextKey], Delays};
      if (WithMasks)
        S.Masks[J] = Img.Masks[NextKey];
      ++NextKey;
      ++S.Used;
    }
    // A growable stripe must keep a hole for every probe to end in.
    if (Growable && S.Used * MaxLoadDen > Cap * MaxLoadNum)
      return false;
  }
  if (Next != Img.Delays.size() || NextKey != Img.Keys.size())
    return false;
  Bytes.store(Next * slotBytes(), std::memory_order_relaxed);
  return true;
}
