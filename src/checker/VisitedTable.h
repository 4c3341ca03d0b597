//===- checker/VisitedTable.h - The search's visited-set engine -----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One lock-striped open-addressing table of 64-bit keys serves every
/// hashed set of the search: the node-dedup table (Fingerprint and
/// Compact modes), the distinct-state set, and the terminal set.
///
/// Each key lives in one of NumStripes stripes, chosen by its top bits;
/// a stripe is a flat slot array behind its own mutex, probed linearly,
/// so one lock is ever held per lookup. A slot stores the key and the
/// least budget spent when the key was explored (delays in a
/// delay-bounded search, depth in a depth-bounded one); a sleep-mask
/// sidecar (one word per slot) exists only when sleep sets are on.
///
/// Two growth policies, picked by the byte cap given to init():
///
///  * growable (cap 0) — a stripe doubles under its own lock once its
///    load passes MaxLoadNum/MaxLoadDen. It never saturates, so the set
///    is exact modulo 64-bit key collisions;
///  * bounded (cap > 0) — SPIN-style hash compaction: the slot arrays
///    are sized once from the cap and never grow. A key whose probe
///    window (ProbeLimit slots) is full is reported as Full: the caller
///    treats it as visited and records that omission became possible.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_VISITEDTABLE_H
#define P_CHECKER_VISITEDTABLE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace p {

/// Locks \p Mu; when the fast path fails, adds the time spent blocked to
/// \p WaitNs (nullptr: just lock).
std::unique_lock<std::mutex> lockTimed(std::mutex &Mu,
                                       std::atomic<uint64_t> *WaitNs);

/// The one dominance rule of the visited set. A key was explored under
/// the stored pair (budget spent, sleep mask) — the budget is delays in
/// a delay-bounded search and depth in a depth-bounded one; a later
/// visit under (\p Delays, \p Mask) is dominated — and pruned — when
/// the stored exploration spent no more budget AND slept on a subset of
/// the machines: it expanded every child the later visit could, each
/// with at least as much budget left. Otherwise the visit explores and
/// its pair replaces the stored one. Replacement is sound because the
/// new pair also describes a real exploration; at worst an incomparable
/// earlier pair is forgotten and some work repeats. With sleep sets off
/// every mask is 0 and the rule is plain min-budget.
inline bool dominatedOrReplace(int32_t &StoredDelays, uint64_t &StoredMask,
                               int Delays, uint64_t Mask) {
  if (StoredDelays <= Delays && (StoredMask & ~Mask) == 0)
    return true;
  StoredDelays = static_cast<int32_t>(Delays);
  StoredMask = Mask;
  return false;
}

/// A VisitedTable as plain data, for checkpoints. The slots are stored
/// stripe by stripe and positionally (a key's slot depends on its
/// stripe's capacity), so a restored table probes exactly like the
/// captured one. Holes cost only their Delays entry.
struct VisitedImage {
  std::vector<uint64_t> StripeSlots; ///< Capacity of each stripe.
  std::vector<int32_t> Delays; ///< Every slot; EmptySlot marks a hole.
  std::vector<uint64_t> Keys;  ///< Occupied slots only, in slot order.
  std::vector<uint64_t> Masks; ///< Likewise; empty without the sidecar.
};

class VisitedTable {
public:
  static constexpr unsigned StripeBits = 6;
  static constexpr unsigned NumStripes = 1u << StripeBits;
  /// Slots per stripe of a new growable table (and the bounded floor).
  static constexpr uint64_t InitialStripeSlots = 64;
  /// A growable stripe doubles once used/capacity exceeds this.
  static constexpr uint64_t MaxLoadNum = 3, MaxLoadDen = 4;
  /// Probe window of a bounded table.
  static constexpr uint64_t ProbeLimit = 128;
  /// Delays value of an unused slot (real entries spend >= 0 delays,
  /// so every 64-bit key, 0 included, is storable).
  static constexpr int32_t EmptySlot = -1;

  /// Allocates the slot arrays: growable when \p CapBytes is 0,
  /// otherwise bounded to the whole slots that fit in \p CapBytes (at
  /// least InitialStripeSlots per stripe; the sidecar is not counted
  /// against the cap). \p WithMasks adds the sleep-mask sidecar.
  void init(uint64_t CapBytes, bool WithMasks);

  /// Outcome of visit().
  enum class Visit : uint8_t {
    Explore,   ///< New key, or a visit the stored pair does not dominate.
    Dominated, ///< Seen before under a dominating pair.
    Full,      ///< Bounded table, probe window full: not stored.
  };

  /// Check-and-insert under the dominance rule (see dominatedOrReplace).
  /// \p Mask must be 0 unless the table has the sidecar. Stripe waits
  /// are charged to \p WaitNs.
  Visit visit(uint64_t Key, int Delays, uint64_t Mask,
              std::atomic<uint64_t> *WaitNs = nullptr);

  /// Set insertion: Explore when \p Key is new.
  Visit insert(uint64_t Key, std::atomic<uint64_t> *WaitNs = nullptr) {
    return visit(Key, 0, 0, WaitNs);
  }

  /// Allocated slot bytes. Only grows, so it is monotone over a run;
  /// readable without the stripe locks.
  uint64_t bytes() const { return Bytes.load(std::memory_order_relaxed); }

  /// Checkpoint capture and restore. Single-threaded: no worker may be
  /// probing. importImage() runs after init() and fails when the image
  /// does not fit this table's policy, cap, or sidecar; an empty image
  /// (a table the captured run did not use) leaves the table as is.
  void exportImage(VisitedImage &Img) const;
  bool importImage(const VisitedImage &Img);

private:
  struct Slot {
    uint64_t Key = 0;
    int32_t Delays = EmptySlot;
  };
  struct alignas(64) Stripe { // Own cache line per lock.
    std::mutex Mu;
    std::vector<Slot> Slots; ///< Guarded by Mu.
    std::vector<uint64_t> Masks; ///< Sidecar, parallel to Slots.
    uint64_t Used = 0;           ///< Occupied slots; guarded by Mu.
  };

  static unsigned stripeOf(uint64_t Key) {
    return static_cast<unsigned>(Key >> (64 - StripeBits));
  }
  /// Home slot inside a stripe, from the low bits (the stripe index
  /// already consumed the high bits).
  static uint64_t home(uint64_t Key, uint64_t Cap) {
    return (Key * 0x2545f4914f6cdd1dULL) % Cap;
  }
  uint64_t slotBytes() const {
    return sizeof(Slot) + (WithMasks ? sizeof(uint64_t) : 0);
  }
  void grow(Stripe &S);

  bool Growable = true;
  bool WithMasks = false;
  std::atomic<uint64_t> Bytes{0};
  std::array<Stripe, NumStripes> Stripes;
};

} // namespace p

#endif // P_CHECKER_VISITEDTABLE_H
