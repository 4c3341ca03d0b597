//===- checker/VisitedTable.h - The search's visited-set engine -----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One lock-striped open-addressing table answers, in one probe, both
/// questions the search asks of a node: "was it explored under a
/// dominating budget?" and "is its configuration new?". The terminal
/// set is a second, always-growable instance used as a plain set.
///
/// The table has NumStripes = 1024 stripes, each a slot array behind
/// its own mutex on its own cache line. With that many, a stripe
/// doubling under its lock stalls a worker that probes it about once
/// in 1024 probes rather than once in 64. On German(2) d=4 with 4
/// workers, 256 stripes were slower and 4096 no faster but larger (see
/// DESIGN.md). A new growable table has 4 slots per stripe: 4096
/// slots, 64 KiB.
///
/// A 16-byte slot holds a full 64-bit configuration hash and one word:
/// a node tag (the scheduler suffix folded into that hash; its top
/// TagBits bits) above a budget field (delays spent, or depth in a
/// depth-bounded search). Stripe and home slot come from the
/// configuration hash, so all entries of one configuration share one
/// linear probe run. A config-only entry (quiescent and error
/// configurations; every state of an Exact-mode run) never dominates. A
/// budget too large for its field saturates, and a saturated stored
/// budget never dominates.
///
/// Two growth policies, picked by the byte cap given to init():
///
///  * growable (cap 0) — a stripe doubles under its own lock once its
///    load passes MaxLoadNum/MaxLoadDen. It never saturates;
///  * bounded (cap > 0) — SPIN-style hash compaction: the slot arrays
///    are sized once from the cap and never grow. A probe whose window
///    (ProbeLimit slots) is full reports Full and stores nothing; the
///    caller prunes and records that omission became possible.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_VISITEDTABLE_H
#define P_CHECKER_VISITEDTABLE_H

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace p {

/// Raw memory for stripe slot arrays: blocks of StripeMapBytes and more
/// are mapped from the OS and unmapped on release, so the generation a
/// doubling stripe leaves behind goes back to the OS instead of staying
/// in the heap as free chunks; smaller blocks use operator new.
constexpr size_t StripeMapBytes = 16 * 1024;
void *allocStripeBytes(size_t Bytes);
void freeStripeBytes(void *P, size_t Bytes);

/// The slot arrays' allocator (see allocStripeBytes).
template <typename T> struct StripeAllocator {
  using value_type = T;
  StripeAllocator() = default;
  template <typename U> StripeAllocator(const StripeAllocator<U> &) {}
  T *allocate(size_t N) {
    return static_cast<T *>(allocStripeBytes(N * sizeof(T)));
  }
  void deallocate(T *P, size_t N) { freeStripeBytes(P, N * sizeof(T)); }
  friend bool operator==(StripeAllocator, StripeAllocator) { return true; }
};

/// Locks \p Mu; when the fast path fails, adds the time spent blocked to
/// \p WaitNs (nullptr: just lock).
std::unique_lock<std::mutex> lockTimed(std::mutex &Mu,
                                       std::atomic<uint64_t> *WaitNs);

/// The one dominance rule of the visited set. A node was explored under
/// the stored budget spent — delays in a delay-bounded search, depth in
/// a depth-bounded one; a later visit under \p Budget is dominated — and
/// pruned — when the stored exploration spent no more: it expanded every
/// child the later visit could, each with at least as much budget left.
/// Otherwise the visit explores and its budget replaces the stored one.
inline bool dominates(uint64_t StoredBudget, uint64_t Budget) {
  return StoredBudget <= Budget;
}

/// A VisitedTable as plain data, for checkpoints. The slots are stored
/// stripe by stripe and positionally (a key's slot depends on its
/// stripe's capacity), so a restored table probes exactly like the
/// captured one. Holes cost only their Words entry.
struct VisitedImage {
  std::vector<uint64_t> StripeSlots; ///< Capacity of each stripe.
  std::vector<uint64_t> Words; ///< Every slot's tag|budget; holes too.
  std::vector<uint64_t> Cfgs;  ///< Occupied slots only, in slot order.
};

class VisitedTable {
public:
  static constexpr unsigned StripeBits = 10;
  static constexpr unsigned NumStripes = 1u << StripeBits;
  /// Slots per stripe of a new growable table (and the bounded floor).
  static constexpr uint64_t InitialStripeSlots = 4;
  /// A growable stripe doubles once used/capacity exceeds this.
  static constexpr uint64_t MaxLoadNum = 3, MaxLoadDen = 4;
  /// Probe window of a bounded table.
  static constexpr uint64_t ProbeLimit = 128;
  /// Split of a slot's second word: the node tag's top TagBits bits
  /// above a BudgetBits-bit budget field. The three largest field
  /// values are markers, not budgets.
  static constexpr unsigned BudgetBits = 20, TagBits = 64 - BudgetBits;
  static_assert(TagBits >= 40, "shorter tags make wrong prunes likely");
  static constexpr uint64_t BudgetMask = (uint64_t(1) << BudgetBits) - 1;
  static constexpr uint64_t Saturated = BudgetMask - 2; ///< Never dominates.
  static constexpr uint64_t CfgOnly = BudgetMask - 1;   ///< No node.
  static constexpr uint64_t EmptySlot = BudgetMask;     ///< A hole.
  /// What visit() reports as the budget it met when the node had no
  /// entry, or one that never dominates.
  static constexpr uint64_t NoBudget = ~uint64_t(0);

  /// Allocates the slot arrays: growable when \p CapBytes is 0,
  /// otherwise bounded to the whole slots that fit in \p CapBytes (at
  /// least InitialStripeSlots per stripe).
  void init(uint64_t CapBytes);

  /// Outcome of visit() and note().
  enum class Visit : uint8_t {
    NewConfig, ///< Stored; no entry of the configuration existed.
    Explore,   ///< Stored or replaced; the configuration was known.
    Dominated, ///< visit(): a stored pair dominates; note(): known.
    Full,      ///< Bounded table, probe window full: nothing stored.
  };

  /// Visits node (\p Cfg, \p Tag) under \p Budget with the rule of
  /// dominates(). Stripe waits are charged to \p WaitNs. \p Met, when
  /// given, receives the budget the node's entry held before the visit:
  /// the one that dominated it or the one it replaced (NoBudget for a
  /// new node or a saturated entry).
  Visit visit(uint64_t Cfg, uint64_t Tag, int Budget,
              std::atomic<uint64_t> *WaitNs = nullptr,
              uint64_t *Met = nullptr) {
    assert(Budget >= 0);
    const uint64_t Spent = std::min<uint64_t>(Budget, Saturated);
    return probe(Cfg, (Tag & ~BudgetMask) | Spent, WaitNs, Met);
  }

  /// Notes configuration \p Cfg without a node: NewConfig when no entry
  /// of it existed (a config-only entry is stored), Dominated when one
  /// did. The terminal set uses it as plain set insertion.
  Visit note(uint64_t Cfg, std::atomic<uint64_t> *WaitNs = nullptr) {
    return probe(Cfg, CfgOnly, WaitNs, nullptr);
  }

  /// The budget an entry stores for a visit under \p Budget, as
  /// visit() reports it: NoBudget once it saturates, as such an entry
  /// never dominates.
  static uint64_t storedBudget(int Budget) {
    return static_cast<uint64_t>(Budget) < Saturated ? Budget : NoBudget;
  }

  /// Allocated slot bytes. Only grows, so it is monotone over a run;
  /// readable without the stripe locks.
  uint64_t bytes() const { return Bytes.load(std::memory_order_relaxed); }

  /// Occupied slots, over every stripe. Reads the stripes without
  /// their locks: call it once no worker probes.
  uint64_t usedSlots() const;
  /// Allocated slots, over every stripe.
  uint64_t slots() const { return bytes() / sizeof(Slot); }

  /// Checkpoint capture and restore. Single-threaded: no worker may be
  /// probing. importImage() runs after init() and fails when the image
  /// does not fit this table's policy or cap; an empty image
  /// (a table the captured run did not use) leaves the table as is.
  void exportImage(VisitedImage &Img) const;
  bool importImage(const VisitedImage &Img);

private:
  struct Slot {
    uint64_t Cfg = 0;
    uint64_t Word = EmptySlot; ///< Tag bits | budget field.
  };
  struct alignas(64) Stripe { // Own cache line per lock.
    std::mutex Mu;
    std::vector<Slot, StripeAllocator<Slot>> Slots; ///< Guarded by Mu.
    uint64_t Used = 0;       ///< Occupied slots; guarded by Mu.
  };

  static unsigned stripeOf(uint64_t Cfg) {
    return static_cast<unsigned>(Cfg >> (64 - StripeBits));
  }
  /// Home slot inside a stripe: multiply-high range reduction of the
  /// bits below the stripe index.
  static uint64_t home(uint64_t Cfg, uint64_t Cap) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Cfg << StripeBits) * Cap) >> 64);
  }
  /// The one probe behind visit() and note(): \p Word is a node's
  /// tag|budget, or CfgOnly for a note.
  Visit probe(uint64_t Cfg, uint64_t Word, std::atomic<uint64_t> *WaitNs,
              uint64_t *Met);
  void grow(Stripe &S);

  bool Growable = true;
  std::atomic<uint64_t> Bytes{0};
  std::array<Stripe, NumStripes> Stripes;
};

} // namespace p

#endif // P_CHECKER_VISITEDTABLE_H
