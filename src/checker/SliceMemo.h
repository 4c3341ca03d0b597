//===- checker/SliceMemo.h - Per-worker memo of self-contained slices ------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A slice runs one machine to its next `send` or `new` (Section 5). It
/// reads that machine's configuration and its id (`this`); a `send`
/// also reads the target's liveness and queue, for the ⊎ append of rule
/// SEND, and a `new` reads the machine count (rule NEW). Everything else
/// is the machine's own. So a slice that creates no machine and ends
/// without an error is a function of (machine id, local state): its
/// post state, its StepResult and the one send it delivered. The search
/// meets the same pair at many nodes — German(2) at d=4 runs 2.5 M
/// slices from about 1150 pairs — and re-interprets, re-clones and
/// re-hashes each one.
///
/// SliceMemo keeps those results per worker. A hit installs the shared
/// post snapshot, whose fingerprint is cached once for every node that
/// shares it, and replays the send through Executor::enqueueEvent, the
/// call the interpreter makes. The rules:
///
///  * exact — the cached fingerprint only picks an entry; a hit needs
///    the same snapshot or MachineState-equal contents, and the id;
///  * recorded only when self-contained — no error, no `new`, no
///    OverflowDropped bump, and a send that reached enqueueEvent. A
///    self-send is inside the post snapshot and is not replayed;
///  * guarded — a recorded send replays only to a target that
///    Config::isLive (deleted and crashed targets are interpreted: the
///    interpreter's error names the source location);
///  * bounded — SetCount × Ways entries, a hit moves nothing, a new
///    entry replaces the set's least recently used way.
///
/// A `*` resolved right after a memoized slice reuses one snapshot per
/// entry and branch (choose()). An observed executor (Executor::
/// observed) gets no memo: every callback must fire, so run() and
/// choose() then interpret and mutate as the search always did.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_SLICEMEMO_H
#define P_CHECKER_SLICEMEMO_H

#include "runtime/Executor.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

namespace p {

class SliceMemo {
public:
  static constexpr unsigned SetBits = 10;
  static constexpr unsigned SetCount = 1u << SetBits;
  static constexpr unsigned Ways = 2;

  /// Memoizes the slices \p Exec runs, unless it is observed now.
  /// Observers added to \p Exec later see only interpreted slices. With
  /// \p Mismatches set, every hit is also interpreted on a copy by an
  /// observer-free copy of \p Exec and compared; a difference counts
  /// one mismatch (the CheckOptions::VerifyHashes oracle).
  SliceMemo(const Executor &Exec, std::atomic<uint64_t> *Mismatches);

  /// Runs machine \p Id's slice on \p Cfg: from the memo on a hit,
  /// else through the executor, recording it when it is
  /// self-contained. \p Interpreted tells which.
  Executor::StepResult run(Config &Cfg, int32_t Id, bool &Interpreted);

  /// Resolves machine \p Id's pending `*` to \p Choice (sets
  /// InjectedChoice). Right after a run() that hit or recorded an
  /// entry, the entry's snapshot for that branch is shared instead of
  /// cloning the post state.
  void choose(Config &Cfg, int32_t Id, bool Choice);

  /// Occupied entries.
  uint64_t entries() const;
  /// Heap bytes of the snapshots the entries hold, each counted once
  /// (CowMachine::snapshotBytes).
  uint64_t heldBytes() const;

private:
  struct Entry {
    int32_t Id = -1; ///< -1: an empty way.
    uint64_t Fp = 0; ///< machineFingerprint of Pre.
    std::optional<CowMachine> Pre, Post;
    /// Post with InjectedChoice false / true, made on first use.
    std::optional<CowMachine> Choice[2];
    Executor::StepResult R;
    bool Replay = false; ///< R's send goes to another machine's queue.
  };
  struct Set {
    Entry Way[Ways];
    uint8_t Mru = 0; ///< The way hit or filled last.
  };

  Entry *find(Set &S, const CowMachine &Cur, uint64_t Fp, int32_t Id);
  Entry *record(Set &S, CowMachine &&Pre, uint64_t Fp, int32_t Id,
                const Config &Cfg, const Executor::StepResult &R);
  void verify(const Config &Before, const Config &After, int32_t Id,
              const Executor::StepResult &R);

  const Executor &Exec;
  const bool Enabled;
  std::atomic<uint64_t> *Mismatches;
  std::optional<Executor> Oracle; ///< Set when Mismatches is.
  std::vector<Set> Sets;          ///< SetCount sets once enabled.
  Entry *Last = nullptr;          ///< The entry run() last used.
};

} // namespace p

#endif // P_CHECKER_SLICEMEMO_H
