//===- obs/Profile.h - Search profiler: where states and time go -----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The opt-in search profiler behind CheckOptions::Profile: attributes
/// the exploration's cost to the program being explored. Every search
/// node and distinct state is credited to the machine *type* whose
/// slice produced it (which machine's interleavings drive the blow-up),
/// slices are timed per type, symmetry collapses are credited to the
/// types that earned them, and hot
/// (state, event) dispatches are counted over the same keys the
/// coverage layer uses.
///
/// Each worker accumulates into its own SearchProfile with no locks or
/// atomics (single-writer, like the worker stat counters); the engine
/// merges them in worker-index order after the join, so the merged
/// totals are as deterministic as the counters they reconcile with
/// (states exactly; nodes up to the scheduling races CheckStats already
/// documents for Workers > 1). Profiling is an observer: with the flag
/// off nothing here is touched and CheckStats stays bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef P_OBS_PROFILE_H
#define P_OBS_PROFILE_H

#include "obs/Json.h"

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace p {
struct CompiledProgram;
} // namespace p

namespace p::obs {

/// A plain (non-atomic) histogram over fixed upper bounds with an
/// implicit +Inf bucket — the single-writer sibling of obs::Histogram,
/// mergeable and copyable so per-worker instances can fold into one.
struct ProfileHistogram {
  std::vector<double> Bounds;
  std::vector<uint64_t> Counts; ///< Bounds.size() + 1 once initialized.
  uint64_t N = 0;
  double Sum = 0;

  void init(std::vector<double> UpperBounds);
  void observe(double X);
  /// Adds \p O bucket-wise; bounds must match (both come from init with
  /// the same shape).
  void merge(const ProfileHistogram &O);
  /// Linearly interpolated quantile (0 <= Q <= 1) from the cumulative
  /// buckets; the +Inf bucket clamps to the last finite bound. 0 when
  /// empty.
  double quantile(double Q) const;
  Json toJson() const;
};

/// One machine type's share of the search (see SearchProfile::Machines).
struct MachineProfile {
  uint64_t Nodes = 0;  ///< Search nodes whose producing slice ran this type.
  uint64_t States = 0; ///< Distinct states credited the same way.
  uint64_t Slices = 0; ///< Slices of this type executed.
  /// Of those, slices the interpreter ran (the rest were slice-memo
  /// hits; see checker/SliceMemo.h).
  uint64_t SlicesInterpreted = 0;
  uint64_t SliceNs = 0; ///< Wall time inside those slices.
  uint64_t SymmetryCollapsed = 0; ///< Collapses of nodes this type produced.
};

/// The merged profile of one check() run (CheckResult::Profile).
struct SearchProfile {
  /// False when CheckOptions::Profile was off: every field below is
  /// default-initialized and meaningless.
  bool Enabled = false;

  /// Indexed by machine type; one extra trailing row holds the root
  /// node and anything else no slice produced (see rowOf). With the
  /// profiler on, Nodes summed over all rows equals
  /// CheckStats::NodesExplored exactly, and the trailing row holds only
  /// the root — ≥99% attribution by construction.
  std::vector<MachineProfile> Machines;

  ProfileHistogram Depth;         ///< Depth of each explored node.
  ProfileHistogram DelaysUsed;    ///< Delay budget spent per node.
  ProfileHistogram FaultsUsed;    ///< Fault budget spent per node (only
                                  ///< observed when faults are enabled).
  ProfileHistogram SliceSeconds;  ///< Duration of individual slices.

  /// Dispatches per (machine type, state, event) coverage key — the
  /// hot-transition table — counted as the interpreter runs them: a
  /// slice-memo hit dispatches nothing. std::map keeps merge and
  /// rendering order deterministic.
  std::map<std::tuple<int32_t, int32_t, int32_t>, uint64_t> Transitions;

  /// Fault children pushed, by kind: drop, duplicate, crash, foreign.
  uint64_t FaultKinds[4] = {0, 0, 0, 0};

  /// Slice-memo entries at the end of the run, summed over workers,
  /// and the heap bytes of the snapshots they hold (each snapshot
  /// counted once per worker).
  uint64_t MemoEntries = 0;
  uint64_t MemoBytes = 0;

  /// One visited entry per `*` (DESIGN.md): false-branch probes, each
  /// standing for two branches, and true branches decided by a window
  /// of the worker's ledger or admitted without one.
  uint64_t ChoiceProbes = 0;
  uint64_t ChoiceDecided = 0;
  uint64_t ChoiceUnwindowed = 0;
  /// The visited table's occupied and allocated slots at the end.
  uint64_t VisitedSlotsUsed = 0;
  uint64_t VisitedSlots = 0;

  /// Sizes Machines to \p NumTypes + 1 rows and the histograms to their
  /// standard bounds; sets Enabled.
  void init(size_t NumTypes);

  /// Row index for an attribution type (-1, the root, and anything out
  /// of range land on the trailing row).
  size_t rowOf(int32_t Type) const {
    return Type >= 0 && Type + 1 < static_cast<int32_t>(Machines.size())
               ? static_cast<size_t>(Type)
               : Machines.size() - 1;
  }

  /// Hot path: credit one explored node (depth/delay/fault histograms
  /// included; pass FaultsUsed < 0 to skip the fault histogram).
  void noteNode(int32_t Type, int Depth, int Delays, int Faults) {
    Machines[rowOf(Type)].Nodes += 1;
    this->Depth.observe(Depth);
    DelaysUsed.observe(Delays);
    if (Faults >= 0)
      FaultsUsed.observe(Faults);
  }

  /// Folds \p O into this profile (init must have run on both with the
  /// same type count).
  void merge(const SearchProfile &O);

  /// Nodes credited to real machine types (everything except the
  /// trailing root row).
  uint64_t attributedNodes() const;
  /// Nodes over every row including the root row; reconciles with
  /// CheckStats::NodesExplored.
  uint64_t totalNodes() const;

  /// The profile as a JSON object (machine/state/event names resolved
  /// from \p Prog; the hot-transition table is sorted by count
  /// descending, key ascending, and capped at \p MaxTransitions).
  Json toJson(const CompiledProgram &Prog, size_t MaxTransitions = 32) const;

  /// Human-readable table for bench/example stderr output.
  std::string str(const CompiledProgram &Prog) const;
};

} // namespace p::obs

#endif // P_OBS_PROFILE_H
