//===- checker/Liveness.h - The deferral-liveness check of Section 3.2 -----===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's second liveness property (Section 3.2): under fair
/// scheduling, an enqueued event must eventually be dequeued — events
/// must not be deferrable forever. The erroneous executions are
///
///   ∀m. fair(m) ∧ ∃m,e,m'. ◇(enq(m,e,m') ∧ □¬deq(m',e))
///
/// refined by `postpone` annotations: an execution is excused when the
/// starving event is eventually-always in the postponed set of the
/// receiving machine's current state.
///
/// The paper leaves verifying these properties to future work; this
/// module implements it as lasso detection over the delay-bounded
/// schedule graph. The graph is the safety search's: the DFS takes a
/// node's children from checker/Successors.h, with no fault edges. On
/// finding a cycle it checks
///   * fairness — every machine enabled at every state of the cycle is
///     scheduled at least once in it (weak fairness), and
///   * starvation — some queue entry is present throughout the cycle,
///     its (machine, event) is never dequeued on any cycle edge, and at
///     some state of the cycle it is not postponed.
///
/// The paper's *first* liveness property (no machine runs forever
/// without getting disabled) is enforced by the Executor's per-slice
/// divergence guard (ErrorKind::Divergence).
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_LIVENESS_H
#define P_CHECKER_LIVENESS_H

#include "pir/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace p {

/// Options for a liveness check.
struct LivenessOptions {
  /// Delay budget for the schedule graph (starvation cycles usually
  /// need at least one delay to keep the victim waiting).
  int DelayBound = 1;
  /// Path-depth cap for the DFS.
  int DepthBound = 20000;
  /// Node cap (0 = unlimited).
  uint64_t MaxNodes = 0;
  /// Execute foreign-function model bodies.
  bool UseModelBodies = true;
  /// Micro-step budget per slice.
  uint64_t MaxStepsPerSlice = 100000;
};

/// Result of a liveness check.
struct LivenessResult {
  bool ViolationFound = false;
  std::string Message; ///< e.g. "event 'CloseDoor' pending at Elevator#1
                       ///  can be deferred forever".
  std::vector<std::string> CycleTrace; ///< The lasso's loop, described.
  uint64_t NodesExplored = 0;
  uint64_t CyclesChecked = 0;
  bool Exhausted = true;
};

/// Searches for a fair starvation cycle in \p Prog's schedule graph.
LivenessResult checkLiveness(const CompiledProgram &Prog,
                             const LivenessOptions &Opts);

} // namespace p

#endif // P_CHECKER_LIVENESS_H
