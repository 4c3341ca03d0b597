//===- checker/Replay.h - Deterministic schedule replay ---------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a schedule (a sequence of SchedDecisions, e.g. the
/// counterexample from a check() run) deterministically: the same
/// decisions applied to the same program reproduce the same final
/// configuration, including the error. This is the debugging loop the
/// paper's methodology implies — the verifier finds a corner case, the
/// developer re-executes it step by step.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_REPLAY_H
#define P_CHECKER_REPLAY_H

#include "checker/Checker.h"
#include "runtime/Config.h"

#include <string>
#include <vector>

namespace p {

/// Result of a replay.
struct ReplayResult {
  Config Final;                   ///< Configuration after the last step.
  bool ErrorReached = false;
  ErrorKind Error = ErrorKind::None;
  std::string ErrorMessage;
  std::vector<std::string> Steps; ///< Human-readable replay log.
};

/// Replays \p Schedule against a fresh initial configuration of
/// \p Prog. \p UseModelBodies selects the verification build semantics,
/// and \p MaxQueue and \p Overflow the queue bound (all must match the
/// options of the producing check() run).
ReplayResult replaySchedule(const CompiledProgram &Prog,
                            const std::vector<SchedDecision> &Schedule,
                            bool UseModelBodies = true, uint32_t MaxQueue = 0,
                            OverflowPolicy Overflow = OverflowPolicy::Error);

} // namespace p

#endif // P_CHECKER_REPLAY_H
