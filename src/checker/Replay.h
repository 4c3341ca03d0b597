//===- checker/Replay.h - The schedule interpreter --------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interpreter of schedules (sequences of SchedDecisions, e.g.
/// the counterexample of a check() run): the same decisions applied to
/// the same program reproduce the same final configuration, including
/// the error. This is the debugging loop the paper's methodology
/// implies — the verifier finds a corner case, the developer re-executes
/// it step by step.
///
/// Every consumer of a schedule goes through replaySchedule: check()
/// renders CheckResult::Trace from its Steps (Trace is the "initial:"
/// line followed by Steps), and obs::renderScheduleMsc replays with a
/// trace sink attached. applyDecision is the one statement of what a
/// decision other than Run does to a configuration; the search's fault
/// and delay children call it too.
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
  std::string Initial;            ///< "initial: create <main machine>".
  std::vector<std::string> Steps; ///< One line per decision replayed.
};

/// Replays \p Schedule against a fresh initial configuration of \p
/// Exec's program, stopping at the first error. \p Exec is set up the
/// way the producing check() set up its own: Opts.UseModelBodies and
/// Opts.MaxStepsPerSlice, plus foreign fault points when the schedule
/// resolves a foreign call (they move slice boundaries, and such a
/// schedule carries a ForeignFault decision at every foreign call, so
/// the flag is deduced from the schedule alone). The configuration
/// takes Opts.MaxQueue and Opts.Overflow. Everything else about \p Exec
/// — natives, observers, a trace sink — is the caller's.
ReplayResult replaySchedule(Executor &Exec,
                            const std::vector<SchedDecision> &Schedule,
                            const CheckOptions &Opts);

/// As above, with a fresh executor of \p Prog.
ReplayResult replaySchedule(const CompiledProgram &Prog,
                            const std::vector<SchedDecision> &Schedule,
                            const CheckOptions &Opts = {});

/// Applies decision \p D, any kind but Run, to \p Cfg: Delay records
/// itself in Exec's trace sink and leaves \p Cfg alone; Choose resolves
/// the pending `*` of \p LastRun, the machine of the last Run;
/// ForeignFault resolves D.Machine's pending foreign call; DropEvent
/// and DupEvent edit D.Machine's queue at D.Aux and record
/// FaultInjected; Crash crashes D.Machine (crashMachine records it). A
/// machine or queue index that \p Cfg lacks leaves it unchanged.
void applyDecision(const Executor &Exec, Config &Cfg, const SchedDecision &D,
                   int32_t LastRun);

} // namespace p

#endif // P_CHECKER_REPLAY_H
