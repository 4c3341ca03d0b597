//===- checker/Replay.cpp ------------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Replay.h"

#include "fault/Fault.h"
#include "obs/Trace.h"
#include "runtime/Executor.h"

#include <algorithm>

using namespace p;

namespace {

using Kind = SchedDecision::Kind;

bool hasMachine(const Config &Cfg, int32_t Id) {
  return Id >= 0 && Id < static_cast<int32_t>(Cfg.Machines.size());
}

/// The queue entry a DropEvent/DupEvent decision names, or nullptr.
const std::pair<int32_t, Value> *queueEntry(const Config &Cfg,
                                           const SchedDecision &D) {
  if (!hasMachine(Cfg, D.Machine))
    return nullptr;
  const auto &Q = Cfg.Machines[D.Machine]->Queue;
  return D.Aux >= 0 && D.Aux < static_cast<int32_t>(Q.size()) ? &Q[D.Aux]
                                                              : nullptr;
}

/// The trace line of decision \p D (not a Run), taken before it applies
/// to \p Cfg so it can name what a fault removes.
std::string describeDecision(const Executor &Exec, const Config &Cfg,
                             const SchedDecision &D) {
  switch (D.K) {
  case Kind::Run:
    break;
  case Kind::Delay:
    return "delay " + Exec.describeMachine(Cfg, D.Machine);
  case Kind::Choose:
    return D.Choice ? "choose true" : "choose false";
  case Kind::DropEvent:
  case Kind::DupEvent: {
    const auto *Entry = queueEntry(Cfg, D);
    if (!Entry)
      return "fault: stale queue index (schedule corrupt?)";
    return std::string("fault: ") +
           (D.K == Kind::DupEvent ? "duplicate " : "drop ") +
           Exec.program().Events[Entry->first].Name + " in queue of " +
           Exec.describeMachine(Cfg, D.Machine);
  }
  case Kind::Crash:
    return "fault: crash " + Exec.describeMachine(Cfg, D.Machine);
  case Kind::ForeignFault:
    return D.Choice ? "fault: foreign call fails (returns ⊥)"
                    : "foreign call succeeds";
  }
  return {};
}

/// The trace line of a Run, \p Desc describing its machine before the
/// slice, that ended in \p R and left \p Cfg.
std::string describeRun(const std::string &Desc, const Config &Cfg,
                        const Executor::StepResult &R) {
  // An error raised by an enqueue ends its slice at a plain scheduling
  // point.
  switch (Cfg.hasError() ? Executor::StepOutcome::Error : R.Outcome) {
  case Executor::StepOutcome::Error:
    return Desc + " -> error: " + Cfg.ErrorMessage;
  case Executor::StepOutcome::ChoicePoint:
    return Desc + " -> choice";
  case Executor::StepOutcome::SchedulingPoint:
    return Desc + (R.Created ? " -> created " : " -> sent to ") +
           std::to_string(R.Other);
  case Executor::StepOutcome::Blocked:
    return Desc + " -> blocked";
  case Executor::StepOutcome::Halted:
    return Desc + " -> halted";
  case Executor::StepOutcome::ForeignCall:
    return Desc + " -> foreign call";
  }
  return Desc;
}

} // namespace

void p::applyDecision(const Executor &Exec, Config &Cfg,
                      const SchedDecision &D, int32_t LastRun) {
  switch (D.K) {
  case Kind::Run:
    return; // A slice: Executor::step.
  case Kind::Delay:
    if (obs::TraceSink *Sink = Exec.traceSink())
      Sink->record(obs::TraceKind::Delay, D.Machine);
    return;
  case Kind::Choose:
    if (hasMachine(Cfg, LastRun))
      Cfg.mutableMachine(LastRun).InjectedChoice = D.Choice;
    return;
  case Kind::DropEvent:
  case Kind::DupEvent: {
    const auto *Entry = queueEntry(Cfg, D);
    if (!Entry)
      return;
    const bool Dup = D.K == Kind::DupEvent;
    if (obs::TraceSink *Sink = Exec.traceSink())
      Sink->record(obs::TraceKind::FaultInjected, D.Machine,
                   static_cast<int32_t>(Dup ? FaultKind::DuplicateEvent
                                            : FaultKind::DropEvent),
                   Entry->first);
    // mutableMachine clones only this machine's snapshot.
    auto &Q = Cfg.mutableMachine(D.Machine).Queue;
    if (Dup)
      // The network delivered this message twice: the second copy lands
      // at the back of the queue, deliberately bypassing the send-side
      // ⊎ guard.
      Q.push_back(Q[D.Aux]);
    else
      Q.erase(Q.begin() + D.Aux);
    return;
  }
  case Kind::Crash:
    Exec.crashMachine(Cfg, D.Machine);
    return;
  case Kind::ForeignFault:
    // When it fails, the executor records FaultInjected as the next Run
    // consumes the injected failure.
    if (hasMachine(Cfg, D.Machine))
      Cfg.mutableMachine(D.Machine).InjectedForeignFail = D.Choice;
    return;
  }
}

ReplayResult p::replaySchedule(Executor &Exec,
                               const std::vector<SchedDecision> &Schedule,
                               const CheckOptions &Opts) {
  Executor::Options EO = Exec.options();
  EO.UseModelBodies = Opts.UseModelBodies;
  EO.MaxStepsPerSlice = Opts.MaxStepsPerSlice;
  EO.ForeignFaultPoints =
      std::any_of(Schedule.begin(), Schedule.end(),
                  [](const SchedDecision &D) {
                    return D.K == Kind::ForeignFault;
                  });
  Exec.setOptions(EO);

  ReplayResult Result;
  Config &Cfg = Result.Final;
  Cfg = Exec.makeInitialConfig();
  Cfg.MaxQueue = Opts.MaxQueue;
  Cfg.Overflow = Opts.Overflow;
  Result.Initial = "initial: create " + Exec.describeMachine(Cfg, 0);
  int32_t LastRun = -1;
  for (const SchedDecision &D : Schedule) {
    if (D.K == Kind::Run) {
      LastRun = D.Machine;
      const std::string Desc = "run " + Exec.describeMachine(Cfg, D.Machine);
      const Executor::StepResult R = Exec.step(Cfg, D.Machine);
      Result.Steps.push_back(describeRun(Desc, Cfg, R));
    } else {
      Result.Steps.push_back(describeDecision(Exec, Cfg, D));
      applyDecision(Exec, Cfg, D, LastRun);
    }
    if (Cfg.hasError()) {
      Result.ErrorReached = true;
      Result.Error = Cfg.Error;
      Result.ErrorMessage = Cfg.ErrorMessage;
      break;
    }
  }
  return Result;
}

ReplayResult p::replaySchedule(const CompiledProgram &Prog,
                               const std::vector<SchedDecision> &Schedule,
                               const CheckOptions &Opts) {
  Executor Exec(Prog);
  return replaySchedule(Exec, Schedule, Opts);
}
