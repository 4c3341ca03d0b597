//===- checker/Replay.cpp ------------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Replay.h"

#include "runtime/Executor.h"

using namespace p;

ReplayResult p::replaySchedule(const CompiledProgram &Prog,
                               const std::vector<SchedDecision> &Schedule,
                               bool UseModelBodies, uint32_t MaxQueue,
                               OverflowPolicy Overflow) {
  Executor::Options EO;
  EO.UseModelBodies = UseModelBodies;
  // Schedules produced under foreign fault points carry a ForeignFault
  // decision at every foreign-call stop, so the flag (which moves slice
  // boundaries) is deducible from the schedule alone — fault-carrying
  // counterexamples replay without extra configuration.
  for (const SchedDecision &D : Schedule)
    if (D.K == SchedDecision::Kind::ForeignFault) {
      EO.ForeignFaultPoints = true;
      break;
    }
  Executor Exec(Prog, EO);

  ReplayResult Result;
  Result.Final = Exec.makeInitialConfig();
  Result.Final.MaxQueue = MaxQueue;
  Result.Final.Overflow = Overflow;

  int32_t LastRun = -1;
  for (const SchedDecision &D : Schedule) {
    switch (D.K) {
    case SchedDecision::Kind::Delay:
      // Pure scheduler bookkeeping; no configuration effect.
      Result.Steps.push_back("delay");
      continue;
    case SchedDecision::Kind::Choose:
      if (LastRun >= 0 &&
          LastRun < static_cast<int32_t>(Result.Final.Machines.size()))
        Result.Final.mutableMachine(LastRun).InjectedChoice = D.Choice;
      Result.Steps.push_back(D.Choice ? "choose true" : "choose false");
      continue;
    case SchedDecision::Kind::DropEvent:
    case SchedDecision::Kind::DupEvent: {
      auto &Q = Result.Final.mutableMachine(D.Machine).Queue;
      if (D.Aux < 0 || D.Aux >= static_cast<int32_t>(Q.size())) {
        Result.Steps.push_back("fault: stale queue index");
        continue;
      }
      if (D.K == SchedDecision::Kind::DupEvent) {
        Q.push_back(Q[D.Aux]);
        Result.Steps.push_back("fault: duplicate queue entry " +
                               std::to_string(D.Aux) + " of machine " +
                               std::to_string(D.Machine));
      } else {
        Q.erase(Q.begin() + D.Aux);
        Result.Steps.push_back("fault: drop queue entry " +
                               std::to_string(D.Aux) + " of machine " +
                               std::to_string(D.Machine));
      }
      continue;
    }
    case SchedDecision::Kind::Crash:
      Exec.crashMachine(Result.Final, D.Machine);
      Result.Steps.push_back("fault: crash machine " +
                             std::to_string(D.Machine));
      continue;
    case SchedDecision::Kind::ForeignFault:
      if (D.Machine >= 0 &&
          D.Machine < static_cast<int32_t>(Result.Final.Machines.size()))
        Result.Final.mutableMachine(D.Machine).InjectedForeignFail =
            D.Choice;
      Result.Steps.push_back(D.Choice ? "fault: foreign call fails"
                                      : "foreign call succeeds");
      continue;
    case SchedDecision::Kind::Run: {
      LastRun = D.Machine;
      std::string Desc = "run " + Exec.describeMachine(Result.Final,
                                                       D.Machine);
      Executor::StepResult R = Exec.step(Result.Final, D.Machine);
      // An error raised by an enqueue ends its slice at a plain
      // scheduling point.
      switch (Result.Final.hasError() ? Executor::StepOutcome::Error
                                      : R.Outcome) {
      case Executor::StepOutcome::Error:
        Result.ErrorReached = true;
        Result.Error = Result.Final.Error;
        Result.ErrorMessage = Result.Final.ErrorMessage;
        Result.Steps.push_back(Desc + " -> error: " +
                               Result.Final.ErrorMessage);
        return Result;
      case Executor::StepOutcome::SchedulingPoint:
        Result.Steps.push_back(Desc + (R.Created ? " -> created "
                                                 : " -> sent to ") +
                               std::to_string(R.Other));
        continue;
      case Executor::StepOutcome::ChoicePoint:
        Result.Steps.push_back(Desc + " -> choice");
        continue;
      case Executor::StepOutcome::Blocked:
        Result.Steps.push_back(Desc + " -> blocked");
        continue;
      case Executor::StepOutcome::Halted:
        Result.Steps.push_back(Desc + " -> halted");
        continue;
      case Executor::StepOutcome::ForeignCall:
        Result.Steps.push_back(Desc + " -> foreign call");
        continue;
      }
      continue;
    }
    }
  }
  return Result;
}
