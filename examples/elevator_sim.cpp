//===- examples/elevator_sim.cpp - The paper's elevator, end to end ---------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The Section 2 elevator (Figures 1-2). This example
//   1. verifies the full model (ghost User/Door/Timer environment)
//      across delay bounds, reporting explored-state counts (the
//      Figure 7 quantity),
//   2. demonstrates that the verifier pinpoints a seeded defect with a
//      readable counterexample,
//   3. simulates the erased elevator interactively: the process plays
//      door/timer hardware and user, scripted here.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "host/Host.h"
#include "tool/Tool.h"

#include <cstdio>

using namespace p;
using tool::compileOrExit;

int main() {
  std::printf("== 1. Verify the elevator model ==\n");
  CompiledProgram Model = compileOrExit(corpus::elevator());
  std::printf("%s\n", Model.summary().c_str());
  for (int Delay = 0; Delay <= 4; ++Delay) {
    CheckOptions Opts;
    Opts.DelayBound = Delay;
    CheckResult R = check(Model, Opts);
    std::printf("  d=%d: %-9s states=%-7llu slices=%-8llu %.3fs\n", Delay,
                R.ErrorFound ? errorKindName(R.Error) : "clean",
                static_cast<unsigned long long>(R.Stats.DistinctStates),
                static_cast<unsigned long long>(R.Stats.Slices),
                R.Stats.Seconds);
  }

  std::printf("\n== 2. A seeded defect and its counterexample ==\n");
  CompiledProgram Buggy = compileOrExit(
      corpus::elevator(corpus::ElevatorBug::MissingDeferCloseDoor));
  for (int Delay = 0; Delay <= 2; ++Delay) {
    CheckOptions Opts;
    Opts.DelayBound = Delay;
    CheckResult R = check(Buggy, Opts);
    if (!R.ErrorFound)
      continue;
    std::printf("  found %s at delay bound %d (%llu states):\n",
                errorKindName(R.Error), Delay,
                static_cast<unsigned long long>(R.Stats.DistinctStates));
    size_t Start = R.Trace.size() > 8 ? R.Trace.size() - 8 : 0;
    if (Start)
      std::printf("    ... (%zu earlier steps)\n", Start);
    for (size_t I = Start; I != R.Trace.size(); ++I)
      std::printf("    %s\n", R.Trace[I].c_str());
    break;
  }

  std::printf("\n== 3. Run the erased elevator ==\n");
  CompiledProgram Driver = compileOrExit(corpus::elevator(), true);
  Host H(Driver);
  int32_t Id = H.createMachine("Elevator");

  struct { const char *Event; const char *Comment; } Script[] = {
      {"OpenDoor", "user presses open"},
      {"DoorOpened", "door hardware reports open"},
      {"TimerFired", "door-close timer expires"},
      {"CloseDoor", "user presses close"},
      {"OperationSuccess", "timer hardware confirms cancel"},
      {"DoorClosed", "door hardware reports closed"},
  };
  std::printf("  %-18s -> %s\n", "(created)",
              H.currentStateName(Id).c_str());
  for (const auto &Step : Script) {
    if (!H.addEvent(Id, Step.Event)) {
      std::fprintf(stderr, "error: %s\n", H.errorMessage().c_str());
      return 1;
    }
    std::printf("  %-18s -> %-22s (%s)\n", Step.Event,
                H.currentStateName(Id).c_str(), Step.Comment);
  }

  std::printf("\nelevator_sim ok\n");
  return 0;
}
