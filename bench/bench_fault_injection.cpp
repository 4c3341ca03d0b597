//===- bench/bench_fault_injection.cpp - Bounded-fault exploration ----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fault-budget axis of the checker, measured the way Figure 7
// measures the delay-bound axis. The paper's delaying scheduler bounds
// how often the *scheduler* may misbehave; the fault layer (DESIGN.md
// "Fault model") bounds how often the *transport* may misbehave — drop
// or duplicate a queued event — with the same budget trick, so the
// product exploration stays finite.
//
// Two tables:
//
//   * cost: German (2 clients) at a fixed delay bound, fault budget
//     k = 0, 1, 2. Budget 0 must cost exactly what the fault-free
//     checker costs (the layer erases itself); each +1 multiplies the
//     explored space, which is the price of a stronger adversary.
//     German's unhandled duplicated-grant surfaces here as real errors
//     found (StopOnFirstError=false keeps the sweep exhaustive).
//
//   * payoff: the seeded droppable-InvAck bug (Home's Idle handles a
//     stale InvAck whose CountAck asserts AcksNeeded > 0) is invisible
//     to any delay bound at budget 0 — no fault-free execution delivers
//     an InvAck in Idle — and found immediately with one duplicated
//     InvAck at budget 1.
//
// --report writes the run report (obs/Report.h); --quick shrinks the
// sweep for smoke tests; --workers N as in the Figure 7 harness (fault
// exploration is worker-count deterministic). --help lists the flags.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "support/Interrupt.h"
#include "tool/Tool.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace p;

namespace {

bool QuickFlag = false; ///< --quick: small sweep for smoke tests.
tool::Session S("fault_injection");
std::FILE *Human = stdout;

int32_t eventId(const CompiledProgram &Prog, const char *Name) {
  for (size_t I = 0; I != Prog.Events.size(); ++I)
    if (Prog.Events[I].Name == Name)
      return static_cast<int32_t>(I);
  std::fprintf(stderr, "no event named %s\n", Name);
  std::exit(1);
}

void record(const char *Slug, int DelayBound, int Budget, uint64_t NodeCap,
            const CompiledProgram &Prog, const CheckResult &R) {
  obs::Json Config = S.config(Slug);
  Config.set("delay_bound", DelayBound);
  Config.set("fault_budget", Budget);
  Config.set("node_cap", NodeCap);
  S.record(Prog, std::move(Config), R);
}

} // namespace

int main(int argc, char **argv) {
  // Before anything else: a signal that arrives while the flags parse
  // must already end the run cooperatively.
  interrupt::installHandlers();
  tool::CommandLine Cmd{"bench_fault_injection", "[flags]",
                        S.flags({"--workers", "--reduction", "--report",
                                 "--checkpoint", "--checkpoint-interval",
                                 "--resume"})};
  Cmd.Flags.push_back(
      {"--quick", "", &QuickFlag, "small sweep for smoke tests"});
  Cmd.parse(argc, argv);
  Human = S.human();

  const int DelayBound = QuickFlag ? 1 : 3;
  const uint64_t NodeCap = QuickFlag ? 100000 : 2000000;

  std::fprintf(Human,
               "=== Bounded-fault exploration: German (2 clients), "
               "d=%d, transport faults (drop+duplicate) ===\n",
               DelayBound);
  std::fprintf(Human, "%-10s %-12s %-12s %-10s %-8s %-10s %s\n",
               "budget_k", "states", "nodes", "faults", "errors",
               "seconds", "note");
  CompiledProgram German = tool::compileOrExit(corpus::german(2));
  for (int Budget = 0; Budget <= 2; ++Budget) {
    CheckOptions Opts = S.options("german2-k" + std::to_string(Budget));
    Opts.DelayBound = DelayBound;
    Opts.MaxNodes = NodeCap;
    Opts.StopOnFirstError = false;
    Opts.Faults.Budget = Budget; // Drop + duplicate, the defaults.
    CheckResult R = check(German, Opts);
    record("german2", DelayBound, Budget, NodeCap, German, R);
    std::fprintf(Human, "%-10d %-12llu %-12llu %-10llu %-8llu %-10.3f %s\n",
                 Budget,
                 static_cast<unsigned long long>(R.Stats.DistinctStates),
                 static_cast<unsigned long long>(R.Stats.NodesExplored),
                 static_cast<unsigned long long>(R.Stats.FaultsInjected),
                 static_cast<unsigned long long>(R.Stats.ErrorsFound),
                 R.Stats.Seconds, R.Stats.Exhausted ? "" : "node-cap");
  }

  std::fprintf(Human,
               "\n=== Seeded droppable-InvAck bug: invisible without a "
               "fault budget ===\n");
  std::fprintf(Human, "%-10s %-12s %-10s %s\n", "budget_k", "states",
               "seconds", "result");
  CompiledProgram Buggy = tool::compileOrExit(
      corpus::german(2, corpus::GermanBug::DroppableInvAck));
  for (int Budget = 0; Budget <= 1; ++Budget) {
    CheckOptions Opts =
        S.options("droppable-invack-k" + std::to_string(Budget));
    Opts.DelayBound = QuickFlag ? 0 : 2;
    Opts.Faults.Budget = Budget;
    // Aim the adversary at the ack message so the counterexample is the
    // seeded bug, not base German's shallower duplicated-grant error.
    Opts.Faults.Drop = false;
    Opts.Faults.Duplicate = true;
    Opts.Faults.Events.push_back(eventId(Buggy, "InvAck"));
    CheckResult R = check(Buggy, Opts);
    record("german2_droppable_invack", Opts.DelayBound, Budget,
           Opts.MaxNodes, Buggy, R);
    std::fprintf(Human, "%-10d %-12llu %-10.3f %s%s\n", Budget,
                 static_cast<unsigned long long>(R.Stats.DistinctStates),
                 R.Stats.Seconds,
                 R.ErrorFound ? errorKindName(R.Error)
                              : (R.Stats.Exhausted ? "clean (exhausted)"
                                                   : "clean"),
                 R.ErrorFound ? " (schedule replayable)" : "");
  }

  return S.finish();
}
