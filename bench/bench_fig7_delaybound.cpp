//===- bench/bench_fig7_delaybound.cpp - Figure 7 reproduction --------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 7: "States explored with increasing delay bound" for the three
// benchmark P programs (Elevator from Section 2, the Switch-and-LED
// driver, German's cache coherence protocol). The paper's observations,
// which this harness regenerates:
//
//   * explored states grow with the delay bound d and eventually
//     saturate (the paper reports saturation around d = 12 on Zing; our
//     models/state encodings differ, so the saturation point differs,
//     but the shape — growth then plateau — is the claim);
//   * bugs in buggy versions of these designs are found within a delay
//     bound of 2, at state counts far below saturation.
//
// Output: one CSV-ish series per program, then the seeded-bug table.
// With --report the same runs are additionally written as a run report
// (obs/Report.h); the human tables move to stderr when the report goes
// to stdout (--report -). --fault-budget k layers k-bounded transport
// faults (drop/duplicate) on top of every run; bench_fault_injection
// sweeps that axis systematically. --help lists the flags.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "support/Interrupt.h"
#include "tool/Tool.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace p;
using tool::compileOrExit;

namespace {

bool QuickFlag = false;    ///< --quick: small sweep for smoke tests.
tool::Session S("fig7_delaybound");
std::FILE *Human = stdout; ///< Tables; stderr when the report owns stdout.

/// Sweeps the delay bound until saturation (two consecutive equal state
/// counts with the search exhausted), a node cap, or a time budget.
void sweep(const char *Name, const char *Slug, const CompiledProgram &Prog,
           int MaxDelay, uint64_t NodeCap, double TimeBudget) {
  std::fprintf(Human, "# %s\n", Name);
  std::fprintf(Human, "%-10s %-12s %-12s %-10s %-10s %s\n", "delay_d",
               "states", "nodes", "slices", "seconds", "note");
  uint64_t Prev = 0;
  bool Saturated = false;
  for (int D = 0; D <= MaxDelay; ++D) {
    CheckOptions Opts = S.options(std::string(Slug) + "-d" + std::to_string(D));
    Opts.DelayBound = D;
    Opts.MaxNodes = NodeCap;
    Opts.StopOnFirstError = false;
    CheckResult R = check(Prog, Opts);
    if (S.Base.Profile)
      std::fprintf(stderr, "# %s d=%d profile\n%s", Slug, D,
                   R.Profile.str(Prog).c_str());
    const char *Note = "";
    if (!R.Stats.Exhausted)
      Note = "node-cap";
    else if (D > 0 && R.Stats.DistinctStates == Prev) {
      Note = "saturated";
      Saturated = true;
    }
    std::fprintf(Human, "%-10d %-12llu %-12llu %-10llu %-10.3f %s\n", D,
                 static_cast<unsigned long long>(R.Stats.DistinctStates),
                 static_cast<unsigned long long>(R.Stats.NodesExplored),
                 static_cast<unsigned long long>(R.Stats.Slices),
                 R.Stats.Seconds, Note);
    if (R.ErrorFound)
      std::fprintf(Human, "  !! unexpected error: %s\n",
                   R.ErrorMessage.c_str());
    obs::Json Config = S.config(Slug);
    Config.set("delay_bound", D);
    Config.set("node_cap", NodeCap);
    Config.set("fault_budget", S.Base.Faults.Budget);
    S.record(Prog, std::move(Config), R);
    if (Saturated || !R.Stats.Exhausted || R.Stats.Seconds > TimeBudget)
      break;
    Prev = R.Stats.DistinctStates;
  }
  std::fprintf(Human, "\n");
}

struct BugCase {
  const char *Name;
  std::string Source;
  ErrorKind Expected;
};

} // namespace

int main(int argc, char **argv) {
  // Before anything else: a signal that arrives while the flags parse
  // must already end the run cooperatively.
  interrupt::installHandlers();
  tool::CommandLine Cmd{"bench_fig7_delaybound", "[flags]",
                        S.flags({"--workers", "--visited-mode",
                                 "--visited-cap", "--reduction", "--report",
                                 "--progress", "--profile", "--checkpoint",
                                 "--checkpoint-interval", "--resume"})};
  Cmd.Flags.push_back({"--fault-budget", "K", &S.Base.Faults.Budget,
                       "transport faults (drop/duplicate) per path", 0});
  Cmd.Flags.push_back(
      {"--quick", "", &QuickFlag, "small sweep for smoke tests"});
  Cmd.parse(argc, argv);
  Human = S.human();

  std::fprintf(Human, "=== Figure 7: states explored vs delay bound ===\n");
  std::fprintf(Human,
               "(paper: Zing on the authors' models, saturation ~d=12, "
               "hours of CPU; ours: same semantics, our models, "
               "seconds; workers=%d, 0=auto)\n\n",
               S.Base.Workers);

  // --quick shrinks the sweep to seconds for smoke tests and the JSON
  // schema check; the claims are still visible in miniature.
  int MaxDelay = QuickFlag ? 2 : 12;
  uint64_t NodeCap = QuickFlag ? 50000 : 400000;
  double TimeBudget = QuickFlag ? 2.0 : 20.0;

  sweep("Elevator (Section 2)", "elevator",
        compileOrExit(corpus::elevator()), MaxDelay, NodeCap, TimeBudget);
  sweep("Switch-and-LED (Section 4.1)", "switchled",
        compileOrExit(corpus::switchLed()), MaxDelay, NodeCap, TimeBudget);
  sweep("Worker pool (symmetric workers)", "workerpool",
        compileOrExit(corpus::workerPool(3)), MaxDelay, NodeCap, TimeBudget);
  if (!QuickFlag)
    sweep("German cache coherence (2 clients)", "german2",
          compileOrExit(corpus::german(2)), MaxDelay, NodeCap, TimeBudget);

  std::fprintf(Human,
               "=== Seeded bugs: found within delay bound 2 (paper claim) "
               "===\n");
  std::fprintf(Human, "%-34s %-8s %-12s %-10s %s\n", "program/bug",
               "found_d", "states", "seconds", "error");
  std::vector<BugCase> Bugs = {
      {"elevator/missing-defer-close",
       corpus::elevator(corpus::ElevatorBug::MissingDeferCloseDoor),
       ErrorKind::UnhandledEvent},
      {"elevator/missing-defer-timer",
       corpus::elevator(corpus::ElevatorBug::MissingDeferTimerFired),
       ErrorKind::UnhandledEvent},
      {"switchled/missing-defer-switch",
       corpus::switchLed(corpus::SwitchLedBug::MissingDeferSwitch),
       ErrorKind::UnhandledEvent},
      {"switchled/wrong-retry-assert",
       corpus::switchLed(corpus::SwitchLedBug::WrongRetryAssert),
       ErrorKind::AssertFailed},
      {"german/skip-owner-invalidation",
       corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation),
       ErrorKind::AssertFailed},
      {"usbhub/surprise-remove",
       corpus::usbHub(1, corpus::UsbHubBug::SurpriseRemoveDuringReset),
       ErrorKind::UnhandledEvent},
  };
  if (QuickFlag)
    Bugs.resize(2); // The elevator cases; enough for the schema check.
  for (const BugCase &Bug : Bugs) {
    CompiledProgram Prog = compileOrExit(Bug.Source);
    bool Found = false;
    for (int D = 0; D <= 2 && !Found; ++D) {
      std::string BugSlug = Bug.Name;
      for (char &C : BugSlug)
        if (C == '/')
          C = '-';
      CheckOptions Opts = S.options(BugSlug + "-d" + std::to_string(D));
      Opts.DelayBound = D;
      CheckResult R = check(Prog, Opts);
      obs::Json Config = S.config(Bug.Name);
      Config.set("delay_bound", D);
      Config.set("fault_budget", S.Base.Faults.Budget);
      Config.set("seeded_bug", true);
      S.record(Prog, std::move(Config), R);
      if (R.ErrorFound) {
        std::fprintf(Human, "%-34s %-8d %-12llu %-10.3f %s\n", Bug.Name, D,
                     static_cast<unsigned long long>(R.Stats.DistinctStates),
                     R.Stats.Seconds, errorKindName(R.Error));
        Found = true;
      }
    }
    if (!Found)
      std::fprintf(Human, "%-34s NOT FOUND within d=2 (claim violated!)\n",
                   Bug.Name);
  }

  return S.finish();
}
