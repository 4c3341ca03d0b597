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
// With --json the same runs are additionally emitted as the stable
// bench-report schema (obs/BenchJson.h); the human tables move to
// stderr when the report goes to stdout (--json -). --fault-budget k
// layers k-bounded transport faults (drop/duplicate) on top of every
// run; bench_fault_injection sweeps that axis systematically.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "host/LatencyProbe.h"
#include "obs/BenchJson.h"
#include "obs/Report.h"
#include "support/Interrupt.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace p;

namespace {

int WorkersFlag = 1;      ///< --workers N (0 = hardware_concurrency).
int FaultBudgetFlag = 0;  ///< --fault-budget k: transport faults per path.
bool QuickFlag = false;   ///< --quick: small sweep for smoke tests.
bool ProgressFlag = false; ///< --progress: heartbeat lines on stderr.
bool ProfileFlag = false; ///< --profile: per-machine table on stderr.
std::string JsonPath;     ///< --json <file|->; empty = no report.
std::string ReportPath;   ///< --report <base>: <base>.{json,html}.
std::FILE *Human = stdout; ///< Tables; stderr when the JSON owns stdout.
VisitedMode VisitedFlag = VisitedMode::Fingerprint; ///< --visited-mode.
uint64_t VisitedCapFlag = 0; ///< --visited-cap bytes (Compact; 0=64MiB).
Reduction ReduceFlag = Reduction::Off; ///< --reduction (parseReductionFlag).
std::string CheckpointBase;        ///< --checkpoint <base>: per-run files.
double CheckpointIntervalFlag = 30; ///< --checkpoint-interval seconds.
bool ResumeFlag = false;           ///< --resume: continue per-run files.

obs::BenchReport Report("fig7_delaybound");
obs::RunReport RunRep("fig7_delaybound");

CompiledProgram compileOrExit(const std::string &Src) {
  CompileResult R = compileString(Src);
  if (!R.ok()) {
    std::fprintf(stderr, "compile error:\n%s", R.Diags.str().c_str());
    std::exit(1);
  }
  return std::move(*R.Program);
}

void installProgress(CheckOptions &Opts) {
  if (!ProgressFlag)
    return;
  Opts.ProgressIntervalSeconds = 1.0;
  Opts.Progress = [](const CheckStats &S) {
    std::fprintf(stderr,
                 "progress: %.1fs states=%llu (%.0f/s) nodes=%llu "
                 "frontier=%llu depth=%d visited=%.1fMB\n",
                 S.Seconds, static_cast<unsigned long long>(S.DistinctStates),
                 S.Seconds > 0
                     ? static_cast<double>(S.DistinctStates) / S.Seconds
                     : 0.0,
                 static_cast<unsigned long long>(S.NodesExplored),
                 static_cast<unsigned long long>(S.FrontierNodes), S.MaxDepth,
                 S.VisitedBytes / (1024.0 * 1024.0));
  };
}

/// Observability options shared by every run: coverage whenever a
/// machine-readable artifact is requested (both schemas carry the
/// block), the profiler for --profile or --report.
void installObs(CheckOptions &Opts) {
  Opts.TrackCoverage = !JsonPath.empty() || !ReportPath.empty();
  Opts.Profile = ProfileFlag || !ReportPath.empty();
  installProgress(Opts);
}

/// Crash safety shared by every run. Each run checkpoints to its own
/// file (<base>.<slug>.ckpt) so a sweep interrupted mid-flight can be
/// re-run with --resume: completed runs reload their final checkpoint
/// (reproducing the same stats instantly) and the interrupted one
/// continues where it stopped. --resume only resumes files that exist;
/// runs without one start fresh.
void installCrashSafety(CheckOptions &Opts, const std::string &RunSlug) {
  Opts.InterruptFlag = &interrupt::flag();
  if (CheckpointBase.empty())
    return;
  Opts.CheckpointPath = CheckpointBase + "." + RunSlug + ".ckpt";
  Opts.CheckpointIntervalSeconds = CheckpointIntervalFlag;
  if (ResumeFlag) {
    if (std::FILE *F = std::fopen(Opts.CheckpointPath.c_str(), "rb")) {
      std::fclose(F);
      Opts.Resume = true;
    }
  }
}

/// Handles a finished run's crash-safety verdicts: a failed resume is a
/// hard configuration error (exit 3, never a silent restart), and an
/// interrupt flushes whatever report rows exist (the writes are atomic)
/// before exiting 128+signal with a partial-stats block on stderr.
void handleRunExit(const CheckResult &R) {
  if (!R.ResumeError.empty()) {
    std::fprintf(stderr, "resume failed: %s\n", R.ResumeError.c_str());
    std::exit(3);
  }
  if (!R.Stats.Interrupted)
    return;
  if (!JsonPath.empty())
    Report.writeTo(JsonPath);
  if (!ReportPath.empty())
    writeReportWithProbe(RunRep, ReportPath);
  interrupt::printInterruptedStats(R.Stats);
  std::exit(interrupt::exitCode());
}

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
    CheckOptions Opts;
    Opts.DelayBound = D;
    Opts.MaxNodes = NodeCap;
    Opts.StopOnFirstError = false;
    Opts.Workers = WorkersFlag;
    Opts.Faults.Budget = FaultBudgetFlag; // Drop/duplicate, the defaults.
    Opts.Visited = VisitedFlag;
    Opts.VisitedCapBytes = VisitedCapFlag;
    Opts.Reduce = ReduceFlag;
    installObs(Opts);
    installCrashSafety(Opts, std::string(Slug) + "-d" + std::to_string(D));
    CheckResult R = check(Prog, Opts);
    if (ProfileFlag)
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
    if (!JsonPath.empty() || !ReportPath.empty()) {
      obs::Json Config = obs::Json::object();
      Config.set("program", Slug);
      Config.set("delay_bound", D);
      Config.set("node_cap", NodeCap);
      Config.set("workers", WorkersFlag);
      Config.set("fault_budget", FaultBudgetFlag);
      Config.set("visited_mode", visitedModeName(VisitedFlag));
      Config.set("reduction", reductionName(ReduceFlag));
      if (!ReportPath.empty())
        RunRep.addCheckRun(Prog, Config, R);
      if (!JsonPath.empty())
        Report.addRun(std::move(Config), Prog, R);
    }
    handleRunExit(R);
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
  for (int I = 1; I < argc; ++I) {
    if (parseVisitedFlag(argc, argv, I, VisitedFlag, VisitedCapFlag) ||
        parseReductionFlag(argc, argv, I, ReduceFlag))
      continue;
    if (!std::strcmp(argv[I], "--workers") && I + 1 < argc)
      WorkersFlag = std::atoi(argv[++I]);
    else if (!std::strcmp(argv[I], "--fault-budget") && I + 1 < argc)
      FaultBudgetFlag = std::atoi(argv[++I]);
    else if (!std::strcmp(argv[I], "--json") && I + 1 < argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--report") && I + 1 < argc)
      ReportPath = argv[++I];
    else if (!std::strcmp(argv[I], "--quick"))
      QuickFlag = true;
    else if (!std::strcmp(argv[I], "--progress"))
      ProgressFlag = true;
    else if (!std::strcmp(argv[I], "--profile"))
      ProfileFlag = true;
    else if (!std::strcmp(argv[I], "--checkpoint") && I + 1 < argc)
      CheckpointBase = argv[++I];
    else if (!std::strcmp(argv[I], "--checkpoint-interval") && I + 1 < argc)
      CheckpointIntervalFlag = std::atof(argv[++I]);
    else if (!std::strcmp(argv[I], "--resume"))
      ResumeFlag = true;
  }
  if (JsonPath == "-")
    Human = stderr; // Keep stdout machine-clean for the report.
  interrupt::installHandlers();

  std::fprintf(Human, "=== Figure 7: states explored vs delay bound ===\n");
  std::fprintf(Human,
               "(paper: Zing on the authors' models, saturation ~d=12, "
               "hours of CPU; ours: same semantics, our models, "
               "seconds; workers=%d, 0=auto)\n\n",
               WorkersFlag);

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
      CheckOptions Opts;
      Opts.DelayBound = D;
      Opts.Workers = WorkersFlag;
      Opts.Faults.Budget = FaultBudgetFlag;
      Opts.Visited = VisitedFlag;
      Opts.VisitedCapBytes = VisitedCapFlag;
      Opts.Reduce = ReduceFlag;
      installObs(Opts);
      std::string BugSlug = Bug.Name;
      for (char &C : BugSlug)
        if (C == '/')
          C = '-';
      installCrashSafety(Opts, BugSlug + "-d" + std::to_string(D));
      CheckResult R = check(Prog, Opts);
      if (!JsonPath.empty() || !ReportPath.empty()) {
        obs::Json Config = obs::Json::object();
        Config.set("program", Bug.Name);
        Config.set("delay_bound", D);
        Config.set("workers", WorkersFlag);
        Config.set("fault_budget", FaultBudgetFlag);
        Config.set("visited_mode", visitedModeName(VisitedFlag));
        Config.set("reduction", reductionName(ReduceFlag));
        Config.set("seeded_bug", true);
        if (!ReportPath.empty())
          RunRep.addCheckRun(Prog, Config, R);
        if (!JsonPath.empty())
          Report.addRun(std::move(Config), Prog, R);
      }
      handleRunExit(R);
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

  if (!JsonPath.empty() && !Report.writeTo(JsonPath)) {
    std::fprintf(stderr, "cannot write JSON report to %s\n",
                 JsonPath.c_str());
    return 1;
  }
  if (!ReportPath.empty() && !writeReportWithProbe(RunRep, ReportPath))
    return 1;
  return 0;
}
