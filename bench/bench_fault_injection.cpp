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
// --json emits the stable bench-report schema (obs/BenchJson.h);
// --quick shrinks the sweep for smoke tests; --workers N as in the
// Figure 7 harness (fault exploration is worker-count deterministic).
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

using namespace p;

namespace {

int WorkersFlag = 1;     ///< --workers N (0 = hardware_concurrency).
bool QuickFlag = false;  ///< --quick: small sweep for smoke tests.
std::string JsonPath;    ///< --json <file|->; empty = no report.
std::string ReportPath;  ///< --report <base>: <base>.{json,html}.
std::FILE *Human = stdout;
Reduction ReduceFlag = Reduction::Off; ///< --reduction (parseReductionFlag).
std::string CheckpointBase;        ///< --checkpoint <base>: per-run files.
double CheckpointIntervalFlag = 30; ///< --checkpoint-interval seconds.
bool ResumeFlag = false;           ///< --resume: continue per-run files.

obs::BenchReport Report("fault_injection");
obs::RunReport RunRep("fault_injection");

/// Per-run checkpoint files (<base>.<slug>.ckpt): an interrupted sweep
/// re-run with --resume reloads completed runs instantly and continues
/// the interrupted one. --resume only resumes files that exist.
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

/// Failed resumes are hard errors (exit 3, never a silent restart);
/// interrupts flush the partial report rows (atomic writes) and exit
/// 128+signal after a partial-stats block on stderr.
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

CompiledProgram compileOrExit(const std::string &Src) {
  CompileResult R = compileString(Src);
  if (!R.ok()) {
    std::fprintf(stderr, "compile error:\n%s", R.Diags.str().c_str());
    std::exit(1);
  }
  return std::move(*R.Program);
}

int32_t eventId(const CompiledProgram &Prog, const char *Name) {
  for (size_t I = 0; I != Prog.Events.size(); ++I)
    if (Prog.Events[I].Name == Name)
      return static_cast<int32_t>(I);
  std::fprintf(stderr, "no event named %s\n", Name);
  std::exit(1);
}

void record(const char *Slug, int DelayBound, int Budget, uint64_t NodeCap,
            const CompiledProgram &Prog, const CheckResult &R) {
  if (JsonPath.empty() && ReportPath.empty())
    return;
  obs::Json Config = obs::Json::object();
  Config.set("program", Slug);
  Config.set("delay_bound", DelayBound);
  Config.set("fault_budget", Budget);
  Config.set("node_cap", NodeCap);
  Config.set("workers", WorkersFlag);
  Config.set("reduction", reductionName(ReduceFlag));
  if (!ReportPath.empty())
    RunRep.addCheckRun(Prog, Config, R);
  if (!JsonPath.empty())
    Report.addRun(std::move(Config), Prog, R);
}

/// Coverage/profile whenever a machine-readable artifact is requested;
/// the profile's faults_used histogram and fault_kinds block are the
/// fault-site coverage a report cites.
void installObs(CheckOptions &Opts) {
  Opts.TrackCoverage = !JsonPath.empty() || !ReportPath.empty();
  Opts.Profile = !ReportPath.empty();
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (parseReductionFlag(argc, argv, I, ReduceFlag))
      continue;
    if (!std::strcmp(argv[I], "--workers") && I + 1 < argc)
      WorkersFlag = std::atoi(argv[++I]);
    else if (!std::strcmp(argv[I], "--json") && I + 1 < argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--report") && I + 1 < argc)
      ReportPath = argv[++I];
    else if (!std::strcmp(argv[I], "--quick"))
      QuickFlag = true;
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

  const int DelayBound = QuickFlag ? 1 : 3;
  const uint64_t NodeCap = QuickFlag ? 100000 : 2000000;

  std::fprintf(Human,
               "=== Bounded-fault exploration: German (2 clients), "
               "d=%d, transport faults (drop+duplicate) ===\n",
               DelayBound);
  std::fprintf(Human, "%-10s %-12s %-12s %-10s %-8s %-10s %s\n",
               "budget_k", "states", "nodes", "faults", "errors",
               "seconds", "note");
  CompiledProgram German = compileOrExit(corpus::german(2));
  for (int Budget = 0; Budget <= 2; ++Budget) {
    CheckOptions Opts;
    Opts.DelayBound = DelayBound;
    Opts.MaxNodes = NodeCap;
    Opts.StopOnFirstError = false;
    Opts.Workers = WorkersFlag;
    Opts.Faults.Budget = Budget; // Drop + duplicate, the defaults.
    Opts.Reduce = ReduceFlag;
    installObs(Opts);
    installCrashSafety(Opts, "german2-k" + std::to_string(Budget));
    CheckResult R = check(German, Opts);
    handleRunExit(R);
    std::fprintf(Human, "%-10d %-12llu %-12llu %-10llu %-8llu %-10.3f %s\n",
                 Budget,
                 static_cast<unsigned long long>(R.Stats.DistinctStates),
                 static_cast<unsigned long long>(R.Stats.NodesExplored),
                 static_cast<unsigned long long>(R.Stats.FaultsInjected),
                 static_cast<unsigned long long>(R.Stats.ErrorsFound),
                 R.Stats.Seconds, R.Stats.Exhausted ? "" : "node-cap");
    record("german2", DelayBound, Budget, NodeCap, German, R);
  }

  std::fprintf(Human,
               "\n=== Seeded droppable-InvAck bug: invisible without a "
               "fault budget ===\n");
  std::fprintf(Human, "%-10s %-12s %-10s %s\n", "budget_k", "states",
               "seconds", "result");
  CompiledProgram Buggy = compileOrExit(
      corpus::german(2, corpus::GermanBug::DroppableInvAck));
  for (int Budget = 0; Budget <= 1; ++Budget) {
    CheckOptions Opts;
    Opts.DelayBound = QuickFlag ? 0 : 2;
    Opts.Workers = WorkersFlag;
    Opts.Faults.Budget = Budget;
    // Aim the adversary at the ack message so the counterexample is the
    // seeded bug, not base German's shallower duplicated-grant error.
    Opts.Faults.Drop = false;
    Opts.Faults.Duplicate = true;
    Opts.Faults.Events.push_back(eventId(Buggy, "InvAck"));
    Opts.Reduce = ReduceFlag;
    installObs(Opts);
    installCrashSafety(Opts, "droppable-invack-k" + std::to_string(Budget));
    CheckResult R = check(Buggy, Opts);
    handleRunExit(R);
    std::fprintf(Human, "%-10d %-12llu %-10.3f %s%s\n", Budget,
                 static_cast<unsigned long long>(R.Stats.DistinctStates),
                 R.Stats.Seconds,
                 R.ErrorFound ? errorKindName(R.Error)
                              : (R.Stats.Exhausted ? "clean (exhausted)"
                                                   : "clean"),
                 R.ErrorFound ? " (schedule replayable)" : "");
    record("german2_droppable_invack", Opts.DelayBound, Budget,
           Opts.MaxNodes, Buggy, R);
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
