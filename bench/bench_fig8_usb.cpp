//===- bench/bench_fig8_usb.cpp - Figure 8 reproduction ---------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 8: "State machine sizes and exploration time" for the USB hub
// driver machines. The paper's table (proprietary Windows 8 drivers,
// Zing, multicore, hours):
//
//   machine   P-states  P-transitions  explored(M)  time     memory(MB)
//   HSM       196       361            5.9          2:30     1712
//   PSM 3.0   295       752            1.5          3:30     1341
//   PSM 2.0   457       1386           2.2          5:30     872
//   DSM       1919      4238           1.2          5:30     1127
//
// We cannot ship Microsoft's sources; our stand-in is a synthetic
// hub/port/device stack with the same architecture (see
// src/corpus/UsbHub.cpp and DESIGN.md). This bench reports the same
// columns for our models at increasing scale, preserving the shape:
// machine sizes in the tens of states, explored configurations orders
// of magnitude beyond the static machine size, growing steeply with
// scale and delay bound.
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

int WorkersFlag = 1;       ///< --workers N (0 = hardware_concurrency).
bool ProgressFlag = false; ///< --progress: heartbeat lines on stderr.
std::string JsonPath;      ///< --json <file|->; empty = no report.
std::string ReportPath;    ///< --report <base>: <base>.{json,html}.
std::FILE *Human = stdout; ///< Tables; stderr when the JSON owns stdout.
VisitedMode VisitedFlag = VisitedMode::Fingerprint; ///< --visited-mode.
uint64_t VisitedCapFlag = 0; ///< --visited-cap bytes (Compact; 0=64MiB).
Reduction ReduceFlag = Reduction::Off; ///< --reduction (parseReductionFlag).
std::string CheckpointBase;        ///< --checkpoint <base>: per-run files.
double CheckpointIntervalFlag = 30; ///< --checkpoint-interval seconds.
bool ResumeFlag = false;           ///< --resume: continue per-run files.

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

CompiledProgram compileOrExit(const std::string &Src) {
  CompileResult R = compileString(Src);
  if (!R.ok()) {
    std::fprintf(stderr, "compile error:\n%s", R.Diags.str().c_str());
    std::exit(1);
  }
  return std::move(*R.Program);
}

void printMachineSizes(const CompiledProgram &Prog) {
  std::fprintf(Human, "%-10s %-10s %-14s\n", "machine", "P-states",
               "P-transitions");
  for (const MachineInfo &M : Prog.Machines) {
    std::fprintf(Human, "%-10s %-10zu %-14d%s\n", M.Name.c_str(),
                 M.States.size(), M.countTransitions(),
                 M.Ghost ? "  (ghost env)" : "");
  }
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (parseVisitedFlag(argc, argv, I, VisitedFlag, VisitedCapFlag) ||
        parseReductionFlag(argc, argv, I, ReduceFlag))
      continue;
    if (!std::strcmp(argv[I], "--workers") && I + 1 < argc)
      WorkersFlag = std::atoi(argv[++I]);
    else if (!std::strcmp(argv[I], "--json") && I + 1 < argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--report") && I + 1 < argc)
      ReportPath = argv[++I];
    else if (!std::strcmp(argv[I], "--progress"))
      ProgressFlag = true;
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
  obs::BenchReport Report("fig8_usb");
  obs::RunReport RunRep("fig8_usb");
  // Failed resumes are hard errors (exit 3, never a silent restart);
  // interrupts flush the partial report rows (atomic writes) and exit
  // 128+signal after a partial-stats block on stderr.
  auto handleRunExit = [&](const CheckResult &R) {
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
  };

  std::fprintf(Human,
               "=== Figure 8: USB hub machine sizes and exploration cost "
               "=== (workers=%d, 0=auto)\n\n",
               WorkersFlag);
  std::fprintf(Human, "paper (Windows 8 USB stack, Zing):\n");
  std::fprintf(Human,
               "  HSM 196/361, PSM3.0 295/752, PSM2.0 457/1386, DSM "
               "1919/4238 P-states/transitions;\n");
  std::fprintf(Human, "  1.2M-5.9M explored states, 2.5h-5.5h, 0.9-1.7 GB\n\n");

  for (int Ports = 1; Ports <= 2; ++Ports) {
    std::fprintf(Human, "--- our scaled model: hub with %d port(s) ---\n",
                 Ports);
    CompiledProgram Prog = compileOrExit(corpus::usbHub(Ports));
    printMachineSizes(Prog);

    std::fprintf(Human, "%-8s %-12s %-12s %-10s %-12s %s\n", "delay_d",
                 "explored", "nodes", "seconds", "visited_KB", "exhausted");
    for (int D = 0; D <= (Ports == 1 ? 2 : 1); ++D) {
      CheckOptions Opts;
      Opts.DelayBound = D;
      Opts.MaxNodes = 600000;
      Opts.StopOnFirstError = false;
      Opts.Workers = WorkersFlag;
      Opts.Visited = VisitedFlag;
      Opts.VisitedCapBytes = VisitedCapFlag;
      Opts.Reduce = ReduceFlag;
      Opts.TrackCoverage = !JsonPath.empty() || !ReportPath.empty();
      Opts.Profile = !ReportPath.empty();
      if (ProgressFlag) {
        Opts.ProgressIntervalSeconds = 1.0;
        Opts.Progress = [](const CheckStats &S) {
          std::fprintf(
              stderr,
              "progress: %.1fs states=%llu (%.0f/s) nodes=%llu "
              "frontier=%llu visited=%.1fMB\n",
              S.Seconds, static_cast<unsigned long long>(S.DistinctStates),
              S.Seconds > 0
                  ? static_cast<double>(S.DistinctStates) / S.Seconds
                  : 0.0,
              static_cast<unsigned long long>(S.NodesExplored),
              static_cast<unsigned long long>(S.FrontierNodes),
              S.VisitedBytes / (1024.0 * 1024.0));
        };
      }
      installCrashSafety(Opts, "usbhub-p" + std::to_string(Ports) + "-d" +
                                   std::to_string(D));
      CheckResult R = check(Prog, Opts);
      std::fprintf(Human, "%-8d %-12llu %-12llu %-10.3f %-12llu %s\n", D,
                   static_cast<unsigned long long>(R.Stats.DistinctStates),
                   static_cast<unsigned long long>(R.Stats.NodesExplored),
                   R.Stats.Seconds,
                   static_cast<unsigned long long>(R.Stats.VisitedBytes /
                                                   1024),
                   R.Stats.Exhausted ? "yes" : "no (capped)");
      if (R.ErrorFound)
        std::fprintf(Human, "  !! unexpected error: %s\n",
                     R.ErrorMessage.c_str());
      if (!JsonPath.empty() || !ReportPath.empty()) {
        obs::Json Config = obs::Json::object();
        Config.set("ports", Ports);
        Config.set("delay_bound", D);
        Config.set("node_cap", 600000);
        Config.set("workers", WorkersFlag);
        Config.set("visited_mode", visitedModeName(VisitedFlag));
        Config.set("reduction", reductionName(ReduceFlag));
        if (!ReportPath.empty())
          RunRep.addCheckRun(Prog, Config, R);
        if (!JsonPath.empty())
          Report.addRun(std::move(Config), Prog, R);
      }
      handleRunExit(R);
    }
    std::fprintf(Human, "\n");
  }

  std::fprintf(Human,
               "shape check vs paper: explored configurations exceed "
               "static P-states by orders of magnitude,\n"
               "and the multi-machine interaction (ports x devices x "
               "power events) dominates the cost.\n");

  if (!JsonPath.empty() && !Report.writeTo(JsonPath)) {
    std::fprintf(stderr, "cannot write JSON report to %s\n",
                 JsonPath.c_str());
    return 1;
  }
  if (!ReportPath.empty() && !writeReportWithProbe(RunRep, ReportPath))
    return 1;
  return 0;
}
