//===- examples/german_verify.cpp - Verifying a cache coherence protocol ----===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// German's cache coherence protocol — the paper's third systematic-
// testing benchmark. Scales the client count, reports explored states
// (the state-explosion curve behind Figure 7/8), and shows the ghost
// auditor catching a protocol violation in a seeded-bug variant.
//
// Observability flags (see src/obs/ and DESIGN.md "Observability"):
//   --progress            heartbeat lines on stderr during long checks
//   --trace <file.jsonl>  structured event trace of the buggy-run check
//   --chrome <file.json>  same trace in Chrome trace-event format
//   --msc                 message-sequence chart of the counterexample
//   --metrics             Prometheus-style metrics dump after the runs
//
// Single-run mode (used by the CI perf smoke job): when --clients is
// given, exactly one check runs and one machine-readable line prints:
//   --clients N           protocol size (disables the sweep above)
//   --delay D             delay bound for the single run
//   --visited-mode M      exact | fingerprint | compact
//   --visited-cap BYTES   Compact byte cap (0 = 64 MiB default)
//   --reduction R         off | symmetry (CheckOptions::Reduce)
//   --expect-states S     exit 1 unless DistinctStates == S
//   --expect-nodes N      exit 1 unless NodesExplored == N
//   --max-seconds T       exit 1 when the run took longer than T
// With P_VERIFY_HASHES set, the run also exits 1 when any cached
// fingerprint disagreed with a fresh re-walk (CheckStats::HashMismatches).
//
// Crash safety (single-run mode; see DESIGN.md "Checkpoint & resume"):
//   --checkpoint <file>   periodic + final search checkpoints
//   --checkpoint-interval S   seconds between checkpoints (default 30)
//   --resume              continue from --checkpoint instead of scratch
//                         (corrupt/mismatched checkpoints exit 3)
//   --frontier-mem BYTES  spill cold frontier nodes to disk past this cap
// SIGINT/SIGTERM are handled cooperatively in every mode: the search
// stops at the next scheduling point, writes a final checkpoint when
// --checkpoint is set, prints partial stats, and exits 128+signal.
//   --profile             per-machine search profile table on stderr
//   --report <base>       self-contained run report: <base>.json +
//                         <base>.html (stats, profile, named uncovered
//                         transitions, live host latency, metrics)
//
// --help prints the flags and exits 0. An unknown flag, a missing value
// or a malformed number prints the reason and the flags and exits 2.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "host/LatencyProbe.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "obs/Trace.h"
#include "obs/TraceExport.h"
#include "support/Interrupt.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

using namespace p;

static CompiledProgram compileOrExit(const std::string &Src) {
  CompileResult R = compileString(Src);
  if (!R.ok()) {
    std::fprintf(stderr, "compile error:\n%s", R.Diags.str().c_str());
    std::exit(1);
  }
  return std::move(*R.Program);
}

static const char Usage[] =
    "usage: example_german_verify [flags]\n"
    "  --workers N  --progress  --trace FILE  --chrome FILE  --msc\n"
    "  --metrics  --profile  --report BASE\n"
    "single run: --clients N  --delay D  --visited-mode M  --visited-cap B\n"
    "  --reduction %s  --expect-states S\n"
    "  --expect-nodes N  --max-seconds T  --checkpoint FILE\n"
    "  --checkpoint-interval S  --resume  --frontier-mem BYTES\n";

/// Prints the usage to \p Out.
static void printUsage(std::FILE *Out) {
  std::fprintf(Out, Usage, ReductionChoices);
}

/// Prints \p Why and the usage, and exits 2.
[[noreturn]] static void usageError(const std::string &Why) {
  std::fprintf(stderr, "%s\n", Why.c_str());
  printUsage(stderr);
  std::exit(2);
}

/// The value of flag argv[I], advancing I past it (strict, like
/// parseVisitedFlag: a missing value exits 2).
static const char *flagValue(int Argc, char **Argv, int &I) {
  if (I + 1 >= Argc)
    usageError(std::string(Argv[I]) + " needs a value");
  return Argv[++I];
}

/// A decimal integer flag value; anything else exits 2.
static long long intValue(int Argc, char **Argv, int &I) {
  const char *Flag = Argv[I], *V = flagValue(Argc, Argv, I);
  char *End = nullptr;
  errno = 0;
  const long long N = std::strtoll(V, &End, 10);
  if (End == V || *End != '\0' || errno == ERANGE)
    usageError(std::string(Flag) + " wants an integer, got '" + V + "'");
  return N;
}

/// A non-negative number flag value (seconds); anything else exits 2.
static double realValue(int Argc, char **Argv, int &I) {
  const char *Flag = Argv[I], *V = flagValue(Argc, Argv, I);
  char *End = nullptr;
  const double D = std::strtod(V, &End);
  if (End == V || *End != '\0' || !(D >= 0))
    usageError(std::string(Flag) + " wants a number, got '" + V + "'");
  return D;
}

int main(int argc, char **argv) {
  int Workers = 1; // --workers N (0 = hardware_concurrency)
  bool Progress = false, Msc = false, Metrics = false;
  std::string TracePath, ChromePath;
  int Clients = 0, Delay = 0; // --clients enables single-run mode.
  VisitedMode Visited = VisitedMode::Fingerprint;
  uint64_t VisitedCap = 0;
  Reduction Reduce = Reduction::Off;
  long long ExpectStates = -1, ExpectNodes = -1;
  double MaxSeconds = 0;
  bool Profile = false;
  std::string ReportPath;
  std::string CheckpointPath;
  double CheckpointInterval = 30;
  bool Resume = false;
  uint64_t FrontierMem = 0;
  for (int I = 1; I < argc; ++I) {
    if (parseVisitedFlag(argc, argv, I, Visited, VisitedCap) ||
        parseReductionFlag(argc, argv, I, Reduce))
      continue;
    const std::string Flag = argv[I];
    if (Flag == "--help") {
      printUsage(stdout);
      return 0;
    }
    if (Flag == "--workers")
      Workers = static_cast<int>(intValue(argc, argv, I));
    else if (Flag == "--trace")
      TracePath = flagValue(argc, argv, I);
    else if (Flag == "--chrome")
      ChromePath = flagValue(argc, argv, I);
    else if (Flag == "--msc")
      Msc = true;
    else if (Flag == "--metrics")
      Metrics = true;
    else if (Flag == "--progress")
      Progress = true;
    else if (Flag == "--clients")
      Clients = static_cast<int>(intValue(argc, argv, I));
    else if (Flag == "--delay")
      Delay = static_cast<int>(intValue(argc, argv, I));
    else if (Flag == "--expect-states")
      ExpectStates = intValue(argc, argv, I);
    else if (Flag == "--expect-nodes")
      ExpectNodes = intValue(argc, argv, I);
    else if (Flag == "--max-seconds")
      MaxSeconds = realValue(argc, argv, I);
    else if (Flag == "--profile")
      Profile = true;
    else if (Flag == "--report")
      ReportPath = flagValue(argc, argv, I);
    else if (Flag == "--checkpoint")
      CheckpointPath = flagValue(argc, argv, I);
    else if (Flag == "--checkpoint-interval")
      CheckpointInterval = realValue(argc, argv, I);
    else if (Flag == "--resume")
      Resume = true;
    else if (Flag == "--frontier-mem") {
      const long long Bytes = intValue(argc, argv, I);
      if (Bytes < 0)
        usageError("--frontier-mem wants a byte count, got " +
                   std::to_string(Bytes));
      FrontierMem = static_cast<uint64_t>(Bytes);
    } else
      usageError("unknown flag '" + Flag + "'");
  }

  interrupt::installHandlers();

  if (Clients > 0) {
    // Single-run mode: one check, one parseable line, a hard verdict.
    CompiledProgram Prog = compileOrExit(corpus::german(Clients));
    CheckOptions Opts;
    Opts.DelayBound = Delay;
    Opts.Workers = Workers;
    Opts.Visited = Visited;
    Opts.VisitedCapBytes = VisitedCap;
    Opts.Reduce = Reduce;
    Opts.Profile = Profile || !ReportPath.empty();
    Opts.TrackCoverage = !ReportPath.empty();
    Opts.CheckpointPath = CheckpointPath;
    Opts.CheckpointIntervalSeconds = CheckpointInterval;
    Opts.Resume = Resume;
    Opts.FrontierMemLimitBytes = FrontierMem;
    Opts.InterruptFlag = &interrupt::flag();
    CheckResult R = check(Prog, Opts);
    if (!R.ResumeError.empty()) {
      std::fprintf(stderr, "resume failed: %s\n", R.ResumeError.c_str());
      return 3;
    }
    if (R.Stats.Interrupted) {
      // Partial results, not a verdict: report what was covered and
      // exit by the shell's death-by-signal convention. The final
      // checkpoint (when --checkpoint is set) already holds the rest.
      interrupt::printInterruptedStats(R.Stats);
      return interrupt::exitCode();
    }
    if (Profile)
      std::fprintf(stderr, "%s", R.Profile.str(Prog).c_str());
    std::printf("german clients=%d d=%d mode=%s workers=%d reduction=%s "
                "states=%llu nodes=%llu slices=%llu interpreted=%llu "
                "collapsed=%llu "
                "seconds=%.3f visited_bytes=%llu "
                "peak_rss_bytes=%llu omission=%d error=%s\n",
                Clients, Delay, visitedModeName(Visited), Workers,
                reductionName(Reduce),
                static_cast<unsigned long long>(R.Stats.DistinctStates),
                static_cast<unsigned long long>(R.Stats.NodesExplored),
                static_cast<unsigned long long>(R.Stats.Slices),
                static_cast<unsigned long long>(R.Stats.SlicesInterpreted),
                static_cast<unsigned long long>(R.Stats.SymmetryCollapsed),
                R.Stats.Seconds,
                static_cast<unsigned long long>(R.Stats.VisitedBytes),
                static_cast<unsigned long long>(R.Stats.PeakRssBytes),
                R.Stats.OmissionPossible ? 1 : 0,
                R.ErrorFound ? errorKindName(R.Error) : "none");
    if (R.ErrorFound) {
      std::fprintf(stderr, "FAIL: unexpected error: %s\n",
                   R.ErrorMessage.c_str());
      return 1;
    }
    if (ExpectStates >= 0 &&
        R.Stats.DistinctStates != static_cast<uint64_t>(ExpectStates)) {
      std::fprintf(stderr, "FAIL: states=%llu, expected %lld\n",
                   static_cast<unsigned long long>(R.Stats.DistinctStates),
                   ExpectStates);
      return 1;
    }
    if (ExpectNodes >= 0 &&
        R.Stats.NodesExplored != static_cast<uint64_t>(ExpectNodes)) {
      std::fprintf(stderr, "FAIL: nodes=%llu, expected %lld\n",
                   static_cast<unsigned long long>(R.Stats.NodesExplored),
                   ExpectNodes);
      return 1;
    }
    if (R.Stats.HashMismatches != 0) {
      std::fprintf(stderr, "FAIL: %llu stale fingerprint caches\n",
                   static_cast<unsigned long long>(R.Stats.HashMismatches));
      return 1;
    }
    if (MaxSeconds > 0 && R.Stats.Seconds > MaxSeconds) {
      std::fprintf(stderr, "FAIL: %.3fs exceeded --max-seconds %.3f\n",
                   R.Stats.Seconds, MaxSeconds);
      return 1;
    }
    if (!ReportPath.empty()) {
      obs::RunReport RunRep("german_verify");
      obs::Json Config = obs::Json::object();
      Config.set("program", "german");
      Config.set("clients", Clients);
      Config.set("delay_bound", Delay);
      Config.set("workers", Workers);
      Config.set("visited_mode", visitedModeName(Visited));
      Config.set("reduction", reductionName(Reduce));
      RunRep.addCheckRun(Prog, std::move(Config), R);
      if (!writeReportWithProbe(RunRep, ReportPath))
        return 1;
    }
    return 0;
  }

  obs::MetricsRegistry Registry;
  obs::RunReport RunRep("german_verify");
  // Ctrl-C mid-sweep: report the interrupted run's partial stats and
  // exit by the death-by-signal convention instead of dying silently.
  auto bailIfInterrupted = [](const CheckResult &R) {
    if (!R.Stats.Interrupted)
      return;
    interrupt::printInterruptedStats(R.Stats);
    std::exit(interrupt::exitCode());
  };
  auto withObs = [&](CheckOptions &Opts) {
    Opts.InterruptFlag = &interrupt::flag();
    if (Metrics)
      Opts.Metrics = &Registry;
    Opts.Profile = Profile || !ReportPath.empty();
    Opts.TrackCoverage = !ReportPath.empty();
    if (Progress) {
      Opts.ProgressIntervalSeconds = 1.0;
      Opts.Progress = [](const CheckStats &S) {
        std::fprintf(stderr,
                     "progress: %.1fs states=%llu (%.0f/s) nodes=%llu "
                     "frontier=%llu depth=%d visited=%.1fMB\n",
                     S.Seconds,
                     static_cast<unsigned long long>(S.DistinctStates),
                     S.Seconds > 0
                         ? static_cast<double>(S.DistinctStates) / S.Seconds
                         : 0.0,
                     static_cast<unsigned long long>(S.NodesExplored),
                     static_cast<unsigned long long>(S.FrontierNodes),
                     S.MaxDepth, S.VisitedBytes / (1024.0 * 1024.0));
      };
    }
  };

  std::printf("== German's protocol: state growth with client count "
              "(workers=%d, 0=auto) ==\n",
              Workers);
  std::printf("  %-8s %-6s %-10s %-10s %s\n", "clients", "d", "states",
              "slices", "result");
  for (int N = 1; N <= 3; ++N) {
    CompiledProgram Prog = compileOrExit(corpus::german(N));
    for (int Delay = 0; Delay <= (N < 3 ? 1 : 0); ++Delay) {
      CheckOptions Opts;
      Opts.DelayBound = Delay;
      Opts.Workers = Workers;
      withObs(Opts);
      CheckResult R = check(Prog, Opts);
      bailIfInterrupted(R);
      if (Profile)
        std::fprintf(stderr, "# german clients=%d d=%d profile\n%s", N,
                     Delay, R.Profile.str(Prog).c_str());
      if (!ReportPath.empty()) {
        obs::Json Config = obs::Json::object();
        Config.set("program", "german");
        Config.set("clients", N);
        Config.set("delay_bound", Delay);
        Config.set("workers", Workers);
        RunRep.addCheckRun(Prog, std::move(Config), R);
      }
      std::printf("  %-8d %-6d %-10llu %-10llu %s\n", N, Delay,
                  static_cast<unsigned long long>(R.Stats.DistinctStates),
                  static_cast<unsigned long long>(R.Stats.Slices),
                  R.ErrorFound ? errorKindName(R.Error) : "clean");
    }
  }

  std::printf("\n== Seeded bug: home grants E without invalidating the "
              "owner ==\n");
  CompiledProgram Buggy = compileOrExit(
      corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation));
  for (int Delay = 0; Delay <= 2; ++Delay) {
    // Event tracing is attached to the run that exposes the bug: the
    // recorder's merged ring becomes the JSONL/Chrome export below.
    obs::TraceRecorder Recorder;
    bool WantTrace = !TracePath.empty() || !ChromePath.empty();
    CheckOptions Opts;
    Opts.DelayBound = Delay;
    Opts.Workers = Workers;
    withObs(Opts);
    if (WantTrace)
      Opts.Trace = &Recorder;
    CheckResult R = check(Buggy, Opts);
    bailIfInterrupted(R);
    if (!ReportPath.empty()) {
      obs::Json Config = obs::Json::object();
      Config.set("program", "german_skip_owner_invalidation");
      Config.set("clients", 2);
      Config.set("delay_bound", Delay);
      Config.set("workers", Workers);
      Config.set("seeded_bug", true);
      RunRep.addCheckRun(Buggy, std::move(Config), R);
    }
    if (!R.ErrorFound) {
      std::printf("  d=%d: not exposed\n", Delay);
      continue;
    }
    std::printf("  d=%d: %s — %s\n", Delay, errorKindName(R.Error),
                R.ErrorMessage.c_str());
    size_t Start = R.Trace.size() > 10 ? R.Trace.size() - 10 : 0;
    for (size_t I = Start; I != R.Trace.size(); ++I)
      std::printf("    %s\n", R.Trace[I].c_str());

    if (!TracePath.empty()) {
      std::ofstream Out(TracePath);
      size_t Lines = obs::exportJsonl(Recorder.snapshot(), Out);
      std::printf("  trace: %zu events -> %s (dropped %llu)\n", Lines,
                  TracePath.c_str(),
                  static_cast<unsigned long long>(Recorder.dropped()));
    }
    if (!ChromePath.empty()) {
      std::ofstream Out(ChromePath);
      obs::exportChromeTrace(Recorder.snapshot(), Out, &Buggy);
      std::printf("  chrome trace -> %s (load in Perfetto or "
                  "chrome://tracing)\n",
                  ChromePath.c_str());
    }
    if (Msc) {
      std::printf("\n-- counterexample message-sequence chart --\n%s",
                  obs::renderScheduleMsc(Buggy, R.Schedule, Opts)
                      .c_str());
    }
    break;
  }

  if (Metrics)
    std::printf("\n-- metrics --\n%s", Registry.renderPrometheus().c_str());

  if (!ReportPath.empty() && !writeReportWithProbe(RunRep, ReportPath))
    return 1;

  std::printf("\ngerman_verify ok\n");
  return 0;
}
