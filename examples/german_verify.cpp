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
// Observability (see src/obs/ and DESIGN.md "Observability"): an event
// trace of the buggy run as JSONL or Chrome JSON, its message-sequence
// chart, a metrics dump, the search profile, a heartbeat, and the run
// report.
//
// Single-run mode (used by the CI perf smoke job): when --clients is
// given, exactly one check runs and one machine-readable line prints;
// --expect-states, --expect-nodes and --max-seconds turn it into a hard
// verdict (exit 1). With P_VERIFY_HASHES set, the run also exits 1 when
// any cached fingerprint disagreed with a fresh re-walk
// (CheckStats::HashMismatches). The single run takes the crash-safety
// flags (see DESIGN.md "Checkpoint & resume"): --checkpoint FILE,
// --resume (a corrupt or mismatched checkpoint exits 3) and
// --frontier-mem. SIGINT/SIGTERM are handled cooperatively in every
// mode: the search stops at the next scheduling point, writes a final
// checkpoint when --checkpoint is set, prints partial stats, and exits
// 128+signal.
//
// --help prints the flags and exits 0. An unknown flag, a missing value
// or a malformed number prints the reason and the flags and exits 2.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceExport.h"
#include "support/Interrupt.h"
#include "tool/Tool.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace p;

int main(int argc, char **argv) {
  // Before anything else: a signal that arrives while the flags parse
  // must already end the run cooperatively.
  interrupt::installHandlers();
  tool::Session S("german_verify");
  bool Msc = false, Metrics = false;
  std::string TracePath, ChromePath;
  int Clients = 0, Delay = 0; // --clients enables single-run mode.
  int64_t ExpectStates = -1, ExpectNodes = -1;
  double MaxSeconds = 0;
  std::string CheckpointPath;
  bool Resume = false;
  uint64_t FrontierMem = 0;
  tool::CommandLine Cmd{
      "example_german_verify", "[flags]",
      S.flags({"--workers", "--progress", "--profile", "--report",
               "--visited-mode", "--visited-cap", "--reduction",
               "--checkpoint-interval"})};
  Cmd.Flags.insert(
      Cmd.Flags.end(),
      {{"--trace", "FILE", &TracePath, "JSONL event trace of the buggy run"},
       {"--chrome", "FILE", &ChromePath, "the same trace as Chrome JSON"},
       {"--msc", "", &Msc, "message-sequence chart of the counterexample"},
       {"--metrics", "", &Metrics, "Prometheus metrics dump after the runs"},
       {"--clients", "N", &Clients, "single run of German(N), no sweep"},
       {"--delay", "D", &Delay, "the single run's delay bound"},
       {"--expect-states", "S", &ExpectStates,
        "single run: exit 1 unless it finds S states"},
       {"--expect-nodes", "N", &ExpectNodes,
        "single run: exit 1 unless it explores N nodes"},
       {"--max-seconds", "T", &MaxSeconds,
        "single run: exit 1 when it takes longer"},
       {"--checkpoint", "FILE", &CheckpointPath,
        "single run: periodic and final checkpoints"},
       {"--resume", "", &Resume, "single run: continue from --checkpoint"},
       {"--frontier-mem", "BYTES", &FrontierMem,
        "single run: spill frontier nodes past this many bytes"}});
  Cmd.parse(argc, argv);
  std::FILE *Human = S.human();

  if (Clients > 0) {
    // Single-run mode: one check, one parseable line, a hard verdict.
    CompiledProgram Prog = tool::compileOrExit(corpus::german(Clients));
    CheckOptions Opts = S.options("");
    Opts.DelayBound = Delay;
    Opts.CheckpointPath = CheckpointPath;
    Opts.Resume = Resume;
    Opts.FrontierMemLimitBytes = FrontierMem;
    CheckResult R = check(Prog, Opts);
    obs::Json Config = S.config("german");
    Config.set("clients", Clients);
    Config.set("delay_bound", Delay);
    S.record(Prog, std::move(Config), R);
    if (S.Base.Profile)
      std::fprintf(stderr, "%s", R.Profile.str(Prog).c_str());
    std::fprintf(Human,
                 "german clients=%d d=%d mode=%s workers=%d reduction=%s "
                 "states=%llu nodes=%llu slices=%llu interpreted=%llu "
                 "collapsed=%llu "
                 "seconds=%.3f visited_bytes=%llu "
                 "peak_rss_bytes=%llu omission=%d error=%s\n",
                 Clients, Delay, visitedModeName(S.Base.Visited),
                 S.Base.Workers, reductionName(S.Base.Reduce),
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
                   static_cast<long long>(ExpectStates));
      return 1;
    }
    if (ExpectNodes >= 0 &&
        R.Stats.NodesExplored != static_cast<uint64_t>(ExpectNodes)) {
      std::fprintf(stderr, "FAIL: nodes=%llu, expected %lld\n",
                   static_cast<unsigned long long>(R.Stats.NodesExplored),
                   static_cast<long long>(ExpectNodes));
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
    return S.finish();
  }

  obs::MetricsRegistry Registry;
  auto runOptions = [&] {
    CheckOptions Opts = S.options("");
    if (Metrics)
      Opts.Metrics = &Registry;
    return Opts;
  };

  std::fprintf(Human,
               "== German's protocol: state growth with client count "
               "(workers=%d, 0=auto) ==\n",
               S.Base.Workers);
  std::fprintf(Human, "  %-8s %-6s %-10s %-10s %s\n", "clients", "d",
               "states", "slices", "result");
  for (int N = 1; N <= 3; ++N) {
    CompiledProgram Prog = tool::compileOrExit(corpus::german(N));
    for (int Delay = 0; Delay <= (N < 3 ? 1 : 0); ++Delay) {
      CheckOptions Opts = runOptions();
      Opts.DelayBound = Delay;
      CheckResult R = check(Prog, Opts);
      obs::Json Config = S.config("german");
      Config.set("clients", N);
      Config.set("delay_bound", Delay);
      S.record(Prog, std::move(Config), R);
      if (S.Base.Profile)
        std::fprintf(stderr, "# german clients=%d d=%d profile\n%s", N,
                     Delay, R.Profile.str(Prog).c_str());
      std::fprintf(Human, "  %-8d %-6d %-10llu %-10llu %s\n", N, Delay,
                   static_cast<unsigned long long>(R.Stats.DistinctStates),
                   static_cast<unsigned long long>(R.Stats.Slices),
                   R.ErrorFound ? errorKindName(R.Error) : "clean");
    }
  }

  std::fprintf(Human, "\n== Seeded bug: home grants E without invalidating "
                      "the owner ==\n");
  CompiledProgram Buggy = tool::compileOrExit(
      corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation));
  for (int Delay = 0; Delay <= 2; ++Delay) {
    // Event tracing is attached to the run that exposes the bug: the
    // recorder's merged ring becomes the JSONL/Chrome export below.
    obs::TraceRecorder Recorder;
    bool WantTrace = !TracePath.empty() || !ChromePath.empty();
    CheckOptions Opts = runOptions();
    Opts.DelayBound = Delay;
    if (WantTrace)
      Opts.Trace = &Recorder;
    CheckResult R = check(Buggy, Opts);
    obs::Json Config = S.config("german_skip_owner_invalidation");
    Config.set("clients", 2);
    Config.set("delay_bound", Delay);
    Config.set("seeded_bug", true);
    S.record(Buggy, std::move(Config), R);
    if (!R.ErrorFound) {
      std::fprintf(Human, "  d=%d: not exposed\n", Delay);
      continue;
    }
    std::fprintf(Human, "  d=%d: %s — %s\n", Delay, errorKindName(R.Error),
                 R.ErrorMessage.c_str());
    size_t Start = R.Trace.size() > 10 ? R.Trace.size() - 10 : 0;
    for (size_t I = Start; I != R.Trace.size(); ++I)
      std::fprintf(Human, "    %s\n", R.Trace[I].c_str());

    if (!TracePath.empty()) {
      std::ofstream Out(TracePath);
      size_t Lines = obs::exportJsonl(Recorder.snapshot(), Out);
      std::fprintf(Human, "  trace: %zu events -> %s (dropped %llu)\n",
                   Lines, TracePath.c_str(),
                   static_cast<unsigned long long>(Recorder.dropped()));
    }
    if (!ChromePath.empty()) {
      std::ofstream Out(ChromePath);
      obs::exportChromeTrace(Recorder.snapshot(), Out, &Buggy);
      std::fprintf(Human,
                   "  chrome trace -> %s (load in Perfetto or "
                   "chrome://tracing)\n",
                   ChromePath.c_str());
    }
    if (Msc) {
      std::fprintf(Human, "\n-- counterexample message-sequence chart --\n%s",
                   obs::renderScheduleMsc(Buggy, R.Schedule, Opts).c_str());
    }
    break;
  }

  if (Metrics)
    std::fprintf(Human, "\n-- metrics --\n%s",
                 Registry.renderPrometheus().c_str());

  if (int Rc = S.finish())
    return Rc;

  std::fprintf(Human, "\ngerman_verify ok\n");
  return 0;
}
