//===- tests/checker_parallel_test.cpp - Parallel exploration tests ---------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Serial-vs-parallel equivalence: on exhausted searches the engine's
// determinism contract promises worker-count-independent DistinctStates,
// Terminals, TerminalHashes-as-a-set, and error verdicts. Exercised over
// the Elevator/German corpus at several delay bounds, clean and with
// seeded bugs, plus a replay check that a parallel counterexample's
// schedule reproduces the error.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

using namespace p;

namespace {

CompiledProgram compile(const std::string &Src) {
  CompileResult R = compileString(Src);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  if (!R.ok())
    std::abort();
  return std::move(*R.Program);
}

CheckResult runWith(const CompiledProgram &Prog, int Workers, int Delay,
                    bool StopOnFirstError) {
  CheckOptions Opts;
  Opts.DelayBound = Delay;
  Opts.Workers = Workers;
  Opts.StopOnFirstError = StopOnFirstError;
  Opts.CollectTerminals = true;
  return check(Prog, Opts);
}

/// Asserts the worker-count-independent slice of two exhausted results.
void expectEquivalent(const CheckResult &Serial, const CheckResult &Par,
                      const char *What) {
  ASSERT_TRUE(Serial.Stats.Exhausted) << What;
  ASSERT_TRUE(Par.Stats.Exhausted) << What;
  EXPECT_EQ(Serial.Stats.DistinctStates, Par.Stats.DistinctStates) << What;
  EXPECT_EQ(Serial.Stats.Terminals, Par.Stats.Terminals) << What;
  EXPECT_EQ(Serial.ErrorFound, Par.ErrorFound) << What;
  EXPECT_EQ(Serial.Error, Par.Error) << What;
  std::set<uint64_t> A(Serial.TerminalHashes.begin(),
                       Serial.TerminalHashes.end());
  std::set<uint64_t> B(Par.TerminalHashes.begin(),
                       Par.TerminalHashes.end());
  EXPECT_EQ(A, B) << What;
}

TEST(ParallelChecker, ElevatorMatchesSerialAcrossWorkerCounts) {
  CompiledProgram Prog = compile(corpus::elevator());
  for (int D = 0; D <= 2; ++D) {
    CheckResult Serial = runWith(Prog, 1, D, /*StopOnFirstError=*/false);
    for (int W : {2, 8}) {
      CheckResult Par = runWith(Prog, W, D, false);
      expectEquivalent(Serial, Par,
                       ("elevator d=" + std::to_string(D) + " w=" +
                        std::to_string(W))
                           .c_str());
    }
  }
}

TEST(ParallelChecker, GermanMatchesSerialAcrossWorkerCounts) {
  CompiledProgram Prog = compile(corpus::german(2));
  for (int D = 0; D <= 2; ++D) {
    CheckResult Serial = runWith(Prog, 1, D, false);
    for (int W : {2, 8}) {
      CheckResult Par = runWith(Prog, W, D, false);
      expectEquivalent(Serial, Par,
                       ("german d=" + std::to_string(D) + " w=" +
                        std::to_string(W))
                           .c_str());
    }
  }
}

// A true branch of a `*` never probes the visited table: its false
// sibling's probe stands for both, and each worker's ledger decides it
// (DESIGN.md, "One visited entry per `*`"). Steals split branch pairs
// across workers; the state count must not move.
TEST(ParallelChecker, GermanD3StatesHoldAcrossWorkerCounts) {
  CompiledProgram Prog = compile(corpus::german(2));
  for (int W : {2, 4, 8}) {
    CheckOptions Opts;
    Opts.DelayBound = 3;
    Opts.Workers = W;
    const CheckResult R = check(Prog, Opts);
    EXPECT_TRUE(R.Stats.Exhausted) << "workers=" << W;
    EXPECT_EQ(R.Stats.DistinctStates, 870206u) << "workers=" << W;
  }
}

TEST(ParallelChecker, SwitchLedExactStatesMatchesSerial) {
  CompiledProgram Prog = compile(corpus::switchLed());
  CheckOptions Opts;
  Opts.DelayBound = 2;
  Opts.StopOnFirstError = false;
  Opts.Visited = VisitedMode::Exact;
  CheckResult Serial = check(Prog, Opts);
  Opts.Workers = 8;
  CheckResult Par = check(Prog, Opts);
  ASSERT_TRUE(Serial.Stats.Exhausted);
  ASSERT_TRUE(Par.Stats.Exhausted);
  EXPECT_EQ(Serial.Stats.DistinctStates, Par.Stats.DistinctStates);
  EXPECT_EQ(Serial.Stats.Terminals, Par.Stats.Terminals);
}

TEST(ParallelChecker, SeededBugVerdictsAgreeAcrossWorkerCounts) {
  struct BugCase {
    const char *Name;
    std::string Source;
    ErrorKind Expected;
  };
  const BugCase Bugs[] = {
      {"elevator/missing-defer-close",
       corpus::elevator(corpus::ElevatorBug::MissingDeferCloseDoor),
       ErrorKind::UnhandledEvent},
      {"german/skip-owner-invalidation",
       corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation),
       ErrorKind::AssertFailed},
  };
  for (const BugCase &Bug : Bugs) {
    CompiledProgram Prog = compile(Bug.Source);
    for (int W : {1, 2, 8}) {
      CheckResult R = runWith(Prog, W, /*Delay=*/2,
                              /*StopOnFirstError=*/true);
      ASSERT_TRUE(R.ErrorFound) << Bug.Name << " w=" << W;
      EXPECT_EQ(R.Error, Bug.Expected) << Bug.Name << " w=" << W;
      EXPECT_FALSE(R.Schedule.empty()) << Bug.Name << " w=" << W;
      EXPECT_FALSE(R.Trace.empty()) << Bug.Name << " w=" << W;
    }
  }
}

TEST(ParallelChecker, ParallelCounterexampleReplays) {
  CompiledProgram Prog =
      compile(corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation));
  CheckResult R = runWith(Prog, 4, /*Delay=*/2, /*StopOnFirstError=*/true);
  ASSERT_TRUE(R.ErrorFound);
  ReplayResult Replay = replaySchedule(Prog, R.Schedule);
  ASSERT_TRUE(Replay.ErrorReached)
      << "parallel counterexample schedule did not reproduce the error";
  EXPECT_EQ(Replay.Error, R.Error);
  EXPECT_EQ(Replay.ErrorMessage, R.ErrorMessage);
}

TEST(ParallelChecker, LazyTraceRenderingMatchesReplayLog) {
  // The counterexample trace is rendered from the schedule after the
  // search; its run/choice/delay lines must agree with an independent
  // replay of the same schedule.
  CompiledProgram Prog =
      compile(corpus::elevator(corpus::ElevatorBug::MissingDeferCloseDoor));
  CheckResult R = runWith(Prog, 4, /*Delay=*/2, /*StopOnFirstError=*/true);
  ASSERT_TRUE(R.ErrorFound);
  ASSERT_FALSE(R.Trace.empty());
  // Trace = "initial: ..." line + one line per decision.
  EXPECT_EQ(R.Trace.size(), R.Schedule.size() + 1);
  EXPECT_NE(R.Trace.front().find("initial:"), std::string::npos);
  EXPECT_NE(R.Trace.back().find("error"), std::string::npos);
  ReplayResult Replay = replaySchedule(Prog, R.Schedule);
  ASSERT_TRUE(Replay.ErrorReached);
  // The replay log's run lines describe the same machines in the same
  // order (replay renders "delay" without the machine name, so compare
  // the run lines only).
  size_t RunsChecked = 0;
  for (size_t I = 0; I != Replay.Steps.size(); ++I)
    if (Replay.Steps[I].rfind("run ", 0) == 0) {
      EXPECT_EQ(Replay.Steps[I], R.Trace[I + 1]);
      ++RunsChecked;
    }
  EXPECT_GT(RunsChecked, 0u);
}

TEST(ParallelChecker, AutoWorkerCountRuns) {
  CompiledProgram Prog = compile(corpus::elevator());
  CheckResult Serial = runWith(Prog, 1, 1, false);
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.Workers = 0; // hardware_concurrency
  Opts.StopOnFirstError = false;
  Opts.CollectTerminals = true;
  CheckResult Par = check(Prog, Opts);
  EXPECT_GE(Par.Stats.WorkersUsed, 1);
  expectEquivalent(Serial, Par, "elevator d=1 w=auto");
}

TEST(ParallelChecker, DepthBoundedMatchesSerial) {
  CompiledProgram Prog = compile(corpus::elevator());
  CheckOptions Opts;
  Opts.Strategy = SearchStrategy::DepthBounded;
  Opts.DepthBound = 14;
  Opts.StopOnFirstError = false;
  Opts.CollectTerminals = true;
  CheckResult Serial = check(Prog, Opts);
  Opts.Workers = 8;
  CheckResult Par = check(Prog, Opts);
  // Depth-bounded pruning is exact-visit, so even a depth-cut search
  // has a worker-count-independent explored set.
  EXPECT_EQ(Serial.Stats.DistinctStates, Par.Stats.DistinctStates);
  EXPECT_EQ(Serial.Stats.Terminals, Par.Stats.Terminals);
  EXPECT_EQ(Serial.ErrorFound, Par.ErrorFound);
}

TEST(ParallelChecker, DepthCutSearchExploresTheWholeBall) {
  // A depth-cut search explores every configuration within the bound,
  // so its count is the same for any worker count or visited mode,
  // never shrinks as the bound grows, and reaches the full reachable
  // set once no path is cut. Keying nodes without their depth broke
  // all three: a key first met near the cut blocked shallower visits.
  CompiledProgram Prog = compile(corpus::workerPool(3));
  auto Run = [&](int Depth, int Workers, VisitedMode Mode) {
    CheckOptions Opts;
    Opts.Strategy = SearchStrategy::DepthBounded;
    Opts.DepthBound = Depth;
    Opts.StopOnFirstError = false;
    Opts.Workers = Workers;
    Opts.Visited = Mode;
    return check(Prog, Opts);
  };
  uint64_t Prev = 0;
  bool SawCut = false, SawExhausted = false;
  for (int Depth = 4; Depth <= 28; Depth += 4) {
    CheckResult Serial = Run(Depth, 1, VisitedMode::Fingerprint);
    ASSERT_FALSE(Serial.ErrorFound);
    EXPECT_GE(Serial.Stats.DistinctStates, Prev) << "depth " << Depth;
    Prev = Serial.Stats.DistinctStates;
    (Serial.Stats.Exhausted ? SawExhausted : SawCut) = true;
    CheckResult Exact = Run(Depth, 1, VisitedMode::Exact);
    EXPECT_EQ(Exact.Stats.DistinctStates, Serial.Stats.DistinctStates)
        << "depth " << Depth;
    for (int Workers : {4, 8}) {
      CheckResult Par = Run(Depth, Workers, VisitedMode::Fingerprint);
      EXPECT_EQ(Par.Stats.DistinctStates, Serial.Stats.DistinctStates)
          << "depth " << Depth << " workers " << Workers;
      EXPECT_EQ(Par.Stats.Terminals, Serial.Stats.Terminals)
          << "depth " << Depth << " workers " << Workers;
      EXPECT_EQ(Par.Stats.Exhausted, Serial.Stats.Exhausted)
          << "depth " << Depth << " workers " << Workers;
    }
  }
  EXPECT_TRUE(SawCut);
  EXPECT_TRUE(SawExhausted);
  // The whole reachable set: the default bound cuts no path here.
  CheckResult Full = Run(100000, 1, VisitedMode::Fingerprint);
  ASSERT_TRUE(Full.Stats.Exhausted);
  EXPECT_EQ(Prev, Full.Stats.DistinctStates);
}

TEST(ParallelChecker, TerminationStressEndsExhaustedWithSerialCounts) {
  // Workers go idle and busy again many times per run; a run that ends
  // while some node is still pending misses states, and one whose busy
  // count never drains hangs. Both must be ruled out at every worker
  // count, including more workers than cores.
  const std::pair<const char *, std::string> Programs[] = {
      {"german1", corpus::german(1)},
      {"elevator", corpus::elevator()},
      {"switchled", corpus::switchLed()},
  };
  for (const auto &[Name, Source] : Programs) {
    CompiledProgram Prog = compile(Source);
    const CheckResult Serial = runWith(Prog, 1, 2, false);
    ASSERT_TRUE(Serial.Stats.Exhausted) << Name;
    for (int W : {2, 3, 4, 8})
      for (int Run = 0; Run != 20; ++Run) {
        const CheckResult Par = runWith(Prog, W, 2, false);
        ASSERT_TRUE(Par.Stats.Exhausted)
            << Name << " w=" << W << " run " << Run;
        ASSERT_EQ(Par.Stats.DistinctStates, Serial.Stats.DistinctStates)
            << Name << " w=" << W << " run " << Run;
      }
  }
}

TEST(ParallelChecker, HeartbeatSeesFrontierAndMaxNodesCutIsNotExhausted) {
  CompiledProgram Prog = compile(corpus::german(2));
  CheckOptions Opts;
  Opts.DelayBound = 2;
  Opts.Workers = 4;
  Opts.StopOnFirstError = false;
  Opts.ProgressIntervalSeconds = 0.001;
  std::vector<CheckStats> Beats;
  Opts.Progress = [&](const CheckStats &S) { Beats.push_back(S); };
  const CheckResult Full = check(Prog, Opts);
  ASSERT_TRUE(Full.Stats.Exhausted);
  ASSERT_FALSE(Beats.empty()) << "no heartbeat fired";
  // Mid-run, nodes wait in the workers' frontiers; the heartbeat sums
  // them without taking a frontier lock.
  uint64_t MaxFrontier = 0;
  for (const CheckStats &S : Beats) {
    EXPECT_EQ(S.WorkersUsed, 4);
    MaxFrontier = std::max(MaxFrontier, S.FrontierNodes);
  }
  EXPECT_GT(MaxFrontier, 0u);
  EXPECT_EQ(Full.Stats.FrontierNodes, 0u);

  // A MaxNodes cut leaves work pending, so the run is not exhausted.
  Opts.Progress = nullptr;
  Opts.MaxNodes = Full.Stats.NodesExplored / 4;
  const CheckResult Cut = check(Prog, Opts);
  EXPECT_FALSE(Cut.Stats.Exhausted);
  EXPECT_GE(Cut.Stats.NodesExplored, Opts.MaxNodes);
  EXPECT_LT(Cut.Stats.DistinctStates, Full.Stats.DistinctStates);
}

} // namespace
