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
  // search by the interpreter that replays it: the trace is the
  // "initial:" line followed by the replay log, line for line. The
  // serial counterexamples together carry every kind of decision (the
  // elevator's has delays; each fault case is clean without its fault).
  struct Case {
    const char *Name;
    CompiledProgram Prog;
    CheckOptions Opts;
  };
  auto faults = [](bool Drop, bool Dup, bool Crash, bool Foreign) {
    CheckOptions Opts;
    Opts.DelayBound = 0;
    Opts.Faults.Budget = 1;
    Opts.Faults.Drop = Drop;
    Opts.Faults.Duplicate = Dup;
    Opts.Faults.Crash = Crash;
    Opts.Faults.FailForeign = Foreign;
    return Opts;
  };
  std::vector<Case> Cases;
  CheckOptions Delays;
  Delays.DelayBound = 2;
  Cases.push_back({"elevator",
                   compile(corpus::elevator(
                       corpus::ElevatorBug::MissingDeferCloseDoor)),
                   Delays});
  Cases.push_back({"choose", compile(R"(
main ghost machine G {
  var A: bool;
  var B: bool;
  state S {
    entry {
      A = *;
      B = *;
      assert(!A || !B);
    }
  }
}
)"),
                   CheckOptions()});
  // A dropped grant strands a client that then cannot handle Inv.
  Cases.push_back({"drop", compile(corpus::german(2)),
                   faults(true, false, false, false)});
  {
    // Only a duplicated InvAck reaches the seeded CountAck assertion.
    CompiledProgram Prog =
        compile(corpus::german(2, corpus::GermanBug::DroppableInvAck));
    CheckOptions Opts = faults(false, true, false, false);
    for (size_t E = 0; E != Prog.Events.size(); ++E)
      if (Prog.Events[E].Name == "InvAck")
        Opts.Faults.Events.push_back(static_cast<int32_t>(E));
    ASSERT_EQ(Opts.Faults.Events.size(), 1u);
    Cases.push_back({"dup", std::move(Prog), Opts});
  }
  // With no delay, Y reaches A before X only when B crashes first.
  Cases.push_back({"crash", compile(R"(
event X;
event Y;
main machine A {
  state S {
    entry {
      new B(Peer = this);
      new C(Peer = this);
    }
    on X goto T;
  }
  state T {
    entry { }
    on Y goto T;
  }
}
machine B {
  var Peer: id;
  state S { entry { send(Peer, X); } }
}
machine C {
  var Peer: id;
  state S { entry { send(Peer, Y); } }
}
)"),
                   faults(false, false, true, false)});
  // The first call succeeds, the second fails and returns ⊥.
  Cases.push_back({"foreign", compile(R"(
event Ping;
main machine M {
  var Buddy: id;
  foreign fun FindBuddy(): id model { result = this; }
  state S {
    entry {
      Buddy = FindBuddy();
      Buddy = FindBuddy();
      send(Buddy, Ping);
    }
    on Ping do Ignore;
  }
  action Ignore { skip; }
}
)"),
                   faults(false, false, false, true)});

  std::set<std::pair<SchedDecision::Kind, bool>> Seen;
  for (Case &C : Cases)
    for (int Workers : {1, 4}) {
      C.Opts.Workers = Workers;
      CheckResult R = check(C.Prog, C.Opts);
      ASSERT_TRUE(R.ErrorFound) << C.Name << " w=" << Workers;
      ASSERT_EQ(R.Trace.size(), R.Schedule.size() + 1) << C.Name;
      EXPECT_EQ(R.Trace.front().rfind("initial: create ", 0), 0u);
      EXPECT_NE(R.Trace.back().find("-> error: " + R.ErrorMessage),
                std::string::npos)
          << R.Trace.back();
      ReplayResult Replay = replaySchedule(C.Prog, R.Schedule, C.Opts);
      ASSERT_TRUE(Replay.ErrorReached) << C.Name << " w=" << Workers;
      EXPECT_EQ(Replay.ErrorMessage, R.ErrorMessage) << C.Name;
      std::vector<std::string> Rendered{Replay.Initial};
      Rendered.insert(Rendered.end(), Replay.Steps.begin(),
                      Replay.Steps.end());
      EXPECT_EQ(R.Trace, Rendered) << C.Name << " w=" << Workers;
      if (Workers == 1)
        for (const SchedDecision &D : R.Schedule)
          Seen.insert({D.K, D.Choice});
    }
  // Every kind, and both outcomes of each binary one.
  using K = SchedDecision::Kind;
  for (auto Want : std::set<std::pair<K, bool>>{
           {K::Run, false},
           {K::Delay, false},
           {K::Choose, false},
           {K::Choose, true},
           {K::DropEvent, false},
           {K::DupEvent, false},
           {K::Crash, false},
           {K::ForeignFault, false},
           {K::ForeignFault, true}})
    EXPECT_TRUE(Seen.count(Want))
        << "no counterexample carries kind " << static_cast<int>(Want.first)
        << " choice " << Want.second;
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
