//===- tests/slice_memo_test.cpp - Slice memo differential tests ----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The slice memo (checker/SliceMemo.h) must be invisible: every run here
// is compared against the same check with an external Executor that
// carries a no-op dequeue observer, which makes it observed and so
// bypasses the memo. The runs also switch VerifyHashes on, which
// interprets every memo hit again on a copy and counts any difference
// (machines, error fields, OverflowDropped, StepResult) in
// HashMismatches.
//
// The guard programs each aim at one rule of the memo: a replayed send
// to a target that died, a self-send, a send to a crashed machine, a
// full bounded queue, two equal machines whose slice reads `this`, and
// a slice that ends in `new`.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/SliceMemo.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace p;

namespace {

CompiledProgram compileOrDie(const std::string &Src) {
  CompileResult R = compileString(Src);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  if (!R.ok())
    std::abort();
  return std::move(*R.Program);
}

/// The same check through an observed executor: the memo steps aside
/// and every slice is interpreted.
CheckResult checkUnmemoized(const CompiledProgram &Prog,
                            const CheckOptions &Opts) {
  Executor Exec(Prog);
  Exec.addDequeueObserver([](int32_t, int32_t) {});
  return check(Prog, Opts, &Exec);
}

/// Runs \p Opts with and without the memo, and checks that they agree.
/// Returns the memoized result.
CheckResult expectMemoInvisible(const CompiledProgram &Prog,
                                CheckOptions Opts, const std::string &What) {
  Opts.VerifyHashes = true;
  Opts.CollectTerminals = true;
  const CheckResult M = check(Prog, Opts);
  const CheckResult P = checkUnmemoized(Prog, Opts);
  EXPECT_EQ(M.Stats.HashMismatches, 0u) << What;
  EXPECT_EQ(P.Stats.HashMismatches, 0u) << What;
  EXPECT_EQ(P.Stats.SlicesInterpreted, P.Stats.Slices) << What;
  EXPECT_LE(M.Stats.SlicesInterpreted, M.Stats.Slices) << What;
  EXPECT_EQ(M.ErrorFound, P.ErrorFound) << What;
  EXPECT_EQ(M.Error, P.Error) << What;
  EXPECT_EQ(M.ErrorMessage, P.ErrorMessage) << What;
  // A stop on the first error leaves a racy frontier behind at 4 workers.
  if (Opts.Workers == 1 || !Opts.StopOnFirstError)
    EXPECT_EQ(M.Stats.Exhausted, P.Stats.Exhausted) << What;
  if (M.Stats.Exhausted && !M.ErrorFound) {
    EXPECT_EQ(M.Stats.DistinctStates, P.Stats.DistinctStates) << What;
    EXPECT_EQ(M.Stats.Terminals, P.Stats.Terminals) << What;
    EXPECT_EQ(std::set<uint64_t>(M.TerminalHashes.begin(),
                                 M.TerminalHashes.end()),
              std::set<uint64_t>(P.TerminalHashes.begin(),
                                 P.TerminalHashes.end()))
        << What;
  }
  if (Opts.Workers == 1) {
    // One worker explores in one order: everything matches, and a
    // worker's memo sees all of the search.
    EXPECT_EQ(M.Stats.DistinctStates, P.Stats.DistinctStates) << What;
    EXPECT_EQ(M.Stats.NodesExplored, P.Stats.NodesExplored) << What;
    EXPECT_EQ(M.Stats.Slices, P.Stats.Slices) << What;
    EXPECT_EQ(M.Stats.ErrorsFound, P.Stats.ErrorsFound) << What;
    EXPECT_EQ(M.Trace, P.Trace) << What;
    EXPECT_EQ(M.DelaysUsedOnError, P.DelaysUsedOnError) << What;
    EXPECT_EQ(M.FaultsUsedOnError, P.FaultsUsedOnError) << What;
  }
  return M;
}

std::string label(const char *Name, int Workers) {
  return std::string(Name) + " workers=" + std::to_string(Workers);
}

//===----------------------------------------------------------------------===//
// Corpus runs
//===----------------------------------------------------------------------===//

TEST(SliceMemo, CorpusAgreesWithInterpreterInEveryMode) {
  struct Row {
    const char *Name;
    std::string Src;
    int Delay;
    VisitedMode Mode;
  };
  const Row Rows[] = {
      {"german d=2", corpus::german(2), 2, VisitedMode::Fingerprint},
      {"german d=1 exact", corpus::german(2), 1, VisitedMode::Exact},
      {"elevator", corpus::elevator(), 2, VisitedMode::Fingerprint},
      {"elevator exact", corpus::elevator(), 2, VisitedMode::Exact},
      {"switchLed", corpus::switchLed(), 2, VisitedMode::Fingerprint},
      {"switchLed exact", corpus::switchLed(), 2, VisitedMode::Exact},
      {"usbHub d=0", corpus::usbHub(2), 0, VisitedMode::Fingerprint},
      {"usbHub d=0 exact", corpus::usbHub(2), 0, VisitedMode::Exact},
      {"workerPool", corpus::workerPool(3), 2, VisitedMode::Fingerprint},
      {"workerPool exact", corpus::workerPool(3), 2, VisitedMode::Exact},
      {"pubSub", corpus::pubSub(4), 2, VisitedMode::Fingerprint},
      {"pubSub exact", corpus::pubSub(4), 2, VisitedMode::Exact},
  };
  for (const Row &Rw : Rows) {
    const CompiledProgram Prog = compileOrDie(Rw.Src);
    for (int Workers : {1, 4}) {
      CheckOptions Opts;
      Opts.DelayBound = Rw.Delay;
      Opts.Visited = Rw.Mode;
      Opts.Workers = Workers;
      Opts.StopOnFirstError = false;
      const CheckResult M =
          expectMemoInvisible(Prog, Opts, label(Rw.Name, Workers));
      if (std::string(Rw.Name).rfind("german", 0) == 0) {
        EXPECT_LT(M.Stats.SlicesInterpreted, M.Stats.Slices / 10)
            << label(Rw.Name, Workers);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Guard programs
//===----------------------------------------------------------------------===//

// The driver's loop reaches one local state before each send. The first
// time, Target is alive and the slice is memoized with a send to it;
// Target deletes itself on the second Ping, so the next slice from that
// state finds it deleted. The interpreter's SendToDeleted names the
// source location and leaves the driver's PC at the send; a replay would
// raise enqueueEvent's message from a different configuration.
const char *DeletedTargetSrc = R"(
event Ping;
main machine Driver {
  var T: id;
  state Init {
    entry {
      T = new Target();
      while (true) {
        send(T, Ping);
      }
    }
  }
}
machine Target {
  state Idle {
    entry { }
    on Ping goto One;
  }
  state One {
    entry { }
    on Ping goto Dead;
  }
  state Dead { entry { delete; } }
}
)";

TEST(SliceMemo, ReplayedSendToDeletedTargetIsInterpreted) {
  const CompiledProgram Prog = compileOrDie(DeletedTargetSrc);
  for (int Workers : {1, 4})
    for (bool StopOnFirst : {true, false}) {
      CheckOptions Opts;
      Opts.DelayBound = 2;
      Opts.Workers = Workers;
      Opts.StopOnFirstError = StopOnFirst;
      const CheckResult M =
          expectMemoInvisible(Prog, Opts, label("deleted target", Workers));
      ASSERT_TRUE(M.ErrorFound);
      EXPECT_EQ(M.Error, ErrorKind::SendToDeleted);
      EXPECT_NE(M.ErrorMessage.find(" at "), std::string::npos)
          << M.ErrorMessage;
    }
}

// A self-send lands in the running machine's own queue, inside the post
// snapshot; the memo does not replay it.
const char *SelfSendSrc = R"(
event unit;
event Tick;
event Tock;
main machine Clock {
  var P: id;
  state Init {
    entry {
      P = new Peer();
      raise(unit);
    }
    on unit goto Run;
  }
  state Run {
    entry {
      send(this, Tick);
      send(P, Tock);
    }
    on Tick goto Run;
  }
}
machine Peer {
  var N: int;
  state Count {
    entry { N = 0; }
    on Tock do Bump;
  }
  action Bump {
    if (N < 3) { N = N + 1; }
  }
}
)";

TEST(SliceMemo, SelfSendIsInsideThePostState) {
  const CompiledProgram Prog = compileOrDie(SelfSendSrc);
  for (int Workers : {1, 4}) {
    CheckOptions Opts;
    Opts.DelayBound = 3;
    Opts.Workers = Workers;
    const CheckResult M =
        expectMemoInvisible(Prog, Opts, label("self-send", Workers));
    EXPECT_FALSE(M.ErrorFound) << M.ErrorMessage;
    if (Workers == 1)
      if (Workers == 1)
        EXPECT_LT(M.Stats.SlicesInterpreted, M.Stats.Slices);
  }
}

// Crash faults kill Target while the driver keeps sending from one
// local state: the interpreter drops a send to a crashed machine
// without an enqueue (StepResult::Event stays -1), so a memoized send
// must not replay to it.
const char *CrashedTargetSrc = R"(
event Ping;
event Pong;
main machine Driver {
  var T: id;
  state Init {
    entry {
      T = new Target(Boss = this);
      while (true) {
        send(T, Ping);
      }
    }
  }
}
machine Target {
  var Boss: id;
  state Serve {
    entry { }
    on Ping do Answer;
  }
  action Answer { skip; }
}
)";

TEST(SliceMemo, SendToCrashedTargetIsInterpreted) {
  const CompiledProgram Prog = compileOrDie(CrashedTargetSrc);
  for (int Workers : {1, 4}) {
    CheckOptions Opts;
    Opts.DelayBound = 2;
    Opts.Workers = Workers;
    Opts.Faults.Budget = 1;
    Opts.Faults.Drop = Opts.Faults.Duplicate = false;
    Opts.Faults.Crash = true;
    const CheckResult M =
        expectMemoInvisible(Prog, Opts, label("crashed target", Workers));
    EXPECT_FALSE(M.ErrorFound) << M.ErrorMessage;
    EXPECT_GT(M.Stats.FaultsInjected, 0u);
    if (Workers == 1)
      if (Workers == 1)
        EXPECT_LT(M.Stats.SlicesInterpreted, M.Stats.Slices);
  }
}

// The same driver state sends once to a crashed Target, then to a live
// one. The dropped send reached no enqueueEvent, so it is not recorded
// (a replay would have no event to deliver); the live one is
// interpreted and delivered, and a later crashed Target is again
// interpreted rather than replayed to.
TEST(SliceMemo, SendDroppedByACrashedTargetIsNotRecorded) {
  const CompiledProgram Prog = compileOrDie(CrashedTargetSrc);
  const Executor Exec(Prog);
  Config Root = Exec.makeInitialConfig();
  ASSERT_TRUE(Exec.step(Root, 0).Created); // T = new Target(...)
  const int32_t Ping = Prog.findEvent("Ping");
  SliceMemo Memo(Exec, nullptr);
  bool Interpreted = false;

  Config Crashed = Root;
  ASSERT_TRUE(Exec.crashMachine(Crashed, 1));
  Executor::StepResult R = Memo.run(Crashed, 0, Interpreted);
  EXPECT_TRUE(Interpreted);
  EXPECT_EQ(R.Outcome, Executor::StepOutcome::SchedulingPoint);
  EXPECT_EQ(R.Event, -1);

  Config Live = Root;
  R = Memo.run(Live, 0, Interpreted);
  EXPECT_TRUE(Interpreted);
  EXPECT_EQ(R.Event, Ping);
  ASSERT_EQ(Live.machine(1).Queue.size(), 1u);
  EXPECT_EQ(Live.machine(1).Queue[0].first, Ping);

  Config Again = Root; // The live slice is memoized now.
  R = Memo.run(Again, 0, Interpreted);
  EXPECT_FALSE(Interpreted);
  EXPECT_EQ(Again.machine(1).Queue, Live.machine(1).Queue);

  Config CrashedAgain = Root;
  ASSERT_TRUE(Exec.crashMachine(CrashedAgain, 1));
  R = Memo.run(CrashedAgain, 0, Interpreted);
  EXPECT_TRUE(Interpreted);
  EXPECT_EQ(R.Event, -1);
  EXPECT_TRUE(CrashedAgain.machine(1).Queue.empty());
  EXPECT_EQ(CrashedAgain.Machines[0], Crashed.Machines[0]);
}

// The producer's loop repeats three local states; the consumer's queue
// holds two events. A replayed send into a full queue goes through
// enqueueEvent, as the interpreter's does: QueueOverflow under Error,
// one more OverflowDropped under DropNewest (which VerifyHashes compares
// on every hit).
const char *OverflowSrc = R"(
event A;
event B;
event C;
main machine Producer {
  var Q: id;
  state Init {
    entry {
      Q = new Consumer();
      while (true) {
        send(Q, A);
        send(Q, B);
        send(Q, C);
      }
    }
  }
}
machine Consumer {
  state Eat {
    entry { }
    on A do Nop;
    on B do Nop;
    on C do Nop;
  }
  action Nop { skip; }
}
)";

TEST(SliceMemo, FullQueueAppliesItsOverflowPolicy) {
  const CompiledProgram Prog = compileOrDie(OverflowSrc);
  for (OverflowPolicy Policy :
       {OverflowPolicy::Error, OverflowPolicy::DropNewest})
    for (int Workers : {1, 4}) {
      CheckOptions Opts;
      Opts.DelayBound = 3;
      Opts.Workers = Workers;
      Opts.MaxQueue = 2;
      Opts.Overflow = Policy;
      Opts.StopOnFirstError = false;
      const CheckResult M =
          expectMemoInvisible(Prog, Opts, label("overflow", Workers));
      EXPECT_EQ(M.ErrorFound, Policy == OverflowPolicy::Error);
      if (Policy == OverflowPolicy::Error)
        EXPECT_EQ(M.Error, ErrorKind::QueueOverflow);
      if (Workers == 1)
      if (Workers == 1)
        EXPECT_LT(M.Stats.SlicesInterpreted, M.Stats.Slices);
    }
}

// Two Twins start with equal local states and send `this`: keyed
// without the machine id, the second would replay the first's payload
// and the hub would count one twin twice.
const char *TwinsSrc = R"(
event Hello(id);
main machine Hub {
  var A: id;
  var B: id;
  var NA: int;
  var NB: int;
  state Wait {
    entry {
      NA = 0;
      NB = 0;
      A = new Twin(Hub = this);
      B = new Twin(Hub = this);
    }
    on Hello do Note;
  }
  action Note {
    if (arg == A) { NA = NA + 1; } else { NB = NB + 1; }
    assert(NA <= 1 && NB <= 1);
  }
}
machine Twin {
  var Hub: id;
  state Greet {
    entry { send(Hub, Hello, this); }
  }
}
)";

TEST(SliceMemo, KeyIncludesTheMachineId) {
  const CompiledProgram Prog = compileOrDie(TwinsSrc);
  for (int Workers : {1, 4}) {
    CheckOptions Opts;
    Opts.DelayBound = 2;
    Opts.Workers = Workers;
    const CheckResult M =
        expectMemoInvisible(Prog, Opts, label("twins", Workers));
    EXPECT_FALSE(M.ErrorFound) << M.ErrorMessage;
  }
}

// From the second Go on, the spawner meets one local state (idle, Last
// null, Msg Go, Go queued) once per Go and creates a child each time.
// `new` reads the machine count, so such a slice is never memoized.
const char *SpawnSrc = R"(
event Go;
main machine Driver {
  var S: id;
  state Init {
    entry {
      S = new Spawner();
      send(S, Go);
      send(S, Go);
      send(S, Go);
    }
  }
}
machine Spawner {
  var Last: id;
  state Idle {
    entry { }
    on Go do Spawn;
  }
  action Spawn {
    Last = new Child();
    Last = null;
  }
}
machine Child {
  state C { entry { } }
}
)";

TEST(SliceMemo, SliceEndingInNewIsInterpreted) {
  const CompiledProgram Prog = compileOrDie(SpawnSrc);
  for (int Workers : {1, 4}) {
    CheckOptions Opts;
    Opts.DelayBound = 3;
    Opts.Workers = Workers;
    const CheckResult M =
        expectMemoInvisible(Prog, Opts, label("spawn", Workers));
    EXPECT_FALSE(M.ErrorFound) << M.ErrorMessage;
  }
}

//===----------------------------------------------------------------------===//
// Observed executors
//===----------------------------------------------------------------------===//

// An observed executor sees every slice: German(2) at d=1, one worker,
// fires the dequeue observer exactly as often as a checker without the
// memo did (3865 times, pinned before the memo existed).
TEST(SliceMemo, ObservedExecutorSeesEveryDequeue) {
  const CompiledProgram Prog = compileOrDie(corpus::german(2));
  Executor::Options EO;
  EO.UseModelBodies = true;
  EO.MaxStepsPerSlice = CheckOptions().MaxStepsPerSlice;
  Executor Exec(Prog, EO);
  uint64_t Dequeues = 0;
  Exec.addDequeueObserver([&](int32_t, int32_t) { ++Dequeues; });
  CheckOptions Opts;
  Opts.DelayBound = 1;
  const CheckResult R = check(Prog, Opts, &Exec);
  EXPECT_EQ(R.Stats.DistinctStates, 71678u);
  EXPECT_EQ(R.Stats.NodesExplored, 72006u);
  EXPECT_EQ(R.Stats.SlicesInterpreted, R.Stats.Slices);
  EXPECT_EQ(Dequeues, 3865u);
}

} // namespace
