//===- tests/trace_log_test.cpp - The search's counterexample trace log ----===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The search commits one packed decision per admitted or branching node
// to a refcounted tree and keeps the decision that produced a node
// pending until then; an entry is freed when the last node or child
// entry holding it goes away. These tests pin the packing (every kind
// round-trips at the boundary ids, an id that does not fit is refused,
// never truncated) and the schedules built from a committed chain plus
// a pending decision: counterexamples whose error node hangs below a
// Delay child, a choice child, a fault child or a node spilled to disk
// and reloaded, and one whose error was raised at enqueue time, all
// replay to the reported error, serial or parallel. Searches that stop
// with nodes still queued must free those nodes' chains too.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

using namespace p;

namespace {

using Kind = SchedDecision::Kind;

CompiledProgram compile(const std::string &Src) {
  CompileResult R = compileString(Src);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  if (!R.ok())
    std::abort();
  return std::move(*R.Program);
}

TEST(TraceLog, DecisionPackingRoundTripsEveryKindAtBoundaryIds) {
  constexpr int32_t Max = (int32_t(1) << 30) - 2; // Largest packable id.
  for (Kind K : {Kind::Run, Kind::Delay, Kind::Choose, Kind::DropEvent,
                 Kind::DupEvent, Kind::Crash, Kind::ForeignFault})
    for (int32_t Machine : {-1, 0, 1, 62, 63, Max - 1, Max})
      for (int32_t Aux : {-1, 0, 1, Max})
        for (bool Choice : {false, true}) {
          SchedDecision D;
          D.K = K;
          D.Machine = Machine;
          D.Aux = Aux;
          D.Choice = Choice;
          const uint64_t Word = packDecision(D);
          EXPECT_NE(Word, ~uint64_t(0)); // The log's "no decision".
          const SchedDecision Back = unpackDecision(Word);
          EXPECT_EQ(Back.K, K);
          EXPECT_EQ(Back.Machine, Machine);
          EXPECT_EQ(Back.Aux, Aux);
          EXPECT_EQ(Back.Choice, Choice);
        }
}

TEST(TraceLogDeathTest, IdsThatDoNotFitAreRefused) {
  for (int32_t Bad : {int32_t(1) << 30, (int32_t(1) << 30) - 1, -2,
                      std::numeric_limits<int32_t>::max(),
                      std::numeric_limits<int32_t>::min()}) {
    SchedDecision D;
    D.Machine = Bad;
    EXPECT_DEATH(packDecision(D), "does not fit the trace log")
        << "machine " << Bad;
    D.Machine = 0;
    D.Aux = Bad;
    EXPECT_DEATH(packDecision(D), "does not fit the trace log") << "aux " << Bad;
  }
}

/// Checks \p Prog exhaustively under \p Opts. The serial run's
/// counterexample ends in a Run, its last decision other than a Run is
/// of kind \p Branch (Run: there is none), and it replays to the
/// reported error. A 4-worker run's counterexample replays too, and
/// the rendered trace ends on the error.
void expectReplays(const CompiledProgram &Prog, CheckOptions Opts,
                   Kind Branch, ErrorKind Expected) {
  Opts.StopOnFirstError = false;
  Opts.Workers = 1;
  const CheckResult Serial = check(Prog, Opts);
  ASSERT_TRUE(Serial.ErrorFound);
  EXPECT_EQ(Serial.Error, Expected) << Serial.ErrorMessage;
  ASSERT_FALSE(Serial.Schedule.empty());
  EXPECT_EQ(Serial.Schedule.back().K, Kind::Run);
  Kind Last = Kind::Run;
  for (const SchedDecision &D : Serial.Schedule)
    if (D.K != Kind::Run)
      Last = D.K;
  EXPECT_EQ(Last, Branch);

  const ReplayResult Replay = replaySchedule(Prog, Serial.Schedule, Opts);
  ASSERT_TRUE(Replay.ErrorReached);
  EXPECT_EQ(Replay.Error, Serial.Error);
  EXPECT_EQ(Replay.ErrorMessage, Serial.ErrorMessage);

  // Any worker count reports a counterexample that replays.
  Opts.Workers = 4;
  const CheckResult Parallel = check(Prog, Opts);
  ASSERT_TRUE(Parallel.ErrorFound);
  EXPECT_EQ(Parallel.Error, Expected);
  const ReplayResult Again = replaySchedule(Prog, Parallel.Schedule, Opts);
  ASSERT_TRUE(Again.ErrorReached);
  EXPECT_EQ(Again.ErrorMessage, Parallel.ErrorMessage);
  for (const CheckResult *R : {&Serial, &Parallel})
    EXPECT_NE(R->Trace.back().find("-> error: " + R->ErrorMessage),
              std::string::npos)
        << R->Trace.back();
}

TEST(TraceLog, CounterexampleBelowADelayChildReplays) {
  // The Receiver sees First before Second only when the Relay is
  // delayed; the erroring slice is the second run below that delay.
  CompiledProgram Prog = compile(R"(
event Trigger, First, Second;
main ghost machine Sender {
  var R: id;
  var C: id;
  state Go {
    entry {
      R = new Receiver();
      C = new Relay(Out = R);
      send(C, Trigger);
      send(R, First);
    }
  }
}
machine Relay {
  var Out: id;
  state W {
    entry { }
    on Trigger do Fwd;
  }
  action Fwd { send(Out, Second); }
}
machine Receiver {
  state S {
    entry { }
    on Second goto T;
  }
  state T {
    entry { }
    on First goto T;
    on Second goto T;
  }
}
)");
  CheckOptions Opts;
  Opts.DelayBound = 1;
  expectReplays(Prog, Opts, Kind::Delay, ErrorKind::UnhandledEvent);
}

TEST(TraceLog, CounterexampleBelowAChoiceChildReplays) {
  CompiledProgram Prog = compile(R"(
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
)");
  expectReplays(Prog, CheckOptions(), Kind::Choose, ErrorKind::AssertFailed);
}

TEST(TraceLog, CounterexampleBelowAFaultChildReplays) {
  // The Receiver defers E1 and E2 until Go, then needs E1 before E2.
  // Dropping E1 from the full queue, just before the Receiver's slice,
  // is the lex-least way to break it.
  CompiledProgram Prog = compile(R"(
event E1, E2, Go;
main ghost machine Main {
  var R: id;
  state Start {
    entry {
      R = new Receiver();
      send(R, E1);
      send(R, E2);
      send(R, Go);
    }
  }
}
machine Receiver {
  state Wait {
    entry { }
    defer E1, E2;
    on Go goto Ready;
  }
  state Ready {
    entry { }
    on E1 goto Done;
  }
  state Done {
    entry { }
    on E2 goto Done;
  }
}
)");
  CheckOptions Opts;
  Opts.Faults.Budget = 1;
  Opts.Faults.Drop = true;
  Opts.Faults.Duplicate = false;
  expectReplays(Prog, Opts, Kind::DropEvent, ErrorKind::UnhandledEvent);
}

TEST(TraceLog, EnqueueTimeErrorReplays) {
  // The second send overflows the one-slot queue of a Receiver that
  // defers everything: the error is raised by the enqueue inside a
  // slice that ends at an ordinary scheduling point, so the node
  // carrying it is recorded on its pending Run, never admitted. The
  // schedule holds only Runs.
  CompiledProgram Prog = compile(R"(
event E1, E2;
main ghost machine Main {
  var R: id;
  state Start {
    entry {
      R = new Receiver();
      send(R, E1);
      send(R, E2);
    }
  }
}
machine Receiver {
  state Wait {
    entry { }
    defer E1, E2;
  }
}
)");
  CheckOptions Opts;
  Opts.MaxQueue = 1;
  expectReplays(Prog, Opts, Kind::Run, ErrorKind::QueueOverflow);
}

/// The schedule as packed words, so a mismatch prints compactly.
std::vector<uint64_t> packed(const std::vector<SchedDecision> &S) {
  std::vector<uint64_t> Words;
  for (const SchedDecision &D : S)
    Words.push_back(packDecision(D));
  return Words;
}

void expectReplaysTo(const CompiledProgram &Prog, const CheckResult &R) {
  const ReplayResult Replay = replaySchedule(Prog, R.Schedule);
  ASSERT_TRUE(Replay.ErrorReached);
  EXPECT_EQ(Replay.Error, R.Error);
  EXPECT_EQ(Replay.ErrorMessage, R.ErrorMessage);
}

CompiledProgram buggyGerman() {
  return compile(
      corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation));
}

TEST(TraceLog, CounterexampleBelowSpilledNodesMatchesInMemory) {
  // A spilled node leaves its chain behind and takes its schedule to
  // disk; a reloaded one rebuilds a chain from that schedule. Errors
  // found below reloaded nodes must report the in-memory schedule. At 4
  // workers the report is the lex-least schedule among those found,
  // which races in the visited table vary even with no spill (see
  // DESIGN.md "Determinism contract"), so there it must replay.
  const CompiledProgram Prog = buggyGerman();
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.StopOnFirstError = false;
  const CheckResult InMemory = check(Prog, Opts);
  ASSERT_TRUE(InMemory.ErrorFound);
  ASSERT_TRUE(InMemory.Stats.Exhausted);
  for (int Workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    CheckOptions Spill = Opts;
    Spill.Workers = Workers;
    // 1 byte: spill every cold half-frontier the resident floor allows.
    Spill.FrontierMemLimitBytes = 1;
    Spill.SpillDir = ::testing::TempDir();
    const CheckResult R = check(Prog, Spill);
    EXPECT_GT(R.Stats.FrontierSpilledNodes, 0u);
    ASSERT_TRUE(R.ErrorFound);
    EXPECT_EQ(R.Error, InMemory.Error);
    if (Workers == 1)
      EXPECT_EQ(packed(R.Schedule), packed(InMemory.Schedule));
    EXPECT_EQ(R.Stats.DistinctStates, InMemory.Stats.DistinctStates);
    expectReplaysTo(Prog, R);
  }
}

TEST(TraceLog, EveryStopPathFreesQueuedChains) {
  // Each run stops with nodes still in frontiers, each holding a chain
  // of trace entries. Destroying those nodes must free every entry:
  // LeakSanitizer, on in the asan-ubsan CI lane (-DP_SANITIZE=ON),
  // fails this test on one leaked entry. The plain build checks that
  // each stop is reported as such.
  const CompiledProgram Clean = compile(corpus::german(2));
  const CompiledProgram Buggy = buggyGerman();
  for (int Workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    CheckOptions Opts;
    Opts.DelayBound = 2;
    Opts.Workers = Workers;
    Opts.StopOnFirstError = false;

    CheckOptions Cut = Opts;
    Cut.MaxNodes = 5000;
    const CheckResult Capped = check(Clean, Cut);
    EXPECT_FALSE(Capped.Stats.Exhausted);
    EXPECT_GE(Capped.Stats.NodesExplored, Cut.MaxNodes);
    EXPECT_FALSE(Capped.ErrorFound);
    EXPECT_TRUE(Capped.Schedule.empty());

    CheckOptions First = Opts;
    First.StopOnFirstError = true;
    const CheckResult Stopped = check(Buggy, First);
    ASSERT_TRUE(Stopped.ErrorFound);
    EXPECT_EQ(Stopped.Error, ErrorKind::AssertFailed);
    EXPECT_FALSE(Stopped.Stats.Exhausted);
    expectReplaysTo(Buggy, Stopped);

    // Raised from the heartbeat once the search is under way, so the
    // frontier is not empty when worker 0 sees the flag.
    std::atomic<bool> Flag{false};
    CheckOptions Intr = Opts;
    Intr.InterruptFlag = &Flag;
    Intr.ProgressIntervalSeconds = 1e-9;
    Intr.Progress = [&Flag](const CheckStats &S) {
      if (S.NodesExplored >= 5000)
        Flag.store(true, std::memory_order_relaxed);
    };
    const CheckResult Interrupted = check(Clean, Intr);
    EXPECT_TRUE(Interrupted.Stats.Interrupted);
    EXPECT_FALSE(Interrupted.Stats.Exhausted);
    EXPECT_GE(Interrupted.Stats.NodesExplored, 5000u);
    EXPECT_FALSE(Interrupted.ErrorFound);
  }
}

} // namespace
