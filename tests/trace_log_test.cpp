//===- tests/trace_log_test.cpp - The search's counterexample trace log ----===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The search logs one packed decision per admitted or branching node
// and keeps the decision that produced a node pending until then. These
// tests pin the packing (every kind round-trips at the boundary ids, an
// id that does not fit is refused, never truncated) and the schedules
// built from a committed chain plus a pending decision: counterexamples
// whose error node hangs below a Delay child, a choice child and a
// fault child, and one whose error was raised at enqueue time, all
// replay to the reported error, serial or parallel.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

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

  const ReplayResult Replay = replaySchedule(Prog, Serial.Schedule, true,
                                             Opts.MaxQueue, Opts.Overflow);
  ASSERT_TRUE(Replay.ErrorReached);
  EXPECT_EQ(Replay.Error, Serial.Error);
  EXPECT_EQ(Replay.ErrorMessage, Serial.ErrorMessage);

  // Any worker count reports a counterexample that replays.
  Opts.Workers = 4;
  const CheckResult Parallel = check(Prog, Opts);
  ASSERT_TRUE(Parallel.ErrorFound);
  EXPECT_EQ(Parallel.Error, Expected);
  const ReplayResult Again = replaySchedule(Prog, Parallel.Schedule, true,
                                            Opts.MaxQueue, Opts.Overflow);
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

} // namespace
