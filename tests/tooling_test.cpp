//===- tests/tooling_test.cpp - Coverage, DOT and replay tests --------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "pir/Dot.h"

#include <gtest/gtest.h>

using namespace p;

namespace {

CompiledProgram compile(const std::string &Src) {
  CompileResult R = compileString(Src);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  if (!R.ok())
    std::abort();
  return std::move(*R.Program);
}

//===----------------------------------------------------------------------===//
// Coverage
//===----------------------------------------------------------------------===//

TEST(Coverage, ExhaustiveElevatorSearchCoversEverything) {
  CompiledProgram Prog = compile(corpus::elevator());
  CheckOptions Opts;
  Opts.DelayBound = 3;
  Opts.TrackCoverage = true;
  CheckResult R = check(Prog, Opts);
  ASSERT_FALSE(R.ErrorFound) << R.ErrorMessage;

  int Elevator = Prog.findMachine("Elevator");
  ASSERT_GE(Elevator, 0);
  const auto &Cov = R.Coverage.Machines[Elevator];
  EXPECT_EQ(Cov.StatesVisited.size(),
            Prog.Machines[Elevator].States.size())
      << "every Elevator state is reachable:\n"
      << R.Coverage.str(Prog);
  EXPECT_GT(Cov.TransitionsFired.size(), 10u);
}

TEST(Coverage, ReportsUnreachableStates) {
  CompiledProgram Prog = compile(R"(
event Go;
main machine M {
  state S {
    entry { }
    on Go goto T;
  }
  state T { entry { } }
  state Orphan { entry { } }   // no transition ever targets this
}
)");
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.TrackCoverage = true;
  CheckResult R = check(Prog, Opts);
  int M = Prog.findMachine("M");
  EXPECT_FALSE(R.Coverage.Machines[M].StatesVisited.count(2))
      << "Orphan must not be visited";
  std::string Report = R.Coverage.str(Prog);
  EXPECT_NE(Report.find("unreached state: Orphan"), std::string::npos)
      << Report;
  // Go is never sent by anyone either: T stays unreached too.
  EXPECT_NE(Report.find("unreached state: T"), std::string::npos);
}

TEST(Coverage, GhostMachinesAreSkippedWhenNeverCreated) {
  CompiledProgram Prog = compile(corpus::switchLed());
  CheckOptions Opts;
  Opts.DelayBound = 2;
  Opts.TrackCoverage = true;
  CheckResult R = check(Prog, Opts);
  std::string Report = R.Coverage.str(Prog);
  EXPECT_NE(Report.find("SwitchLedDriver: states 7/7"), std::string::npos)
      << Report;
}

//===----------------------------------------------------------------------===//
// DOT rendering
//===----------------------------------------------------------------------===//

TEST(Dot, RendersFigureOneStyleDiagram) {
  CompiledProgram Prog = compile(corpus::elevator());
  int Elevator = Prog.findMachine("Elevator");
  std::string Dot = toDot(Prog, Elevator);

  EXPECT_NE(Dot.find("digraph \"Elevator\""), std::string::npos);
  // Step transition: Init -> DoorClosed on unit.
  EXPECT_NE(Dot.find("\"Init\" -> \"DoorClosed\" [label=\"unit\"]"),
            std::string::npos)
      << Dot;
  // Call transitions render bold (the paper's double edges).
  EXPECT_NE(Dot.find("-> \"StoppingTimer\" [label=\"OpenDoor\", "
                     "style=bold"),
            std::string::npos)
      << Dot;
  // Action bindings render as dashed self-loops.
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
  // Deferred sets appear in the node labels.
  EXPECT_NE(Dot.find("defer: CloseDoor"), std::string::npos);
  // The initial-state marker.
  EXPECT_NE(Dot.find("\"__init\" -> \"Init\""), std::string::npos);
}

TEST(Dot, WholeProgramUsesClusters) {
  CompiledProgram Prog = compile(corpus::switchLed());
  std::string Dot = toDot(Prog);
  EXPECT_NE(Dot.find("subgraph \"cluster_SwitchLedDriver\""),
            std::string::npos);
  EXPECT_NE(Dot.find("label=\"ghost machine Led\""), std::string::npos);
  // Node ids are namespaced per machine so clusters cannot collide.
  EXPECT_NE(Dot.find("\"SwitchLedDriver.Off\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

TEST(Replay, ReproducesCounterexamples) {
  CompiledProgram Prog =
      compile(corpus::elevator(corpus::ElevatorBug::MissingDeferTimerFired));
  CheckResult Found;
  for (int D = 0; D <= 2 && !Found.ErrorFound; ++D) {
    CheckOptions Opts;
    Opts.DelayBound = D;
    Found = check(Prog, Opts);
  }
  ASSERT_TRUE(Found.ErrorFound);
  ASSERT_FALSE(Found.Schedule.empty());

  ReplayResult R = replaySchedule(Prog, Found.Schedule);
  ASSERT_TRUE(R.ErrorReached) << "the schedule must reproduce the error";
  EXPECT_EQ(R.Error, Found.Error);
  EXPECT_EQ(R.ErrorMessage, Found.ErrorMessage);
}

TEST(Replay, RunsUnderTheCheckStepLimit) {
  // The loop outruns a 50-step slice: the check reports divergence, and
  // replaying its schedule under the same options must too.
  CompiledProgram Prog = compile(R"(
main machine M {
  var X: int;
  state S { entry { X = 0; while (X < 100) { X = X + 1; } } }
}
)");
  CheckOptions Opts;
  Opts.MaxStepsPerSlice = 50;
  CheckResult Found = check(Prog, Opts);
  ASSERT_TRUE(Found.ErrorFound);
  ASSERT_EQ(Found.Error, ErrorKind::Divergence);

  ReplayResult R = replaySchedule(Prog, Found.Schedule, Opts);
  ASSERT_TRUE(R.ErrorReached);
  EXPECT_EQ(R.Error, ErrorKind::Divergence);
  EXPECT_EQ(R.ErrorMessage, Found.ErrorMessage);
}

TEST(Replay, ReproducesNondetDependentErrors) {
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
  CheckOptions Opts;
  Opts.DelayBound = 0;
  CheckResult Found = check(Prog, Opts);
  ASSERT_TRUE(Found.ErrorFound);

  ReplayResult R = replaySchedule(Prog, Found.Schedule);
  ASSERT_TRUE(R.ErrorReached);
  EXPECT_EQ(R.Error, ErrorKind::AssertFailed);
  // Both choices were replayed as true.
  EXPECT_EQ(R.Final.Machines[0]->Vars[0], Value::boolean(true));
  EXPECT_EQ(R.Final.Machines[0]->Vars[1], Value::boolean(true));
}

TEST(Replay, CleanScheduleReplaysClean) {
  CompiledProgram Prog = compile(R"(
event Go;
main machine M {
  var X: int;
  state S {
    entry { X = 1; send(this, Go); }
    on Go goto T;
  }
  state T { entry { X = 2; } }
}
)");
  std::vector<SchedDecision> Schedule;
  SchedDecision Run;
  Run.K = SchedDecision::Kind::Run;
  Run.Machine = 0;
  Schedule.push_back(Run); // entry, send to self
  Schedule.push_back(Run); // dequeue Go, step to T
  ReplayResult R = replaySchedule(Prog, Schedule);
  EXPECT_FALSE(R.ErrorReached) << R.ErrorMessage;
  EXPECT_EQ(R.Final.Machines[0]->Vars[0], Value::integer(2));
  EXPECT_EQ(R.Steps.size(), 2u);
}

} // namespace
