//===- tests/property_sweep_test.cpp - Parameterized property sweeps --------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"

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
// Operator semantics sweep: every arithmetic/comparison result matches
// the reference computation, and ⊥ strictness holds for every operator.
//===----------------------------------------------------------------------===//

struct OpCase {
  const char *Op;
  int64_t A, B;
  Value Expected;
};

// Names each case by its expression ("7 + 5"). Without it the test
// name is a byte dump of the struct: the Op pointer moves with address
// space layout and the padding bytes are uninitialized, so the name
// changed from run to run.
void PrintTo(const OpCase &C, std::ostream *OS) {
  *OS << C.A << " " << C.Op << " " << C.B;
}

class BinaryOpSemantics : public ::testing::TestWithParam<OpCase> {};

TEST_P(BinaryOpSemantics, EvaluatesLikeTheReference) {
  const OpCase &C = GetParam();
  std::string Src = "main machine M {\n";
  Src += C.Expected.isBool() ? "  var R: bool;\n" : "  var R: int;\n";
  Src += "  state S { entry { R = " + std::to_string(C.A) + " " + C.Op +
         " " + std::to_string(C.B) + "; } }\n}\n";
  CompiledProgram Prog = compile(Src);
  Executor Exec(Prog);
  Config Cfg = Exec.makeInitialConfig();
  Exec.step(Cfg, 0);
  ASSERT_FALSE(Cfg.hasError()) << Cfg.ErrorMessage;
  EXPECT_EQ(Cfg.Machines[0]->Vars[0], C.Expected)
      << C.A << " " << C.Op << " " << C.B;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinaryOpSemantics,
    ::testing::Values(OpCase{"+", 7, 5, Value::integer(12)},
                      OpCase{"-", 7, 5, Value::integer(2)},
                      OpCase{"*", -3, 5, Value::integer(-15)},
                      OpCase{"/", 17, 5, Value::integer(3)},
                      OpCase{"/", -17, 5, Value::integer(-3)},
                      OpCase{"/", 4, 0, Value::null()}));

INSTANTIATE_TEST_SUITE_P(
    Comparison, BinaryOpSemantics,
    ::testing::Values(OpCase{"<", 1, 2, Value::boolean(true)},
                      OpCase{"<", 2, 2, Value::boolean(false)},
                      OpCase{"<=", 2, 2, Value::boolean(true)},
                      OpCase{">", 3, 2, Value::boolean(true)},
                      OpCase{">=", 1, 2, Value::boolean(false)},
                      OpCase{"==", 4, 4, Value::boolean(true)},
                      OpCase{"!=", 4, 4, Value::boolean(false)}));

class StrictOperators : public ::testing::TestWithParam<const char *> {};

TEST_P(StrictOperators, BottomPropagates) {
  // U is uninitialized (⊥); every operator must yield ⊥.
  std::string Src = R"(
main machine M {
  var U: int;
  var R: int;
  state S { entry { R = U )" +
                    std::string(GetParam()) + R"( 1; } }
}
)";
  // Comparisons type as bool; reuse an int slot is a type error, so
  // adapt the target type for comparison operators.
  std::string Op = GetParam();
  bool IsCmp = Op == "<" || Op == "<=" || Op == ">" || Op == ">=" ||
               Op == "==" || Op == "!=";
  if (IsCmp) {
    Src = R"(
main machine M {
  var U: int;
  var R: bool;
  state S { entry { R = U )" +
          Op + R"( 1; } }
}
)";
  }
  CompiledProgram Prog = compile(Src);
  Executor Exec(Prog);
  Config Cfg = Exec.makeInitialConfig();
  Exec.step(Cfg, 0);
  ASSERT_FALSE(Cfg.hasError()) << Cfg.ErrorMessage;
  EXPECT_EQ(Cfg.Machines[0]->Vars[1], Value::null()) << "op " << Op;
}

INSTANTIATE_TEST_SUITE_P(AllOps, StrictOperators,
                         ::testing::Values("+", "-", "*", "/", "<", "<=",
                                           ">", ">=", "==", "!="));

//===----------------------------------------------------------------------===//
// Every corpus counterexample replays: sweep all seeded bugs.
//===----------------------------------------------------------------------===//

struct BugProgram {
  const char *Name;
  std::string Source;
};

std::vector<BugProgram> buggyPrograms() {
  return {
      {"elevator-defer-close",
       corpus::elevator(corpus::ElevatorBug::MissingDeferCloseDoor)},
      {"elevator-defer-timer",
       corpus::elevator(corpus::ElevatorBug::MissingDeferTimerFired)},
      {"switchled-defer-switch",
       corpus::switchLed(corpus::SwitchLedBug::MissingDeferSwitch)},
      {"switchled-retry-assert",
       corpus::switchLed(corpus::SwitchLedBug::WrongRetryAssert)},
      {"german-owner-invalidation",
       corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation)},
      {"usbhub-surprise-remove",
       corpus::usbHub(1, corpus::UsbHubBug::SurpriseRemoveDuringReset)},
  };
}

class CounterexampleReplay : public ::testing::TestWithParam<int> {};

TEST_P(CounterexampleReplay, ScheduleReproducesTheError) {
  BugProgram Bug = buggyPrograms()[GetParam()];
  CompiledProgram Prog = compile(Bug.Source);
  CheckResult Found;
  for (int D = 0; D <= 2 && !Found.ErrorFound; ++D) {
    CheckOptions Opts;
    Opts.DelayBound = D;
    Found = check(Prog, Opts);
  }
  ASSERT_TRUE(Found.ErrorFound) << Bug.Name;

  ReplayResult R = replaySchedule(Prog, Found.Schedule);
  ASSERT_TRUE(R.ErrorReached) << Bug.Name;
  EXPECT_EQ(R.Error, Found.Error) << Bug.Name;
  EXPECT_EQ(R.ErrorMessage, Found.ErrorMessage) << Bug.Name;
}

INSTANTIATE_TEST_SUITE_P(AllSeededBugs, CounterexampleReplay,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           std::string Name =
                               buggyPrograms()[Info.param].Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

//===----------------------------------------------------------------------===//
// Checker-stats invariants across the corpus and bounds.
//===----------------------------------------------------------------------===//

class StatsInvariants : public ::testing::TestWithParam<int> {};

TEST_P(StatsInvariants, HoldOnSwitchLed) {
  CompiledProgram Prog = compile(corpus::switchLed());
  CheckOptions Opts;
  Opts.DelayBound = GetParam();
  CheckResult R = check(Prog, Opts);
  ASSERT_FALSE(R.ErrorFound);
  // Slices equal trace-able run decisions; every node stems from a
  // slice or a delay/choice, so:
  EXPECT_LE(R.Stats.DistinctStates, R.Stats.NodesExplored + 1);
  EXPECT_GE(R.Stats.Slices, R.Stats.DistinctStates / 2);
  // The ghost switch toggles forever (its entry always re-raises), so
  // the system never quiesces: exploration ends purely by state-space
  // closure, never at a terminal configuration.
  EXPECT_EQ(R.Stats.Terminals, 0u);
  EXPECT_TRUE(R.Stats.Exhausted);
  EXPECT_GE(R.Stats.MaxDepth, 3);
}

INSTANTIATE_TEST_SUITE_P(Bounds, StatsInvariants,
                         ::testing::Values(0, 1, 2, 3));

} // namespace
