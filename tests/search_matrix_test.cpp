//===- tests/search_matrix_test.cpp - Pinned serial search counts ---------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the serial search, node for node, on a matrix of corpus programs:
// German with one and two clients, the elevator, switch-and-LED, the
// USB hub with two ports, the worker pool with three workers, pub/sub
// with four subscribers and three seeded bugs, each at delay bounds 0–3
// and depth bounds 8, 14, 20 and 26 (rows under 100k nodes). An
// exhausted or depth-cut row pins distinct states, explored nodes and
// terminals; a row that stops on its first error pins the nodes
// explored before the stop and the counterexample's length. The numbers
// come from a search that probed each branch of a `*` under its own
// key. One visited entry for both (DESIGN.md, "One visited entry per
// `*`") keeps every one of them: the serial DFS visits the same nodes
// in the same order.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace p;

namespace {

enum Strategy { Delay, Depth };
/// States of a row that stops on its first error: not pinned, since the
/// count then includes true branches still pending at the stop.
constexpr uint64_t Stop = ~uint64_t(0);

struct Row {
  const char *Program;
  Strategy S;
  int Bound;
  uint64_t States, Nodes, Terminals;
  size_t ScheduleLength; ///< 0: no error found.
};

const Row Rows[] = {
    {"german1", Delay, 0, 68, 68, 0, 0},
    {"german1", Delay, 1, 648, 680, 0, 0},
    {"german1", Delay, 2, 1730, 2036, 0, 0},
    {"german1", Delay, 3, 2553, 3571, 0, 0},
    {"german1", Depth, 8, 40, 49, 0, 0},
    {"german1", Depth, 14, 741, 1414, 0, 0},
    {"german1", Depth, 20, 3274, 11208, 0, 0},
    {"german1", Depth, 26, 3667, 21789, 0, 0},
    {"german2", Delay, 0, 728, 728, 0, 0},
    {"german2", Delay, 1, 71678, 72006, 0, 0},
    {"german2", Depth, 8, 25, 25, 0, 0},
    {"german2", Depth, 14, 349, 569, 0, 0},
    {"german2", Depth, 20, 15546, 30329, 0, 0},
    {"elevator", Delay, 0, 167, 167, 0, 0},
    {"elevator", Delay, 1, 1548, 1660, 0, 0},
    {"elevator", Delay, 2, 5187, 6508, 0, 0},
    {"elevator", Delay, 3, 8794, 14965, 0, 0},
    {"elevator", Depth, 8, 94, 95, 0, 0},
    {"elevator", Depth, 14, 539, 903, 0, 0},
    {"elevator", Depth, 20, 3061, 9108, 0, 0},
    {"elevator", Depth, 26, 9649, 48212, 0, 0},
    {"switchLed", Delay, 0, 136, 136, 0, 0},
    {"switchLed", Delay, 1, 919, 988, 0, 0},
    {"switchLed", Delay, 2, 2053, 2644, 0, 0},
    {"switchLed", Delay, 3, 2771, 5163, 0, 0},
    {"switchLed", Depth, 8, 93, 100, 0, 0},
    {"switchLed", Depth, 14, 883, 1735, 0, 0},
    {"switchLed", Depth, 20, 2589, 10446, 0, 0},
    {"switchLed", Depth, 26, 3363, 23378, 0, 0},
    {"usbHub2", Delay, 0, 56123, 56098, 25, 0},
    {"usbHub2", Depth, 8, 281, 293, 0, 0},
    {"usbHub2", Depth, 14, 7776, 10580, 0, 0},
    {"workerPool3", Delay, 0, 20, 19, 1, 0},
    {"workerPool3", Delay, 1, 126, 135, 3, 0},
    {"workerPool3", Delay, 2, 495, 597, 3, 0},
    {"workerPool3", Delay, 3, 1190, 1779, 3, 0},
    {"workerPool3", Depth, 8, 367, 439, 0, 0},
    {"workerPool3", Depth, 14, 4063, 9981, 0, 0},
    {"workerPool3", Depth, 20, 4333, 15307, 3, 0},
    {"workerPool3", Depth, 26, 4333, 15331, 3, 0},
    {"pubSub4", Delay, 0, 10, 9, 1, 0},
    {"pubSub4", Delay, 1, 26, 29, 1, 0},
    {"pubSub4", Delay, 2, 40, 55, 1, 0},
    {"pubSub4", Delay, 3, 46, 81, 1, 0},
    {"pubSub4", Depth, 8, 46, 46, 0, 0},
    {"pubSub4", Depth, 14, 47, 47, 1, 0},
    {"pubSub4", Depth, 20, 47, 47, 1, 0},
    {"pubSub4", Depth, 26, 47, 47, 1, 0},
    {"germanBug", Delay, 0, Stop, 306, 0, 93},
    {"germanBug", Delay, 1, Stop, 11252, 0, 102},
    {"germanBug", Delay, 2, Stop, 12504, 0, 113},
    {"germanBug", Delay, 3, Stop, 40300, 0, 122},
    {"germanBug", Depth, 8, 25, 25, 0, 0},
    {"germanBug", Depth, 14, 349, 569, 0, 0},
    {"germanBug", Depth, 20, 15566, 30351, 0, 0},
    {"germanBug", Depth, 26, Stop, 15176, 0, 32},
    {"elevatorBug", Delay, 0, Stop, 34, 0, 36},
    {"elevatorBug", Delay, 1, Stop, 41, 0, 36},
    {"elevatorBug", Delay, 2, Stop, 40, 0, 44},
    {"elevatorBug", Delay, 3, Stop, 40, 0, 44},
    {"elevatorBug", Depth, 8, 94, 95, 0, 0},
    {"elevatorBug", Depth, 14, Stop, 41, 0, 18},
    {"elevatorBug", Depth, 20, Stop, 25, 0, 27},
    {"elevatorBug", Depth, 26, Stop, 25, 0, 27},
    {"switchLedBug", Delay, 0, 136, 136, 0, 0},
    {"switchLedBug", Delay, 1, Stop, 127, 0, 67},
    {"switchLedBug", Delay, 2, Stop, 232, 0, 75},
    {"switchLedBug", Delay, 3, Stop, 96, 0, 70},
    {"switchLedBug", Depth, 8, Stop, 45, 0, 10},
    {"switchLedBug", Depth, 14, Stop, 17, 0, 19},
    {"switchLedBug", Depth, 20, Stop, 17, 0, 19},
    {"switchLedBug", Depth, 26, Stop, 17, 0, 19},
};

std::string source(const std::string &Name) {
  using namespace corpus;
  static const std::map<std::string, std::string> Sources = {
      {"german1", german(1)},
      {"german2", german(2)},
      {"elevator", elevator()},
      {"switchLed", switchLed()},
      {"usbHub2", usbHub(2)},
      {"workerPool3", workerPool(3)},
      {"pubSub4", pubSub(4)},
      {"germanBug", german(2, GermanBug::SkipOwnerInvalidation)},
      {"elevatorBug", elevator(ElevatorBug::MissingDeferCloseDoor)},
      {"switchLedBug", switchLed(SwitchLedBug::MissingDeferSwitch)},
  };
  return Sources.at(Name);
}

TEST(SearchMatrix, SerialCountsArePinned) {
  std::map<std::string, CompiledProgram> Progs;
  for (const Row &R : Rows) {
    auto It = Progs.find(R.Program);
    if (It == Progs.end()) {
      CompileResult C = compileString(source(R.Program));
      ASSERT_TRUE(C.ok()) << R.Program << ": " << C.Diags.str();
      It = Progs.emplace(R.Program, std::move(*C.Program)).first;
    }
    CheckOptions Opts;
    if (R.S == Depth) {
      Opts.Strategy = SearchStrategy::DepthBounded;
      Opts.DepthBound = R.Bound;
    } else {
      Opts.DelayBound = R.Bound;
    }
    const CheckResult Res = check(It->second, Opts);
    const std::string What = std::string(R.Program) +
                             (R.S == Depth ? " depth=" : " delay=") +
                             std::to_string(R.Bound);
    EXPECT_EQ(Res.Stats.NodesExplored, R.Nodes) << What;
    EXPECT_EQ(Res.ErrorFound, R.ScheduleLength != 0) << What;
    EXPECT_EQ(Res.Schedule.size(), R.ScheduleLength) << What;
    if (R.States == Stop)
      continue;
    EXPECT_EQ(Res.Stats.DistinctStates, R.States) << What;
    EXPECT_EQ(Res.Stats.Terminals, R.Terminals) << What;
  }
}

// A stopped search also counts the true branches still pending at the
// stop: both branches of a `*` count when their false branch's probe
// finds the pair new. The seeded German bug at delay 0 stops after 306
// nodes with 316 states (307 when each branch counted at its own pop).
TEST(SearchMatrix, StoppedSearchCountsPendingTrueBranches) {
  CompileResult C = compileString(
      corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation));
  ASSERT_TRUE(C.ok()) << C.Diags.str();
  const CheckResult R = check(*C.Program, CheckOptions());
  ASSERT_TRUE(R.ErrorFound);
  EXPECT_EQ(R.Stats.NodesExplored, 306u);
  EXPECT_EQ(R.Stats.DistinctStates, 316u);
}

// Both strategies give each `*` one visited entry: every false branch
// probes for its pair, and a serial search decides every true branch
// from the window its sibling opened, never from its own probe.
TEST(SearchMatrix, BothStrategiesDecideTrueBranchesFromTheLedger) {
  CompileResult C = compileString(corpus::german(1));
  ASSERT_TRUE(C.ok()) << C.Diags.str();
  for (Strategy S : {Delay, Depth}) {
    CheckOptions Opts;
    Opts.Profile = true;
    if (S == Depth) {
      Opts.Strategy = SearchStrategy::DepthBounded;
      Opts.DepthBound = 20;
    } else {
      Opts.DelayBound = 3;
    }
    const CheckResult R = check(*C.Program, Opts);
    const char *What = S == Depth ? "depth=20" : "delay=3";
    EXPECT_GT(R.Profile.ChoiceProbes, 0u) << What;
    EXPECT_EQ(R.Profile.ChoiceDecided, R.Profile.ChoiceProbes) << What;
    EXPECT_EQ(R.Profile.ChoiceUnwindowed, 0u) << What;
  }
}

} // namespace
