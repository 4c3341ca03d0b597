//===- tests/liveness_test.cpp - Section 3.2 liveness checking --------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Liveness.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

#include <map>

using namespace p;

namespace {

CompiledProgram compile(const std::string &Src) {
  CompileResult R = compileString(Src);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  if (!R.ok())
    std::abort();
  return std::move(*R.Program);
}

/// \p Src with every `defer E;` clause mirrored by `postpone E;`.
std::string postponeDeferrals(const std::string &Src) {
  std::string Annotated;
  size_t Pos = 0;
  while (true) {
    size_t DeferAt = Src.find("defer ", Pos);
    if (DeferAt == std::string::npos)
      return Annotated + Src.substr(Pos);
    size_t Semi = Src.find(';', DeferAt);
    EXPECT_NE(Semi, std::string::npos);
    Annotated += Src.substr(Pos, Semi + 1 - Pos);
    Annotated += " postpone " +
                 Src.substr(DeferAt + 6, Semi - (DeferAt + 6)) + ";";
    Pos = Semi + 1;
  }
}

/// A machine that defers Nag in every state while consuming an endless
/// stream of Ticks: Nag can be deferred forever.
const char *Starver = R"(
event Nag;
event Tick;
main ghost machine Env {
  var M: id;
  state Boot {
    entry {
      M = new Sloth();
      send(M, Nag);
      raise(Tick);
    }
    on Tick goto Loop;
  }
  state Loop {
    entry {
      send(M, Tick);
      raise(Tick);
    }
    on Tick goto Loop;
  }
}
machine Sloth {
  state S {
    defer Nag;
    entry { }
    on Tick goto S;
  }
}
)";

TEST(Liveness, DetectsEternalDeferral) {
  CompiledProgram Prog = compile(Starver);
  LivenessOptions Opts;
  Opts.DelayBound = 0;
  LivenessResult R = checkLiveness(Prog, Opts);
  ASSERT_TRUE(R.ViolationFound) << "nodes=" << R.NodesExplored;
  EXPECT_NE(R.Message.find("Nag"), std::string::npos) << R.Message;
  EXPECT_FALSE(R.CycleTrace.empty());
}

TEST(Liveness, PostponeAnnotationExcusesTheDeferral) {
  // Same program, but the state declares Nag postponed (Section 3.2's
  // refinement for prioritized events).
  std::string Src = Starver;
  size_t Pos = Src.find("defer Nag;");
  ASSERT_NE(Pos, std::string::npos);
  Src.insert(Pos, "postpone Nag;\n    ");
  CompiledProgram Prog = compile(Src);
  LivenessOptions Opts;
  Opts.DelayBound = 0;
  LivenessResult R = checkLiveness(Prog, Opts);
  EXPECT_FALSE(R.ViolationFound) << R.Message;
}

TEST(Liveness, ConsumedEventsAreNotStarved) {
  // The receiver consumes every Tick it is sent; nothing starves.
  CompiledProgram Prog = compile(R"(
event Tick;
main ghost machine Env {
  var M: id;
  state Boot {
    entry {
      M = new Eager();
      raise(Tick);
    }
    on Tick goto Loop;
  }
  state Loop {
    entry {
      send(M, Tick);
      raise(Tick);
    }
    on Tick goto Loop;
  }
}
machine Eager {
  state S {
    entry { }
    on Tick do Consume;
  }
  action Consume { skip; }
}
)");
  LivenessOptions Opts;
  Opts.DelayBound = 1;
  LivenessResult R = checkLiveness(Prog, Opts);
  EXPECT_FALSE(R.ViolationFound) << R.Message;
  EXPECT_GT(R.CyclesChecked, 0u) << "the loop must form cycles";
}

TEST(Liveness, ElevatorStarvesCloseDoorWithoutPostpone) {
  // A user hammering OpenDoor keeps the elevator cycling through states
  // that all defer CloseDoor — the close request starves. This is
  // exactly the situation Section 3.2 describes when motivating the
  // `postpone` annotation for prioritized events.
  CompiledProgram Prog = compile(corpus::elevator());
  LivenessOptions Opts;
  Opts.DelayBound = 1;
  Opts.MaxNodes = 300000;
  LivenessResult R = checkLiveness(Prog, Opts);
  ASSERT_TRUE(R.ViolationFound);
  EXPECT_NE(R.Message.find("CloseDoor"), std::string::npos) << R.Message;
}

TEST(Liveness, PostponingDeferredEventsSilencesTheElevator) {
  // The remedy Section 3.2 prescribes: declare the deliberately
  // low-priority deferrals postponed. Mirror every `defer` clause with
  // a `postpone` clause and the starvation report disappears.
  CompiledProgram Prog = compile(postponeDeferrals(corpus::elevator()));
  LivenessOptions Opts;
  Opts.DelayBound = 1;
  Opts.MaxNodes = 300000;
  LivenessResult R = checkLiveness(Prog, Opts);
  EXPECT_FALSE(R.ViolationFound) << R.Message;
  EXPECT_GT(R.CyclesChecked, 0u);
}

TEST(Liveness, UnfairLoopsAreNotViolations) {
  // Two machines; a schedule that starves Consumer entirely is unfair
  // (Consumer is continuously enabled but never scheduled), so the
  // pending event there is not reported.
  CompiledProgram Prog = compile(R"(
event Tick;
event Data;
main ghost machine Producer {
  var C: id;
  state Boot {
    entry {
      C = new Consumer();
      send(C, Data);
      raise(Tick);
    }
    on Tick goto Loop;
  }
  state Loop {
    entry { send(this, Tick); }
    on Tick goto Loop;
  }
}
machine Consumer {
  state S {
    entry { }
    on Data do Use;
  }
  action Use { skip; }
}
)");
  // With one delay, Consumer (holding a deliverable Data) sinks to the
  // bottom of the scheduler stack while Producer self-sends forever:
  // that loop never schedules Consumer although it is continuously
  // enabled, so the fairness premise must reject the cycle.
  LivenessOptions Opts;
  Opts.DelayBound = 1;
  LivenessResult R = checkLiveness(Prog, Opts);
  EXPECT_FALSE(R.ViolationFound) << R.Message;
  EXPECT_GT(R.CyclesChecked, 0u);
}

// Every verdict, count and lasso line of the liveness DFS over the
// corpus at delay bounds 0-2. A change to the schedule graph or to its
// visit order moves these numbers.
TEST(Liveness, PinnedRows) {
  struct Row {
    const char *Program;
    int Delay;
    bool Violation;
    uint64_t Nodes, Cycles;
    bool Exhausted;
    std::vector<std::string> Trace;
  };
  // The lasso every elevator row reports: the ghost user looping.
  const std::vector<std::string> Lasso = {
      "run User#0 @ Loop", "run User#0 @ Loop (choose false)",
      "run User#0 @ Loop (closes the loop)"};
  const Row Rows[] = {
      {"elevator", 0, true, 26u, 2u, true, Lasso},
      {"elevator", 1, true, 33u, 5u, true, Lasso},
      {"elevator", 2, true, 32u, 5u, true, Lasso},
      {"elevatorPostponed", 0, false, 167u, 15u, true, {}},
      {"elevatorPostponed", 1, false, 1660u, 373u, true, {}},
      {"elevatorPostponed", 2, false, 6525u, 1593u, true, {}},
      {"switchLed", 0, false, 136u, 18u, true, {}},
      {"switchLed", 1, false, 988u, 308u, true, {}},
      {"switchLed", 2, false, 2651u, 665u, true, {}},
      {"german1", 0, false, 68u, 13u, true, {}},
      {"german1", 1, false, 682u, 260u, true, {}},
      {"german1", 2, false, 2040u, 775u, true, {}},
      {"pubSub4", 0, false, 10u, 0u, true, {}},
      {"pubSub4", 1, false, 30u, 0u, true, {}},
      {"pubSub4", 2, false, 56u, 4u, true, {}},
      {"workerPool3", 0, false, 20u, 0u, true, {}},
      {"workerPool3", 1, false, 138u, 0u, true, {}},
      {"workerPool3", 2, false, 600u, 12u, true, {}},
  };
  const std::map<std::string, std::string> Sources = {
      {"elevator", corpus::elevator()},
      {"elevatorPostponed", postponeDeferrals(corpus::elevator())},
      {"switchLed", corpus::switchLed()},
      {"german1", corpus::german(1)},
      {"pubSub4", corpus::pubSub(4)},
      {"workerPool3", corpus::workerPool(3)},
  };
  std::map<std::string, CompiledProgram> Progs;
  for (const auto &[Name, Src] : Sources)
    Progs.emplace(Name, compile(Src));
  for (const Row &Want : Rows) {
    LivenessOptions Opts;
    Opts.DelayBound = Want.Delay;
    Opts.MaxNodes = 20000; // A cap: every row exhausts well below it.
    const LivenessResult R = checkLiveness(Progs.at(Want.Program), Opts);
    SCOPED_TRACE(std::string(Want.Program) + " d=" +
                 std::to_string(Want.Delay));
    EXPECT_EQ(R.ViolationFound, Want.Violation) << R.Message;
    EXPECT_EQ(R.NodesExplored, Want.Nodes);
    EXPECT_EQ(R.CyclesChecked, Want.Cycles);
    EXPECT_EQ(R.Exhausted, Want.Exhausted);
    EXPECT_EQ(R.CycleTrace, Want.Trace);
  }
}

} // namespace
