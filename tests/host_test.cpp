//===- tests/host_test.cpp - Execution host tests ---------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/StateHash.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "host/Host.h"

#include <gtest/gtest.h>

using namespace p;

namespace {

CompiledProgram compileErased(const std::string &Src) {
  LowerOptions Opts;
  Opts.EraseGhosts = true;
  CompileResult R = compileString(Src, Opts);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  if (!R.ok())
    std::abort();
  return std::move(*R.Program);
}

const char *Counter = R"(
event Inc(int);
event Get;
event Reply(int);
main machine CounterM {
  var Total: int;
  var Client: id;
  state S {
    entry { Total = 0; }
    on Inc do Add;
    on Get do Answer;
  }
  action Add { Total = Total + arg; }
  action Answer { send(Client, Reply, Total); }
}
machine Probe {
  var Seen: int;
  state S {
    entry { }
    on Reply do Note;
  }
  action Note { Seen = arg; }
}
)";

TEST(Host, CreateUnknownMachineFails) {
  CompiledProgram Prog = compileErased(Counter);
  Host H(Prog);
  EXPECT_EQ(H.createMachine("Nonexistent"), -1);
  EXPECT_EQ(H.lastHostError(), HostError::UnknownMachine);
}

TEST(Host, AddUnknownEventFails) {
  CompiledProgram Prog = compileErased(Counter);
  Host H(Prog);
  int32_t Id = H.createMachine("CounterM");
  EXPECT_EQ(H.lastHostError(), HostError::None);
  EXPECT_FALSE(H.addEvent(Id, "Nonexistent"));
  EXPECT_EQ(H.lastHostError(), HostError::UnknownEvent);
}

TEST(Host, LastHostErrorClassifiesApiMisuse) {
  CompiledProgram Prog = compileErased(R"(
event Die;
event Nop;
main machine M {
  state S {
    entry { }
    on Nop do Ignore;
    on Die do Kill;
  }
  action Ignore { skip; }
  action Kill { delete; }
}
)");
  Host H(Prog);
  int32_t Id = H.createMachine("M");
  ASSERT_GE(Id, 0);

  // Out-of-range target: never was a machine.
  EXPECT_FALSE(H.addEvent(99, "Nop"));
  EXPECT_EQ(H.lastHostError(), HostError::UnknownMachine);

  // A successful call resets the classification.
  EXPECT_TRUE(H.addEvent(Id, "Nop"));
  EXPECT_EQ(H.lastHostError(), HostError::None);

  // The machine deletes itself; further sends hit a dead target. This
  // is API misuse by the caller ("OS"), distinct from the program-level
  // send-to-deleted error a P machine would raise.
  EXPECT_TRUE(H.addEvent(Id, "Die"));
  EXPECT_FALSE(H.addEvent(Id, "Nop"));
  EXPECT_EQ(H.lastHostError(), HostError::DeadTarget);
  EXPECT_FALSE(H.hasError());

  // The names are stable identifiers for logs/tests.
  EXPECT_STREQ(hostErrorName(HostError::None), "none");
  EXPECT_STREQ(hostErrorName(HostError::UnknownMachine), "unknown-machine");
  EXPECT_STREQ(hostErrorName(HostError::UnknownEvent), "unknown-event");
  EXPECT_STREQ(hostErrorName(HostError::DeadTarget), "dead-target");
}

TEST(Host, EventsDriveTheMachine) {
  CompiledProgram Prog = compileErased(Counter);
  Host H(Prog);
  int32_t Id = H.createMachine("CounterM");
  ASSERT_GE(Id, 0);
  EXPECT_EQ(H.readVar(Id, "Total"), Value::integer(0));
  ASSERT_TRUE(H.addEvent(Id, "Inc", Value::integer(5)));
  ASSERT_TRUE(H.addEvent(Id, "Inc", Value::integer(7)));
  EXPECT_EQ(H.readVar(Id, "Total"), Value::integer(12));
  EXPECT_EQ(H.stats().EventsDelivered, 2u);
  EXPECT_EQ(H.stats().MachinesCreated, 1u);
}

TEST(Host, InitializersWireMachinesTogether) {
  CompiledProgram Prog = compileErased(Counter);
  Host H(Prog);
  int32_t Probe = H.createMachine("Probe");
  int32_t Ctr = H.createMachine(
      "CounterM", {{"Client", Value::machine(Probe)}});
  ASSERT_TRUE(H.addEvent(Ctr, "Inc", Value::integer(3)));
  ASSERT_TRUE(H.addEvent(Ctr, "Get"));
  // The reply flowed Counter -> Probe within the same pump.
  EXPECT_EQ(H.readVar(Probe, "Seen"), Value::integer(3));
}

TEST(Host, ErrorsSurfaceThroughTheApi) {
  CompiledProgram Prog = compileErased(R"(
event Boom;
main machine M {
  state S {
    entry { }
    on Boom do Blow;
  }
  action Blow { assert(false); }
}
)");
  Host H(Prog);
  int32_t Id = H.createMachine("M");
  EXPECT_FALSE(H.addEvent(Id, "Boom"));
  EXPECT_TRUE(H.hasError());
  EXPECT_EQ(H.error(), ErrorKind::AssertFailed);
}

TEST(Host, ForeignFunctionsAndContexts) {
  CompiledProgram Prog = compileErased(R"(
event Probe;
main machine M {
  var X: int;
  foreign fun ReadSensor(): int;
  state S {
    entry { }
    on Probe do Sample;
  }
  action Sample { X = ReadSensor(); }
}
)");
  Host H(Prog);
  // The foreign function reads the per-machine external memory, as the
  // paper's foreign code does through SMGetContext.
  int Sensor = 451;
  H.registerForeign("M", "ReadSensor",
                    [&H](Config &, int32_t Self,
                         const std::vector<Value> &) {
                      int *Mem = static_cast<int *>(H.getContext(Self));
                      return Value::integer(Mem ? *Mem : -1);
                    });
  int32_t Id = H.createMachine("M");
  H.setContext(Id, &Sensor);
  ASSERT_TRUE(H.addEvent(Id, "Probe"));
  EXPECT_EQ(H.readVar(Id, "X"), Value::integer(451));
}

TEST(Host, RunToCompletionDrainsCrossMachineChatter) {
  CompiledProgram Prog = compileErased(R"(
event Ball(int);
main machine Player {
  var Peer: id;
  var Count: int;
  state S {
    entry { Count = 0; }
    on Ball do Hit;
  }
  action Hit {
    Count = arg;
    if (arg < 10) {
      send(Peer, Ball, arg + 1);
    }
  }
}
)");
  Host H(Prog);
  int32_t A = H.createMachine("Player");
  int32_t B = H.createMachine("Player", {{"Peer", Value::machine(A)}});
  // Close the cycle: A's peer is B. Initializers cannot be circular, so
  // wire A by creating it second in a fresh host.
  (void)B;
  Host H2(Prog);
  int32_t X = H2.createMachine("Player");
  int32_t Y = H2.createMachine("Player", {{"Peer", Value::machine(X)}});
  // X has no peer; serve the rally at Y so the last hit (arg >= 10)
  // lands on a machine that stops rallying.
  ASSERT_TRUE(H2.addEvent(Y, "Ball", Value::integer(9)));
  // Y.Count = 9, rallies 10 to X; X.Count = 10, stops.
  EXPECT_EQ(H2.readVar(Y, "Count"), Value::integer(9));
  EXPECT_EQ(H2.readVar(X, "Count"), Value::integer(10));
  EXPECT_EQ(H2.stats().EventsDelivered, 1u);
  EXPECT_FALSE(H2.hasError());
}

// The serial pump's slice count and final configuration on scripted
// runs: the elevator through its door cycle three times, and pubSub(4)
// through 100 publishes with a subscriber crashed for ten of them and
// then restarted. A change to which machine the pump runs next moves
// these numbers.
TEST(Host, ScriptedPumpIsPinned) {
  CompiledProgram Elevator = compileErased(corpus::elevator());
  Host E(Elevator);
  const int32_t Id = E.createMachine("Elevator");
  ASSERT_GE(Id, 0);
  for (int Round = 0; Round != 3; ++Round)
    for (const char *Event : {"OpenDoor", "DoorOpened", "TimerFired",
                              "CloseDoor", "OperationSuccess", "DoorClosed"})
      ASSERT_TRUE(E.addEvent(Id, Event)) << Event << ": " << E.errorMessage();
  EXPECT_EQ(E.currentStateName(Id), "DoorClosed");
  EXPECT_EQ(E.stats().SlicesRun, 19u);
  EXPECT_EQ(hashConfig(E.config()), 0xdfdfcaa37681caf0ull);

  CompiledProgram PubSub = compileErased(corpus::pubSub(4));
  Host P(PubSub);
  const int32_t Broker = P.createMachine("Broker");
  ASSERT_GE(Broker, 0);
  ASSERT_TRUE(P.runToCompletion());
  for (int I = 0; I != 100; ++I) {
    if (I == 50) {
      ASSERT_TRUE(P.crashMachine(1));
    }
    if (I == 60) {
      ASSERT_TRUE(P.restartMachine(1));
    }
    ASSERT_TRUE(P.addEvent(Broker, "Publish", Value::integer(I)));
  }
  ASSERT_TRUE(P.runToCompletion());
  EXPECT_EQ(P.stats().SlicesRun, 900u);
  EXPECT_EQ(hashConfig(P.config()), 0xb762dbd8d830210dull);
}

} // namespace
