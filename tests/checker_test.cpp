//===- tests/checker_test.cpp - Model checker unit tests --------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/SchedStack.h"
#include "checker/StateHash.h"
#include "frontend/Frontend.h"
#include "host/Host.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

using namespace p;

namespace {

CompiledProgram compile(const std::string &Src) {
  CompileResult R = compileString(Src);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  if (!R.ok())
    std::abort();
  return std::move(*R.Program);
}

// A bug visible only under a delayed schedule: at d = 0 the causal order
// delivers Second (via the Relay detour) before First reaches the
// Receiver, so the Receiver's initial state never sees First. Delaying
// the relay reverses the arrival order.
const char *ReorderBug = R"(
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
    // First is unhandled here: an error iff First arrives before Second.
  }
  state T {
    entry { }
    on First goto T;
    on Second goto T;
  }
}
)";

TEST(Checker, DelayZeroMissesReorderBug) {
  CompiledProgram Prog = compile(ReorderBug);
  CheckOptions Opts;
  Opts.DelayBound = 0;
  CheckResult R = check(Prog, Opts);
  EXPECT_FALSE(R.ErrorFound) << R.ErrorMessage;
  EXPECT_TRUE(R.Stats.Exhausted);
}

TEST(Checker, DelayOneFindsReorderBug) {
  CompiledProgram Prog = compile(ReorderBug);
  CheckOptions Opts;
  Opts.DelayBound = 1;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.ErrorFound);
  EXPECT_EQ(R.Error, ErrorKind::UnhandledEvent);
  EXPECT_EQ(R.DelaysUsedOnError, 1);
  EXPECT_FALSE(R.Trace.empty());
}

TEST(Checker, DepthBoundedAlsoFindsReorderBug) {
  CompiledProgram Prog = compile(ReorderBug);
  CheckOptions Opts;
  Opts.Strategy = SearchStrategy::DepthBounded;
  Opts.DepthBound = 50;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.ErrorFound);
  EXPECT_EQ(R.Error, ErrorKind::UnhandledEvent);
}

TEST(Checker, NondetChoicesAreEnumerated) {
  // Only one of the four choice combinations trips the assert.
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
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.ErrorFound);
  EXPECT_EQ(R.Error, ErrorKind::AssertFailed);
}

TEST(Checker, ExactStatesAgreesWithHashing) {
  CompiledProgram Prog = compile(ReorderBug);
  for (int D = 0; D <= 2; ++D) {
    CheckOptions Hashed;
    Hashed.DelayBound = D;
    Hashed.StopOnFirstError = false;
    CheckOptions Exact = Hashed;
    Exact.Visited = VisitedMode::Exact;
    CheckResult R1 = check(Prog, Hashed);
    CheckResult R2 = check(Prog, Exact);
    EXPECT_EQ(R1.Stats.DistinctStates, R2.Stats.DistinctStates)
        << "64-bit fingerprints collided at d=" << D;
    EXPECT_EQ(R1.Stats.NodesExplored, R2.Stats.NodesExplored);
  }
}

TEST(Checker, NodeCapMarksSearchIncomplete) {
  CompiledProgram Prog = compile(ReorderBug);
  CheckOptions Opts;
  Opts.DelayBound = 2;
  Opts.MaxNodes = 3;
  Opts.StopOnFirstError = false;
  CheckResult R = check(Prog, Opts);
  EXPECT_FALSE(R.Stats.Exhausted);
  EXPECT_LE(R.Stats.NodesExplored, 3u);
}

// An external executor lends the check its registrations and
// observers, not its limits: every executor the search derives from it
// (the workers', and the one that renders the trace) runs under the
// check's MaxStepsPerSlice and UseModelBodies. A 100-iteration loop
// ends well inside the executor's own 1,000,000-step limit but diverges
// under a 50-step one.
TEST(Checker, ExternalExecutorRunsUnderTheCheckOptions) {
  CompiledProgram Prog = compile(R"(
main machine M {
  var X: int;
  state S { entry { X = 0; while (X < 100) { X = X + 1; } } }
}
)");
  CheckOptions Opts;
  Opts.MaxStepsPerSlice = 50;
  const CheckResult Own = check(Prog, Opts);
  ASSERT_TRUE(Own.ErrorFound);
  EXPECT_EQ(Own.Error, ErrorKind::Divergence);
  Executor Exec(Prog);
  const CheckResult Ext = check(Prog, Opts, &Exec);
  EXPECT_TRUE(Ext.ErrorFound);
  EXPECT_EQ(Ext.Error, Own.Error);
  EXPECT_EQ(Ext.ErrorMessage, Own.ErrorMessage);
  EXPECT_EQ(Ext.Trace, Own.Trace);

  // A model body that fails: only the check's UseModelBodies runs it.
  CompiledProgram Model = compile(R"(
main machine M {
  var X: int;
  foreign fun Probe(): int model { assert(false); }
  state S { entry { X = Probe(); } }
}
)");
  Executor Native(Model); // UseModelBodies off.
  const CheckResult Modeled = check(Model, CheckOptions(), &Native);
  EXPECT_TRUE(Modeled.ErrorFound);
  EXPECT_EQ(Modeled.Error, ErrorKind::AssertFailed);
}

TEST(Checker, CollectsTerminalStates) {
  CompiledProgram Prog = compile(R"(
main ghost machine G {
  var A: bool;
  state S { entry { A = *; } }
}
)");
  CheckOptions Opts;
  Opts.CollectTerminals = true;
  CheckResult R = check(Prog, Opts);
  std::set<uint64_t> Terminals(R.TerminalHashes.begin(),
                               R.TerminalHashes.end());
  // A = true and A = false quiesce in different configurations.
  EXPECT_EQ(Terminals.size(), 2u);
}

TEST(Checker, TraceDescribesTheCounterexample) {
  CompiledProgram Prog = compile(ReorderBug);
  CheckOptions Opts;
  Opts.DelayBound = 1;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.ErrorFound);
  std::string Whole;
  for (const auto &Line : R.Trace)
    Whole += Line + "\n";
  EXPECT_NE(Whole.find("delay"), std::string::npos) << Whole;
  EXPECT_NE(Whole.find("error"), std::string::npos) << Whole;
  EXPECT_NE(Whole.find("Receiver"), std::string::npos) << Whole;
}

//===----------------------------------------------------------------------===//
// The paper's d = 0 theorem: the runtime's execution is the d = 0
// schedule. Every Host execution (over many RNG seeds for the ghost
// choices) must land in a terminal configuration the d = 0 search saw.
//===----------------------------------------------------------------------===//

class DelayZeroEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DelayZeroEquivalence, HostTerminalIsInDelayZeroSet) {
  const char *Src = R"(
event Work(int), Done(int);
main ghost machine Driver {
  var W: id;
  var N: int;
  var Total: int;
  state S {
    entry {
      Total = 0;
      W = new Worker(Boss = this);
      N = 0;
      if (*) { N = 1; }
      if (*) { N = N + 2; }
      send(W, Work, N);
      raise(Work, 0);
    }
    on Work goto Waiting;
  }
  state Waiting {
    entry { }
    on Done goto Finish;
  }
  state Finish {
    entry { Total = arg; }
  }
}
machine Worker {
  var Boss: id;
  state S {
    entry { }
    on Work do Reply;
  }
  action Reply { send(Boss, Done, arg * 10); }
}
)";
  CompiledProgram Prog = compile(Src);

  CheckOptions Opts;
  Opts.DelayBound = 0;
  Opts.CollectTerminals = true;
  CheckResult R = check(Prog, Opts);
  ASSERT_FALSE(R.ErrorFound) << R.ErrorMessage;
  std::set<uint64_t> DelayZeroTerminals(R.TerminalHashes.begin(),
                                        R.TerminalHashes.end());
  ASSERT_FALSE(DelayZeroTerminals.empty());

  Host H(Prog, /*Seed=*/GetParam());
  int32_t Id = H.createMachine("Driver");
  ASSERT_GE(Id, 0);
  ASSERT_TRUE(H.runToCompletion()) << H.errorMessage();
  uint64_t Terminal = hashConfig(H.config());
  EXPECT_TRUE(DelayZeroTerminals.count(Terminal))
      << "host execution (seed " << GetParam()
      << ") diverged from the d=0 schedule set";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelayZeroEquivalence,
                         ::testing::Range(0, 25));

// The scheduler stack against a std::deque model (front = top), across
// the inline/heap boundary: every corpus program stays inline, so this
// is what exercises the heap fallback.
TEST(SchedStack, MatchesDequeAcrossTheInlineBoundary) {
  SchedStack S;
  std::deque<int32_t> Model;
  auto expectSame = [&](const char *After) {
    ASSERT_EQ(S.size(), Model.size()) << After;
    EXPECT_TRUE(std::equal(S.begin(), S.end(), Model.begin(), Model.end()))
        << After;
    if (!Model.empty()) {
      EXPECT_EQ(S.top(), Model.front()) << After;
    }
  };
  for (int32_t Id = 0; Id != 2 * static_cast<int32_t>(SchedStack::InlineCap);
       ++Id) {
    S.push(Id);
    Model.push_front(Id);
    expectSame("push");
  }
  SchedStack Copy = S;
  S.rotate();
  Model.push_back(Model.front());
  Model.pop_front();
  expectSame("rotate");
  S.remove(3);
  std::erase(Model, 3);
  expectSame("remove");
  while (!Model.empty()) {
    S.pop();
    Model.pop_front();
    expectSame("pop");
  }
  S.push(7); // Back inline after draining the heap.
  Model.push_front(7);
  expectSame("push after drain");
  EXPECT_TRUE(S.contains(7));
  EXPECT_FALSE(S.contains(3));

  SchedStack Moved = std::move(Copy);
  EXPECT_EQ(Moved.size(), 2 * SchedStack::InlineCap);
  EXPECT_EQ(Moved.top(), 2 * static_cast<int32_t>(SchedStack::InlineCap) - 1);
  EXPECT_TRUE(Copy.empty()); // A moved-from stack stays valid.
}

} // namespace
