//===- tests/perf_visited_test.cpp - Visited-set mode differentials ---------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The perf-labeled suite (ctest -L perf): differential checks across the
// three VisitedModes and the COW/incremental-hash invariants behind
// them. These runs are deliberately heavy — German d=3 is the Figure 7
// row the CI perf smoke job pins — so they live in their own binary.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/StateHash.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

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

int32_t eventId(const CompiledProgram &Prog, const std::string &Name) {
  for (size_t I = 0; I != Prog.Events.size(); ++I)
    if (Prog.Events[I].Name == Name)
      return static_cast<int32_t>(I);
  ADD_FAILURE() << "no event named " << Name;
  return -1;
}

// German(2) at d=3 is error-free and exhausts, so DistinctStates is the
// deterministic quantity the modes must agree on: Exact is the oracle,
// Fingerprint must match it exactly (collisions aside — a mismatch here
// is a hashing bug, not bad luck, since the count is pinned by CI too),
// and Compact must match whenever its bounded table never saturated.
TEST(VisitedModes, GermanD3AgreesAcrossModesAndWorkers) {
  CompiledProgram Prog = compile(corpus::german(2));
  uint64_t ExactStates = 0, ExactTerminals = 0;
  for (VisitedMode Mode : {VisitedMode::Exact, VisitedMode::Fingerprint,
                           VisitedMode::Compact}) {
    for (int Workers : {1, 4}) {
      CheckOptions Opts;
      Opts.DelayBound = 3;
      Opts.Workers = Workers;
      Opts.Visited = Mode;
      CheckResult R = check(Prog, Opts);
      SCOPED_TRACE(std::string("mode=") + visitedModeName(Mode) +
                   " workers=" + std::to_string(Workers));
      EXPECT_FALSE(R.ErrorFound) << R.ErrorMessage;
      EXPECT_TRUE(R.Stats.Exhausted);
      if (Mode == VisitedMode::Exact && Workers == 1) {
        ExactStates = R.Stats.DistinctStates;
        ExactTerminals = R.Stats.Terminals;
        EXPECT_GT(ExactStates, 0u);
        continue;
      }
      EXPECT_EQ(R.Stats.Terminals, ExactTerminals);
      if (Mode == VisitedMode::Compact) {
        EXPECT_LE(R.Stats.DistinctStates, ExactStates);
        if (!R.Stats.OmissionPossible) {
          EXPECT_EQ(R.Stats.DistinctStates, ExactStates);
        }
      } else {
        EXPECT_FALSE(R.Stats.OmissionPossible);
        EXPECT_EQ(R.Stats.DistinctStates, ExactStates);
      }
    }
  }
}

// The fault-budget differential: the DroppableInvAck bug needs one
// duplicated InvAck to fire, so every mode must deliver the same error
// verdict (and, with StopOnFirstError off and the search exhausted, the
// same deterministic DistinctStates for Exact vs Fingerprint). Compact
// must detect the error no worse than Exact: errors are reported from
// real paths, so a bounded table can only omit *states*, never invent
// or lose a reported counterexample on a path it explores first.
TEST(VisitedModes, DroppableInvAckBudget1AgreesAcrossModes) {
  CompiledProgram Prog =
      compile(corpus::german(2, corpus::GermanBug::DroppableInvAck));
  uint64_t ExactStates = 0;
  for (VisitedMode Mode : {VisitedMode::Exact, VisitedMode::Fingerprint,
                           VisitedMode::Compact}) {
    for (int Workers : {1, 4}) {
      CheckOptions Opts;
      Opts.DelayBound = 0;
      Opts.Workers = Workers;
      Opts.Visited = Mode;
      Opts.StopOnFirstError = false; // Exhaust: DistinctStates comparable.
      Opts.Faults.Budget = 1;
      Opts.Faults.Drop = false;
      Opts.Faults.Duplicate = true;
      Opts.Faults.Events.push_back(eventId(Prog, "InvAck"));
      CheckResult R = check(Prog, Opts);
      SCOPED_TRACE(std::string("mode=") + visitedModeName(Mode) +
                   " workers=" + std::to_string(Workers));
      EXPECT_TRUE(R.ErrorFound);
      EXPECT_EQ(R.Error, ErrorKind::AssertFailed);
      EXPECT_TRUE(R.Stats.Exhausted);
      if (Mode == VisitedMode::Exact && Workers == 1) {
        ExactStates = R.Stats.DistinctStates;
        continue;
      }
      if (Mode == VisitedMode::Compact) {
        if (!R.Stats.OmissionPossible) {
          EXPECT_EQ(R.Stats.DistinctStates, ExactStates);
        }
      } else {
        EXPECT_EQ(R.Stats.DistinctStates, ExactStates);
      }
    }
  }
}

// The VerifyHashes debug path re-walks every machine on every node
// (hashConfigFresh, which ignores the caches) and compares the result
// against the incremental (cached) hash; any divergence means a
// mutation path skipped CowMachine::mut(). Running it over a real search exercises
// every Executor mutation site.
TEST(IncrementalHash, VerifyHashesFindsNoMismatchDuringSearch) {
  CompiledProgram Prog = compile(corpus::german(2));
  CheckOptions Opts;
  Opts.DelayBound = 2;
  Opts.VerifyHashes = true;
  CheckResult R = check(Prog, Opts);
  EXPECT_FALSE(R.ErrorFound) << R.ErrorMessage;
  EXPECT_EQ(R.Stats.HashMismatches, 0u);

  Opts.Workers = 4;
  R = check(Prog, Opts);
  EXPECT_EQ(R.Stats.HashMismatches, 0u);
}

// Direct unit check: mutate each semantically relevant component of a
// Config through the COW accessors and confirm the incremental hash
// tracks the cache-oblivious re-walk after every mutation. Both are
// streamed fingerprints; the canonical bytes are the oracle for the
// walk itself (support_test's StateHash.HashAgreesWithBytes).
TEST(IncrementalHash, TracksOracleAcrossComponentMutations) {
  CompiledProgram Prog = compile(R"(
event Ping(int);
main machine M {
  var X: int;
  state S {
    entry { X = 1; }
    on Ping do Take;
  }
  action Take { X = arg; }
}
machine Other {
  var Y: int;
  state T { entry { Y = 7; } }
}
)");
  Executor Exec(Prog);
  Config Cfg = Exec.makeInitialConfig();
  auto expectInSync = [&](const char *What) {
    EXPECT_EQ(hashConfig(Cfg), hashConfigFresh(Cfg))
        << "stale fingerprint cache after: " << What;
  };
  expectInSync("initial config");

  Exec.step(Cfg, 0); // Runs the entry; Vars/Frames change.
  expectInSync("running a slice");
  uint64_t AfterStep = hashConfig(Cfg);

  Cfg.mutableMachine(0).Vars[0] = Value::integer(42);
  expectInSync("variable store write");
  EXPECT_NE(hashConfig(Cfg), AfterStep);

  Exec.enqueueEvent(Cfg, 0, eventId(Prog, "Ping"), Value::integer(3));
  expectInSync("queue append");

  Exec.createMachine(Cfg, 1); // Machine count + new snapshot.
  expectInSync("machine creation");

  Exec.crashMachine(Cfg, 0);
  expectInSync("machine crash");

  Cfg.Error = ErrorKind::AssertFailed; // Global (non-machine) component.
  Cfg.ErrorMessage = "seeded";
  expectInSync("global error transition");

  // A copy shares snapshots with the original; hashing the copy must
  // reuse the caches, and mutating the copy must not disturb the
  // original's hash.
  Config Copy = Cfg;
  EXPECT_EQ(hashConfig(Copy), hashConfig(Cfg));
  uint64_t Before = hashConfig(Cfg);
  Copy.mutableMachine(1).Vars[0] = Value::integer(9);
  expectInSync("mutating a copy (original)");
  EXPECT_EQ(hashConfig(Cfg), Before);
  EXPECT_EQ(hashConfig(Copy), hashConfigFresh(Copy));
  EXPECT_NE(hashConfig(Copy), Before);
}

// Structural-sharing invariants of the COW layer itself: copying a
// Config is O(#machines) pointer bumps (every snapshot shared), and a
// write through mutableMachine unshares exactly the touched machine.
TEST(CowConfig, CopySharesAndMutUnsharesOneMachine) {
  CompiledProgram Prog = compile(R"(
main machine M {
  var X: id;
  state S { entry { X = new W(); X = new W(); } }
}
machine W {
  var Y: int;
  state T { entry { } }
}
)");
  Executor Exec(Prog);
  Config Cfg = Exec.makeInitialConfig();
  Exec.step(Cfg, 0); // Each `new` is a scheduling point: one child...
  Exec.step(Cfg, 0); // ...per slice.
  ASSERT_EQ(Cfg.Machines.size(), 3u);

  Config Copy = Cfg;
  for (size_t I = 0; I != Cfg.Machines.size(); ++I)
    EXPECT_TRUE(Copy.Machines[I].sharesSnapshotWith(Cfg.Machines[I]));

  Copy.mutableMachine(1).Vars[0] = Value::integer(5);
  EXPECT_TRUE(Copy.Machines[0].sharesSnapshotWith(Cfg.Machines[0]));
  EXPECT_FALSE(Copy.Machines[1].sharesSnapshotWith(Cfg.Machines[1]));
  EXPECT_TRUE(Copy.Machines[2].sharesSnapshotWith(Cfg.Machines[2]));
  // Value semantics are preserved: the original never saw the write.
  EXPECT_NE(Cfg.Machines[1]->Vars[0], Value::integer(5));

  // The deep footprint of a snapshot is positive and stable across
  // sharing — both handles report the same bytes for a shared snapshot.
  EXPECT_GT(Cfg.Machines[0].snapshotBytes(), 0u);
  EXPECT_EQ(Cfg.Machines[0].snapshotBytes(), Copy.Machines[0].snapshotBytes());
}

// VisitedBytes is a running insertion counter, so every progress
// snapshot (and the final stats) must be monotone non-decreasing — a
// decrease would mean the accounting forgot entries it still stores.
TEST(VisitedBytes, MonotoneNonDecreasingDuringSearch) {
  CompiledProgram Prog = compile(corpus::german(2));
  for (VisitedMode Mode : {VisitedMode::Exact, VisitedMode::Fingerprint,
                           VisitedMode::Compact}) {
    SCOPED_TRACE(visitedModeName(Mode));
    std::vector<uint64_t> Samples;
    CheckOptions Opts;
    Opts.DelayBound = 2;
    Opts.Visited = Mode;
    Opts.ProgressIntervalSeconds = 0.001;
    Opts.Progress = [&Samples](const CheckStats &S) {
      Samples.push_back(S.VisitedBytes);
    };
    CheckResult R = check(Prog, Opts);
    EXPECT_FALSE(R.ErrorFound) << R.ErrorMessage;
    Samples.push_back(R.Stats.VisitedBytes);
    ASSERT_GT(Samples.size(), 1u);
    EXPECT_GT(R.Stats.VisitedBytes, 0u);
    for (size_t I = 1; I != Samples.size(); ++I)
      EXPECT_GE(Samples[I], Samples[I - 1]) << "sample " << I;
  }
}

} // namespace
