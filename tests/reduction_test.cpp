//===- tests/reduction_test.cpp - Symmetry reduction ----------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The reduction suite (ctest -L perf, with the visited-mode
// differentials): CheckOptions::Reduce must never change a verdict,
// must keep counterexamples replayable, may only shrink the distinct-
// state count, and — at Reduction::Off — must stay bit-identical to
// the baseline checker across worker counts, visited modes, and fault
// budgets. The WorkerPool corpus program (roster-free `symmetric`
// workers) is where canonicalization provably collapses orbits; German
// pins every client id in Home's unrolled roster, so its state count
// is the regression anchor for "symmetry must not change semantics"
// (see DESIGN.md "Reduction" for why it cannot shrink there).
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "checker/StateHash.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

std::vector<uint64_t> sortedTerminals(const CheckResult &R) {
  std::vector<uint64_t> T = R.TerminalHashes;
  std::sort(T.begin(), T.end());
  return T;
}

} // namespace

// Every reduction mode must reach the same verdict as Off on an
// error-free program, explore no more distinct states than the exact
// oracle, and exhaust. Swept across visited modes, worker counts, and
// fault budgets so the reductions compose with every checker layer.
TEST(Reduction, VerdictAndStateCountAgreeOnWorkerPool) {
  CompiledProgram Prog = compile(corpus::workerPool(3));
  uint64_t OffStates = 0;
  for (VisitedMode Mode : {VisitedMode::Exact, VisitedMode::Fingerprint,
                           VisitedMode::Compact}) {
    for (int Workers : {1, 4}) {
      for (int Budget : {0, 1}) {
        uint64_t PerConfigOffStates = 0;
        bool OffVerdict = false;
        for (Reduction Red : {Reduction::Off, Reduction::Symmetry}) {
          SCOPED_TRACE(std::string("mode=") + visitedModeName(Mode) +
                       " workers=" + std::to_string(Workers) +
                       " budget=" + std::to_string(Budget) +
                       " reduction=" + reductionName(Red));
          CheckOptions Opts;
          Opts.DelayBound = 2;
          Opts.Workers = Workers;
          Opts.Visited = Mode;
          Opts.Faults.Budget = Budget;
          Opts.StopOnFirstError = false;
          Opts.Reduce = Red;
          CheckResult R = check(Prog, Opts);
          // Budget 0 is clean; budget 1 trips the Boss's counting
          // assertion through a duplicated Done (a genuine finding, not
          // a checker artifact). Either way every reduction must agree
          // with Off's verdict on the same configuration.
          EXPECT_TRUE(R.Stats.Exhausted);
          if (Budget == 0) {
            EXPECT_FALSE(R.ErrorFound) << R.ErrorMessage;
          }
          if (Red == Reduction::Off) {
            PerConfigOffStates = R.Stats.DistinctStates;
            OffVerdict = R.ErrorFound;
            if (Mode == VisitedMode::Exact && Workers == 1 && Budget == 0)
              OffStates = R.Stats.DistinctStates;
          } else {
            EXPECT_EQ(R.ErrorFound, OffVerdict) << R.ErrorMessage;
            EXPECT_LE(R.Stats.DistinctStates, PerConfigOffStates);
          }
          if (Red == Reduction::Symmetry) {
            EXPECT_GT(R.Stats.SymmetryCollapsed, 0u);
          }
        }
      }
    }
  }
  EXPECT_GT(OffStates, 0u);
}

// The canonicalization must genuinely merge orbits on the roster-free
// pool: three interchangeable workers collapse the exact count 495 ->
// 210 at d=2 (measured; both counts exhaust, so they are deterministic)
// and the three symmetric terminal configurations fold into one.
TEST(Reduction, SymmetryCollapsesWorkerPoolOrbits) {
  CompiledProgram Prog = compile(corpus::workerPool(3));
  for (VisitedMode Mode : {VisitedMode::Exact, VisitedMode::Fingerprint}) {
    SCOPED_TRACE(std::string("mode=") + visitedModeName(Mode));
    CheckOptions Opts;
    Opts.DelayBound = 2;
    Opts.StopOnFirstError = false;
    Opts.Visited = Mode;

    Opts.Reduce = Reduction::Off;
    CheckResult Off = check(Prog, Opts);
    EXPECT_EQ(Off.Stats.DistinctStates, 495u);
    EXPECT_EQ(Off.Stats.Terminals, 3u);

    Opts.Reduce = Reduction::Symmetry;
    CheckResult Sym = check(Prog, Opts);
    EXPECT_EQ(Sym.Stats.DistinctStates, 210u);
    EXPECT_EQ(Sym.Stats.Terminals, 1u);
    EXPECT_GT(Sym.Stats.SymmetryCollapsed, 0u);
    EXPECT_FALSE(Sym.ErrorFound);
    EXPECT_TRUE(Sym.Stats.Exhausted);
  }
}

// Reductions must preserve error reachability, and the counterexample
// schedule each mode reports must replay to the same assertion — the
// symmetry canonicalization only renames visited-set keys, never the
// nodes themselves, so traces name concrete machines.
TEST(Reduction, BugFoundAndReplayableUnderEveryReduction) {
  CompiledProgram Prog = compile(
      corpus::workerPool(3, corpus::WorkerPoolBug::UndercountedPool));
  for (Reduction Red : {Reduction::Off, Reduction::Symmetry}) {
    SCOPED_TRACE(std::string("reduction=") + reductionName(Red));
    CheckOptions Opts;
    Opts.DelayBound = 1;
    Opts.Reduce = Red;
    CheckResult R = check(Prog, Opts);
    ASSERT_TRUE(R.ErrorFound);
    EXPECT_EQ(R.Error, ErrorKind::AssertFailed);
    ASSERT_FALSE(R.Schedule.empty());
    ReplayResult Replay = replaySchedule(Prog, R.Schedule);
    EXPECT_TRUE(Replay.ErrorReached);
    EXPECT_EQ(Replay.Error, ErrorKind::AssertFailed);
  }
}

// German is the anti-benchmark for symmetry: Home's position-unrolled
// roster (Client1..N assigned at init) pins each client id at the value
// level, so no non-identity permutation maps a reachable config onto a
// reachable config — the distinct-state count must not move at all.
// This doubles as the determinism-contract check for Reduction::Off:
// states, nodes, and the terminal-hash set must equal the PR-4 baseline
// (German(2) d=2 Fingerprint: pinned below) across worker counts.
TEST(Reduction, GermanPinnedRosterDefeatsSymmetryAndOffIsBitIdentical) {
  CompiledProgram Prog = compile(corpus::german(2));
  // Off baseline, 1 worker: the anchor every variant must reproduce.
  CheckOptions Base;
  Base.DelayBound = 2;
  Base.StopOnFirstError = false;
  Base.CollectTerminals = true;
  Base.Reduce = Reduction::Off;
  CheckResult Off1 = check(Prog, Base);
  EXPECT_TRUE(Off1.Stats.Exhausted);
  EXPECT_GT(Off1.Stats.DistinctStates, 0u);

  for (int Workers : {1, 4}) {
    for (VisitedMode Mode : {VisitedMode::Exact, VisitedMode::Fingerprint}) {
      SCOPED_TRACE(std::string("mode=") + visitedModeName(Mode) +
                   " workers=" + std::to_string(Workers));
      CheckOptions Opts = Base;
      Opts.Workers = Workers;
      Opts.Visited = Mode;
      CheckResult R = check(Prog, Opts);
      EXPECT_EQ(R.Stats.DistinctStates, Off1.Stats.DistinctStates);
      // NodesExplored is worker-count-dependent (parallel workers race
      // on visited insertion), so it is only pinned single-threaded.
      if (Workers == 1) {
        EXPECT_EQ(R.Stats.NodesExplored, Off1.Stats.NodesExplored);
      }
      EXPECT_EQ(R.Stats.Terminals, Off1.Stats.Terminals);
      EXPECT_EQ(sortedTerminals(R), sortedTerminals(Off1));
      EXPECT_EQ(R.Stats.SymmetryCollapsed, 0u);
    }
  }

  CheckOptions Sym = Base;
  Sym.Reduce = Reduction::Symmetry;
  CheckResult R = check(Prog, Sym);
  EXPECT_FALSE(R.ErrorFound);
  EXPECT_TRUE(R.Stats.Exhausted);
  EXPECT_EQ(R.Stats.DistinctStates, Off1.Stats.DistinctStates);
}

// A fault verdict survives every reduction: German's budget-1
// duplicated InvAck must reach the seeded assertion, and the reported
// schedule must replay to it.
TEST(Reduction, GermanFaultVerdictReplaysUnderEveryReduction) {
  CompiledProgram Buggy =
      compile(corpus::german(2, corpus::GermanBug::DroppableInvAck));
  int32_t InvAck = -1;
  for (size_t I = 0; I != Buggy.Events.size(); ++I)
    if (Buggy.Events[I].Name == "InvAck")
      InvAck = static_cast<int32_t>(I);
  ASSERT_GE(InvAck, 0);
  for (Reduction Red : {Reduction::Off, Reduction::Symmetry}) {
    SCOPED_TRACE(std::string("reduction=") + reductionName(Red));
    CheckOptions Opts;
    Opts.DelayBound = 0;
    Opts.StopOnFirstError = false;
    Opts.Faults.Budget = 1;
    Opts.Faults.Drop = false;
    Opts.Faults.Duplicate = true;
    Opts.Faults.Events.push_back(InvAck);
    Opts.Reduce = Red;
    CheckResult R = check(Buggy, Opts);
    ASSERT_TRUE(R.ErrorFound);
    EXPECT_EQ(R.Error, ErrorKind::AssertFailed);
    ReplayResult Replay = replaySchedule(Buggy, R.Schedule);
    EXPECT_TRUE(Replay.ErrorReached);
  }
}

// The identity permutation must be a no-op for both canonical encodings:
// serializeConfigPermuted(id) == serializeConfig and
// hashConfigPermuted(id, support=0) == hashConfig — the symmetry layer's
// correctness rests on the identity candidate anchoring the orbit.
TEST(Reduction, IdentityPermutationMatchesUnpermutedEncodings) {
  CompiledProgram Prog = compile(corpus::workerPool(3));
  Executor Exec(Prog);
  Config Cfg = Exec.makeInitialConfig();
  // Run a few slices so machine-typed values (BossV, Pending) exist.
  for (int I = 0; I < 4; ++I)
    for (int32_t Id = 0;
         Id != static_cast<int32_t>(Cfg.Machines.size()); ++Id)
      if (Exec.isEnabled(Cfg, Id))
        Exec.step(Cfg, Id);

  std::vector<int32_t> Identity(Cfg.Machines.size());
  for (size_t I = 0; I != Identity.size(); ++I)
    Identity[I] = static_cast<int32_t>(I);

  std::string Plain, Permuted;
  serializeConfig(Cfg, Plain);
  serializeConfigPermuted(Cfg, Identity, Identity, Permuted);
  EXPECT_EQ(Plain, Permuted);

  EXPECT_EQ(hashConfigPermuted(Cfg, Identity, Identity, 0), hashConfig(Cfg));
}

// PeakRssBytes and VisitedBytes are per-run quantities: a second check()
// in the same process with a smaller Compact cap must report smaller
// numbers, not the process lifetime high-water mark (the regression this
// pins: VmHWM only ever grows unless the run resets it).
TEST(Reduction, PeakRssAndVisitedBytesArePerRun) {
  CompiledProgram Prog = compile(corpus::german(2));
  auto run = [&](uint64_t CapBytes) {
    CheckOptions Opts;
    Opts.DelayBound = 3;
    Opts.StopOnFirstError = false;
    Opts.Visited = VisitedMode::Compact;
    Opts.VisitedCapBytes = CapBytes;
    return check(Prog, Opts);
  };
  CheckResult Big = run(96ull * 1024 * 1024);
  CheckResult Small = run(4ull * 1024 * 1024);
  EXPECT_LT(Small.Stats.VisitedBytes, Big.Stats.VisitedBytes);
#ifdef __linux__
  // /proc/self/clear_refs resets VmHWM at run start; the small-cap run
  // must therefore not inherit the big run's peak. Guarded: containers
  // can mount /proc read-only, in which case the counter is best-effort
  // (monotone) and the assertion would be vacuous anyway.
  if (Big.Stats.PeakRssBytes > 0 && Small.Stats.PeakRssBytes > 0 &&
      Small.Stats.PeakRssBytes != Big.Stats.PeakRssBytes) {
    EXPECT_LT(Small.Stats.PeakRssBytes, Big.Stats.PeakRssBytes);
  }
#endif
}
