//===- tests/checkpoint_test.cpp - Crash-safe exploration tests -------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Checkpoint/resume differentials: a search killed mid-flight (MaxNodes
// cut or cooperative interrupt) and resumed from its final checkpoint
// must report results bit-identical to an uninterrupted run — across
// every VisitedMode, with and without reductions, serial and parallel,
// and even when the worker count changes across the restart. Plus
// corruption-injection units (bit flip, truncation, version skew,
// option mismatch): a damaged checkpoint is rejected with a clear
// error, never silently reused — and never silently restarted-over.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Checkpoint.h"
#include "checker/VisitedTable.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
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

/// A per-test scratch path, removed on destruction (plus the spill
/// sibling the engine may create next to it).
struct TempCkpt {
  std::string Path;
  explicit TempCkpt(const std::string &Tag) {
    const ::testing::TestInfo *TI =
        ::testing::UnitTest::GetInstance()->current_test_info();
    Path = ::testing::TempDir() + "p_ckpt_" + TI->test_suite_name() + "_" +
           TI->name() + "_" + Tag + ".ckpt";
    std::remove(Path.c_str());
  }
  ~TempCkpt() {
    std::remove(Path.c_str());
    std::remove((Path + ".spill").c_str());
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

CheckOptions baseOpts(int Workers, VisitedMode Mode, Reduction Reduce,
                      int DelayBound = 2) {
  CheckOptions Opts;
  Opts.DelayBound = DelayBound;
  Opts.Workers = Workers;
  Opts.StopOnFirstError = false;
  Opts.CollectTerminals = true;
  Opts.Visited = Mode;
  // Keep Compact-mode checkpoints small: the image embeds the whole
  // slot array, so the default 64 MiB cap would dominate the test.
  if (Mode == VisitedMode::Compact)
    Opts.VisitedCapBytes = 1u << 20;
  Opts.Reduce = Reduce;
  return Opts;
}

/// The determinism contract's bit-identical slice, which resume must
/// preserve: DistinctStates, Terminals, TerminalHashes-as-a-set.
void expectIdentical(const CheckResult &Full, const CheckResult &Resumed,
                     const std::string &What) {
  ASSERT_TRUE(Resumed.ResumeError.empty()) << What << ": "
                                           << Resumed.ResumeError;
  ASSERT_TRUE(Full.Stats.Exhausted) << What;
  ASSERT_TRUE(Resumed.Stats.Exhausted) << What;
  EXPECT_EQ(Full.Stats.DistinctStates, Resumed.Stats.DistinctStates) << What;
  EXPECT_EQ(Full.Stats.Terminals, Resumed.Stats.Terminals) << What;
  std::set<uint64_t> A(Full.TerminalHashes.begin(),
                       Full.TerminalHashes.end());
  std::set<uint64_t> B(Resumed.TerminalHashes.begin(),
                       Resumed.TerminalHashes.end());
  EXPECT_EQ(A, B) << What;
}

/// Runs the full differential for one configuration: uninterrupted
/// baseline, then a MaxNodes-cut run writing a final checkpoint, then a
/// resume with the cap lifted (the fingerprint deliberately excludes
/// MaxNodes and Workers so exactly this works). \p CutStats, when
/// given, receives the cut run's stats.
void killAndResume(const CompiledProgram &Prog, VisitedMode Mode,
                   Reduction Reduce, int CutWorkers, int ResumeWorkers,
                   const std::string &What, int DelayBound = 2,
                   CheckStats *CutStats = nullptr) {
  CheckOptions Full = baseOpts(ResumeWorkers, Mode, Reduce, DelayBound);
  CheckResult Baseline = check(Prog, Full);
  ASSERT_TRUE(Baseline.Stats.Exhausted) << What;
  ASSERT_GT(Baseline.Stats.NodesExplored, 30u) << What;

  TempCkpt C("kr");
  CheckOptions Cut = baseOpts(CutWorkers, Mode, Reduce, DelayBound);
  Cut.MaxNodes = Baseline.Stats.NodesExplored / 3;
  Cut.CheckpointPath = C.Path;
  CheckResult Partial = check(Prog, Cut);
  ASSERT_TRUE(Partial.ResumeError.empty()) << Partial.ResumeError;
  EXPECT_FALSE(Partial.Stats.Exhausted) << What;
  EXPECT_GE(Partial.Stats.CheckpointsWritten, 1u) << What;
  if (CutStats)
    *CutStats = Partial.Stats;

  CheckOptions Res = baseOpts(ResumeWorkers, Mode, Reduce, DelayBound);
  Res.CheckpointPath = C.Path;
  Res.Resume = true;
  CheckResult Resumed = check(Prog, Res);
  EXPECT_TRUE(Resumed.Stats.Resumed) << What;
  expectIdentical(Baseline, Resumed, What);
}

TEST(Checkpoint, KillAndResumeAcrossVisitedModes) {
  CompiledProgram Prog = compile(corpus::german(1));
  for (VisitedMode Mode : {VisitedMode::Exact, VisitedMode::Fingerprint,
                           VisitedMode::Compact})
    killAndResume(Prog, Mode, Reduction::Off, 1, 1,
                  std::string("german1 mode=") + visitedModeName(Mode));

  // German(1) fits in the growable tables' initial stripes. German(2)
  // at d=1 cuts the Fingerprint run after its stripes have grown, so
  // the resume must restore stripes of unequal, doubled capacities.
  CompiledProgram Big = compile(corpus::german(2));
  CheckStats Cut;
  killAndResume(Big, VisitedMode::Fingerprint, Reduction::Off, 1, 1,
                "german2 d=1 mode=fingerprint", 1, &Cut);
  VisitedTable Fresh;
  Fresh.init(0);
  // Two tables (visited, terminals) start this size.
  EXPECT_GT(Cut.VisitedBytes, 2 * Fresh.bytes())
      << "no stripe grew before the cut";
}

// Coverage only observes the search, so it is not part of the search
// fingerprint: a run checkpointed without coverage resumes with it
// turned on (a sweep first run without --report, then resumed with
// it), explores the same states, and counts coverage from the resume
// onward.
TEST(Checkpoint, ResumeMayTurnOnCoverage) {
  CompiledProgram Prog = compile(corpus::german(1));
  CheckOptions Full = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  const CheckResult Baseline = check(Prog, Full);

  TempCkpt C("cov");
  CheckOptions Cut = Full;
  Cut.MaxNodes = Baseline.Stats.NodesExplored / 3;
  Cut.CheckpointPath = C.Path;
  const CheckResult Partial = check(Prog, Cut);
  ASSERT_FALSE(Partial.Stats.Exhausted);

  CheckOptions Res = Full;
  Res.TrackCoverage = true;
  Res.CheckpointPath = C.Path;
  Res.Resume = true;
  const CheckResult Resumed = check(Prog, Res);
  EXPECT_TRUE(Resumed.Stats.Resumed);
  expectIdentical(Baseline, Resumed, "german1 resumed with coverage");
  size_t StatesCovered = 0;
  for (const auto &M : Resumed.Coverage.Machines)
    StatesCovered += M.StatesVisited.size();
  EXPECT_GT(StatesCovered, 0u) << "coverage counts from the resume onward";
}

TEST(Checkpoint, CutAndResumeKeepTheLexLeastCounterexample) {
  // Every frontier node carries the decision that made it uncommitted;
  // the checkpoint must keep it, so a resumed search reports exactly
  // the counterexample of the uninterrupted one, wherever the cut falls.
  CompiledProgram Prog =
      compile(corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation));
  const CheckOptions Base =
      baseOpts(1, VisitedMode::Fingerprint, Reduction::Off, 1);
  const CheckResult Full = check(Prog, Base);
  ASSERT_TRUE(Full.ErrorFound);
  ASSERT_TRUE(Full.Stats.Exhausted);
  auto Packed = [](const CheckResult &R) {
    std::vector<uint64_t> Words;
    for (const SchedDecision &D : R.Schedule)
      Words.push_back(packDecision(D));
    return Words;
  };
  for (uint64_t Eighths : {1, 4, 7}) {
    const std::string What = "cut at " + std::to_string(Eighths) + "/8";
    TempCkpt C("lex" + std::to_string(Eighths));
    CheckOptions Cut = Base;
    Cut.MaxNodes = Full.Stats.NodesExplored * Eighths / 8;
    Cut.CheckpointPath = C.Path;
    ASSERT_FALSE(check(Prog, Cut).Stats.Exhausted) << What;

    CheckOptions Res = Base;
    Res.CheckpointPath = C.Path;
    Res.Resume = true;
    const CheckResult Resumed = check(Prog, Res);
    ASSERT_TRUE(Resumed.ResumeError.empty()) << What;
    ASSERT_TRUE(Resumed.ErrorFound) << What;
    EXPECT_EQ(Packed(Resumed), Packed(Full)) << What;
    EXPECT_EQ(Resumed.Trace, Full.Trace) << What;
    EXPECT_EQ(Resumed.Stats.DistinctStates, Full.Stats.DistinctStates)
        << What;
  }
}

TEST(Checkpoint, SerialCutAndResumeExploreTheUninterruptedNodes) {
  // A serial resume replays the exact DFS stack, and the checkpoint
  // keeps the open choice windows (checker/ChoiceLedger.h): a true
  // branch pending at the cut is decided as the uninterrupted search
  // decided it, so not one node more is explored.
  CompiledProgram Prog = compile(corpus::german(2));
  const CheckOptions Base =
      baseOpts(1, VisitedMode::Fingerprint, Reduction::Off, 2);
  const CheckResult Full = check(Prog, Base);
  ASSERT_TRUE(Full.Stats.Exhausted);
  for (uint64_t Eighths : {1, 3, 5, 7}) {
    const std::string What = "cut at " + std::to_string(Eighths) + "/8";
    TempCkpt C("nodes" + std::to_string(Eighths));
    CheckOptions Cut = Base;
    Cut.MaxNodes = Full.Stats.NodesExplored * Eighths / 8;
    Cut.CheckpointPath = C.Path;
    ASSERT_FALSE(check(Prog, Cut).Stats.Exhausted) << What;

    CheckOptions Res = Base;
    Res.CheckpointPath = C.Path;
    Res.Resume = true;
    const CheckResult Resumed = check(Prog, Res);
    ASSERT_TRUE(Resumed.ResumeError.empty()) << What;
    EXPECT_EQ(Resumed.Stats.NodesExplored, Full.Stats.NodesExplored)
        << What;
    EXPECT_EQ(Resumed.Stats.DistinctStates, Full.Stats.DistinctStates)
        << What;
  }
}

TEST(Checkpoint, KillAndResumeUnderReductions) {
  CompiledProgram Prog = compile(corpus::german(1));
  for (Reduction R : {Reduction::Symmetry})
    killAndResume(Prog, VisitedMode::Fingerprint, R, 1, 1,
                  std::string("german1 reduce=") + reductionName(R));
}

TEST(Checkpoint, KillAndResumeAcrossWorkerCounts) {
  CompiledProgram Prog = compile(corpus::elevator());
  // Checkpoint under one worker count, resume under another, in both
  // directions: the fingerprint excludes Workers by design.
  killAndResume(Prog, VisitedMode::Fingerprint, Reduction::Off, 1, 4,
                "elevator cut@1 resume@4");
  killAndResume(Prog, VisitedMode::Fingerprint, Reduction::Off, 4, 1,
                "elevator cut@4 resume@1");
}

TEST(Checkpoint, ResumingCompletedRunReproducesFinalStats) {
  CompiledProgram Prog = compile(corpus::elevator());
  TempCkpt C("done");
  CheckOptions Opts = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  Opts.CheckpointPath = C.Path;
  CheckResult Full = check(Prog, Opts);
  ASSERT_TRUE(Full.Stats.Exhausted);

  Opts.Resume = true;
  CheckResult Again = check(Prog, Opts);
  EXPECT_TRUE(Again.Stats.Resumed);
  expectIdentical(Full, Again, "completed-resume");
  // Nothing was pending, so the resumed run explored nothing new.
  EXPECT_EQ(Again.Stats.NodesExplored, Full.Stats.NodesExplored);
}

TEST(Checkpoint, InterruptFlagStopsSearchAndCheckpointCompletes) {
  CompiledProgram Prog = compile(corpus::german(1));
  CheckOptions Base = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  CheckResult Baseline = check(Prog, Base);

  // A pre-raised flag is the degenerate interrupt: the run must stop at
  // the first scheduling point, report Interrupted, and still leave a
  // resumable final checkpoint behind.
  TempCkpt C("intr");
  std::atomic<bool> Flag{true};
  CheckOptions Cut = Base;
  Cut.CheckpointPath = C.Path;
  Cut.InterruptFlag = &Flag;
  CheckResult Partial = check(Prog, Cut);
  EXPECT_TRUE(Partial.Stats.Interrupted);
  EXPECT_FALSE(Partial.Stats.Exhausted);
  EXPECT_LT(Partial.Stats.NodesExplored, Baseline.Stats.NodesExplored);

  CheckOptions Res = Base;
  Res.CheckpointPath = C.Path;
  Res.Resume = true;
  CheckResult Resumed = check(Prog, Res);
  EXPECT_FALSE(Resumed.Stats.Interrupted);
  expectIdentical(Baseline, Resumed, "interrupt-resume");
}

/// German(2) at d=1 with the frontier spilled to disk by \p Workers
/// workers must match the serial in-memory baseline. german(1)'s DFS
/// frontier never reaches the spill floor (the store keeps a minimum
/// resident working set); german(2) at d=1 spills thousands of nodes in
/// well under a second.
void spillMatchesInMemory(int Workers) {
  CompiledProgram Prog = compile(corpus::german(2));
  CheckOptions Base = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  Base.DelayBound = 1;
  CheckResult Baseline = check(Prog, Base);

  TempCkpt C("spill");
  CheckOptions Spill = Base;
  Spill.Workers = Workers;
  Spill.CheckpointPath = C.Path; // Spill file lands next to it.
  // A 1-byte cap means "spill whenever the resident floor allows": the
  // engine keeps a minimum working set in memory and pushes every cold
  // half-frontier to disk.
  Spill.FrontierMemLimitBytes = 1;
  CheckResult Spilled = check(Prog, Spill);
  ASSERT_TRUE(Spilled.ResumeError.empty());
  EXPECT_GT(Spilled.Stats.FrontierSpilledNodes, 0u);
  EXPECT_GT(Spilled.Stats.FrontierSpillBytes, 0u);
  EXPECT_EQ(Spilled.ErrorFound, Baseline.ErrorFound);
  expectIdentical(Baseline, Spilled, "spill-differential");
}

/// Cuts a spilling run of \p Workers workers mid-flight while cold
/// frontier segments sit on disk: the final checkpoint must embed the
/// spilled nodes too (snapshot()), or the resume comes up short.
void killAndResumeWithSpill(int Workers) {
  CompiledProgram Prog = compile(corpus::german(2));
  CheckOptions Base = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  Base.DelayBound = 1;
  CheckResult Baseline = check(Prog, Base);

  TempCkpt C("spillkr");
  CheckOptions Cut = Base;
  Cut.Workers = Workers;
  Cut.CheckpointPath = C.Path;
  Cut.FrontierMemLimitBytes = 1;
  Cut.MaxNodes = Baseline.Stats.NodesExplored / 3;
  CheckResult Partial = check(Prog, Cut);
  ASSERT_TRUE(Partial.ResumeError.empty());
  EXPECT_FALSE(Partial.Stats.Exhausted);
  EXPECT_GT(Partial.Stats.FrontierSpilledNodes, 0u);

  CheckOptions Res = Base;
  Res.Workers = Workers;
  Res.CheckpointPath = C.Path;
  Res.FrontierMemLimitBytes = 1;
  Res.Resume = true;
  CheckResult Resumed = check(Prog, Res);
  EXPECT_EQ(Resumed.ErrorFound, Baseline.ErrorFound);
  expectIdentical(Baseline, Resumed, "spill-kill-resume");
}

TEST(Checkpoint, SpilledFrontierMatchesInMemory) { spillMatchesInMemory(1); }

TEST(Checkpoint, SpilledFrontierMatchesInMemoryAt4Workers) {
  // Workers go idle and steal while segments sit on disk; the busy
  // count must not end the run before every segment is reloaded.
  spillMatchesInMemory(4);
}

TEST(Checkpoint, KillAndResumeWithSpillActive) { killAndResumeWithSpill(1); }

TEST(Checkpoint, KillAndResumeWithSpillActiveAt4Workers) {
  killAndResumeWithSpill(4);
}

//===----------------------------------------------------------------------===//
// Corruption injection: damaged checkpoints are rejected, loudly.
//===----------------------------------------------------------------------===//

/// Writes a real mid-flight checkpoint for the corruption tests.
std::string makeCheckpoint(const CompiledProgram &Prog,
                           const std::string &Path) {
  CheckOptions Opts = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  Opts.MaxNodes = 50;
  Opts.CheckpointPath = Path;
  CheckResult R = check(Prog, Opts);
  EXPECT_TRUE(R.ResumeError.empty());
  EXPECT_GE(R.Stats.CheckpointsWritten, 1u);
  return slurp(Path);
}

CheckResult tryResume(const CompiledProgram &Prog, const std::string &Path) {
  CheckOptions Opts = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  Opts.CheckpointPath = Path;
  Opts.Resume = true;
  return check(Prog, Opts);
}

TEST(CheckpointCorruption, BitFlipIsRejectedByCrc) {
  CompiledProgram Prog = compile(corpus::german(1));
  TempCkpt C("flip");
  std::string Bytes = makeCheckpoint(Prog, C.Path);
  ASSERT_GT(Bytes.size(), 64u);
  Bytes[Bytes.size() / 2] ^= 0x40;
  dump(C.Path, Bytes);
  CheckResult R = tryResume(Prog, C.Path);
  ASSERT_FALSE(R.ResumeError.empty());
  EXPECT_NE(R.ResumeError.find("CRC"), std::string::npos) << R.ResumeError;
  EXPECT_EQ(R.Stats.NodesExplored, 0u); // Refused — no silent restart.
}

TEST(CheckpointCorruption, TruncationIsRejected) {
  CompiledProgram Prog = compile(corpus::german(1));
  TempCkpt C("trunc");
  std::string Bytes = makeCheckpoint(Prog, C.Path);
  dump(C.Path, Bytes.substr(0, Bytes.size() / 2));
  CheckResult R = tryResume(Prog, C.Path);
  ASSERT_FALSE(R.ResumeError.empty());
  EXPECT_EQ(R.Stats.NodesExplored, 0u);

  // Truncating into the fixed header is detected too.
  dump(C.Path, Bytes.substr(0, 10));
  CheckResult R2 = tryResume(Prog, C.Path);
  ASSERT_FALSE(R2.ResumeError.empty());
}

TEST(CheckpointCorruption, StaleFormatVersionIsRejected) {
  CompiledProgram Prog = compile(corpus::german(1));
  TempCkpt C("ver");
  std::string Bytes = makeCheckpoint(Prog, C.Path);
  ASSERT_GT(Bytes.size(), 16u);
  // Forge another format version and re-seal the CRC, simulating a
  // file from an older build (version 1 stored per-entry hashed lists,
  // not table images; version 2 stored no depths for depth-bounded
  // runs; version 3 keys were hashed from the serialized bytes, not
  // streamed; version 4 stored separate node-dedup and distinct-state
  // images; version 5 stored sleep sets and sleep masks; version 6
  // stored 64 visited stripes, not 1024; version 7 stored a visited
  // entry per branch of a `*` and no choice windows) or a newer one:
  // the load must fail on the version, not on a stripe-count mismatch
  // or a misparse.
  ASSERT_GT(ckpt::FormatVersion, 7u);
  for (uint32_t Forged :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, ckpt::FormatVersion + 7}) {
    for (int I = 0; I != 4; ++I)
      Bytes[8 + I] = static_cast<char>((Forged >> (8 * I)) & 0xff);
    const uint32_t Crc = ckpt::crc32(Bytes.data(), Bytes.size() - 4);
    for (int I = 0; I != 4; ++I)
      Bytes[Bytes.size() - 4 + I] =
          static_cast<char>((Crc >> (8 * I)) & 0xff);
    dump(C.Path, Bytes);
    CheckResult R = tryResume(Prog, C.Path);
    ASSERT_FALSE(R.ResumeError.empty()) << "version " << Forged;
    EXPECT_NE(R.ResumeError.find("version " + std::to_string(Forged)),
              std::string::npos)
        << R.ResumeError;
  }
}

TEST(CheckpointCorruption, OptionMismatchIsRejectedByFingerprint) {
  CompiledProgram Prog = compile(corpus::german(1));
  TempCkpt C("fp");
  makeCheckpoint(Prog, C.Path);

  // Same file, different search: the delay bound changed, so resuming
  // would silently answer a different question. Fingerprint says no.
  CheckOptions Opts = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  Opts.DelayBound = 1;
  Opts.CheckpointPath = C.Path;
  Opts.Resume = true;
  CheckResult R = check(Prog, Opts);
  ASSERT_FALSE(R.ResumeError.empty());
  EXPECT_EQ(R.Stats.NodesExplored, 0u);

  // A different program under the same options is refused the same way.
  CompiledProgram Other = compile(corpus::elevator());
  CheckResult R2 = tryResume(Other, C.Path);
  ASSERT_FALSE(R2.ResumeError.empty());
}

TEST(CheckpointCorruption, MissingFileAndMissingPathAreErrors) {
  CompiledProgram Prog = compile(corpus::german(1));
  CheckResult R =
      tryResume(Prog, ::testing::TempDir() + "p_ckpt_never_written.ckpt");
  ASSERT_FALSE(R.ResumeError.empty());

  CheckOptions Opts = baseOpts(1, VisitedMode::Fingerprint, Reduction::Off);
  Opts.Resume = true; // No CheckpointPath at all.
  CheckResult R2 = check(Prog, Opts);
  ASSERT_FALSE(R2.ResumeError.empty());
}

} // namespace
