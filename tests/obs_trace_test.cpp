//===- tests/obs_trace_test.cpp - Tracing subsystem tests -------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability contracts: ring-buffer accounting, exporter
// round-trips whose per-kind counts reconcile with CheckStats, the
// tracing-must-not-change-exploration determinism guarantee, multicast
// observer registration, and the progress heartbeat.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "host/Host.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "obs/Trace.h"
#include "obs/TraceExport.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace p;

namespace {

CompiledProgram compile(const std::string &Src) {
  CompileResult R = compileString(Src);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  return std::move(*R.Program);
}

std::array<uint64_t, obs::NumTraceKinds>
countsOf(const std::vector<obs::TraceEvent> &Events) {
  std::array<uint64_t, obs::NumTraceKinds> Counts{};
  for (const obs::TraceEvent &E : Events)
    ++Counts[static_cast<size_t>(E.Kind)];
  return Counts;
}

TEST(TraceRecorderTest, RecordAndSnapshot) {
  obs::TraceRecorder Rec(64);
  obs::TraceSink &S = Rec.openSink();
  S.record(obs::TraceKind::Send, 1, 2, 3);
  S.record(obs::TraceKind::Dequeue, 3, 2);
  S.record(obs::TraceKind::Halt, 3);

  EXPECT_EQ(Rec.recorded(), 3u);
  EXPECT_EQ(Rec.dropped(), 0u);
  EXPECT_EQ(Rec.sinkCount(), 1u);

  std::vector<obs::TraceEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Kind, obs::TraceKind::Send);
  EXPECT_EQ(Events[0].Machine, 1);
  EXPECT_EQ(Events[0].A, 2);
  EXPECT_EQ(Events[0].B, 3);
  EXPECT_EQ(Events[1].Kind, obs::TraceKind::Dequeue);
  EXPECT_EQ(Events[2].Kind, obs::TraceKind::Halt);
  // Timestamps are monotonic within a sink.
  EXPECT_LE(Events[0].TimeNs, Events[1].TimeNs);
  EXPECT_LE(Events[1].TimeNs, Events[2].TimeNs);
}

TEST(TraceRecorderTest, RingOverwriteAccounting) {
  obs::TraceRecorder Rec(16); // Minimum capacity.
  obs::TraceSink &S = Rec.openSink();
  for (int I = 0; I != 20; ++I)
    S.record(obs::TraceKind::Raise, I);
  EXPECT_EQ(Rec.recorded(), 20u);
  EXPECT_EQ(Rec.dropped(), 4u);
  std::vector<obs::TraceEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), 16u);
  // The survivors are the most recent 16, oldest first.
  EXPECT_EQ(Events.front().Machine, 4);
  EXPECT_EQ(Events.back().Machine, 19);
}

TEST(TraceRecorderTest, MultipleSinksMergeSorted) {
  obs::TraceRecorder Rec(64);
  obs::TraceSink &A = Rec.openSink();
  obs::TraceSink &B = Rec.openSink();
  A.record(obs::TraceKind::Send, 0, 1, 2);
  B.record(obs::TraceKind::Send, 5, 1, 2);
  A.record(obs::TraceKind::Halt, 0);
  EXPECT_EQ(A.tid(), 0u);
  EXPECT_EQ(B.tid(), 1u);
  std::vector<obs::TraceEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), 3u);
  for (size_t I = 1; I != Events.size(); ++I)
    EXPECT_LE(Events[I - 1].TimeNs, Events[I].TimeNs);
}

TEST(TraceRecorderTest, KindNamesRoundTrip) {
  for (size_t K = 0; K != obs::NumTraceKinds; ++K) {
    obs::TraceKind Kind = static_cast<obs::TraceKind>(K);
    obs::TraceKind Back;
    ASSERT_TRUE(obs::traceKindFromName(obs::traceKindName(Kind), Back))
        << obs::traceKindName(Kind);
    EXPECT_EQ(Back, Kind);
  }
  obs::TraceKind Out;
  EXPECT_FALSE(obs::traceKindFromName("not-a-kind", Out));
}

//===----------------------------------------------------------------------===//
// Checker integration: round-trip and reconciliation
//===----------------------------------------------------------------------===//

TEST(TraceCheckerTest, JsonlRoundTripReconcilesWithStats) {
  CompiledProgram Prog = compile(corpus::switchLed());
  obs::TraceRecorder Rec(1u << 20); // Large enough: dropped() must be 0.
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.StopOnFirstError = false;
  Opts.Trace = &Rec;
  CheckResult R = check(Prog, Opts);

  ASSERT_EQ(Rec.dropped(), 0u)
      << "ring overwrote events; grow the capacity";
  std::vector<obs::TraceEvent> Events = Rec.snapshot();
  EXPECT_EQ(Events.size(), Rec.recorded());

  // Per-kind counts reconcile with the checker's own accounting: every
  // scheduled slice records exactly one Slice marker.
  auto Counts = Rec.countsByKind();
  EXPECT_EQ(Counts[static_cast<size_t>(obs::TraceKind::Slice)],
            R.Stats.Slices);
  EXPECT_GT(Counts[static_cast<size_t>(obs::TraceKind::Send)], 0u);
  EXPECT_GT(Counts[static_cast<size_t>(obs::TraceKind::Dequeue)], 0u);
  EXPECT_GT(Counts[static_cast<size_t>(obs::TraceKind::New)], 0u);
  EXPECT_EQ(Counts[static_cast<size_t>(obs::TraceKind::Error)],
            R.Stats.ErrorsFound);

  // JSONL round-trip: export, re-parse, same events.
  std::stringstream Jsonl;
  size_t Lines = obs::exportJsonl(Events, Jsonl);
  EXPECT_EQ(Lines, Events.size());
  std::vector<obs::TraceEvent> Back;
  size_t BadLine = 0;
  ASSERT_TRUE(obs::parseJsonl(Jsonl, Back, &BadLine))
      << "line " << BadLine;
  ASSERT_EQ(Back.size(), Events.size());
  EXPECT_EQ(countsOf(Back), Counts);
  for (size_t I = 0; I != Events.size(); ++I) {
    EXPECT_EQ(Back[I].TimeNs, Events[I].TimeNs);
    EXPECT_EQ(Back[I].Kind, Events[I].Kind);
    EXPECT_EQ(Back[I].Machine, Events[I].Machine);
    EXPECT_EQ(Back[I].A, Events[I].A);
    EXPECT_EQ(Back[I].B, Events[I].B);
    EXPECT_EQ(Back[I].Tid, Events[I].Tid);
  }
}

TEST(TraceCheckerTest, ChromeTraceParsesWithOneEventPerRecord) {
  CompiledProgram Prog = compile(corpus::switchLed());
  obs::TraceRecorder Rec(1u << 20);
  CheckOptions Opts;
  Opts.DelayBound = 0;
  Opts.StopOnFirstError = false;
  Opts.Trace = &Rec;
  check(Prog, Opts);
  ASSERT_EQ(Rec.dropped(), 0u);
  std::vector<obs::TraceEvent> Events = Rec.snapshot();

  std::stringstream Out;
  obs::exportChromeTrace(Events, Out, &Prog);
  obs::Json Doc;
  std::string Err;
  ASSERT_TRUE(obs::Json::parse(Out.str(), Doc, &Err)) << Err;
  ASSERT_TRUE(Doc.isObject());
  const obs::Json &TraceEvents = Doc.get("traceEvents");
  ASSERT_TRUE(TraceEvents.isArray());
  EXPECT_EQ(TraceEvents.size(), Events.size());
  // Spot-check a record's shape.
  ASSERT_GT(TraceEvents.size(), 0u);
  const obs::Json &First = TraceEvents.at(0);
  EXPECT_TRUE(First.get("name").isString());
  EXPECT_TRUE(First.get("ts").isNumber());
  EXPECT_TRUE(First.get("ph").isString());
}

TEST(TraceCheckerTest, TracingDoesNotChangeExploration) {
  CompiledProgram Prog = compile(corpus::german(2));
  auto Run = [&](obs::TraceRecorder *Rec) {
    CheckOptions Opts;
    Opts.DelayBound = 1;
    Opts.StopOnFirstError = false;
    Opts.CollectTerminals = true;
    Opts.Trace = Rec;
    return check(Prog, Opts);
  };
  CheckResult Off = Run(nullptr);
  obs::TraceRecorder Rec; // Default (small) capacity: drops are fine —
                          // exploration must be identical regardless.
  CheckResult On = Run(&Rec);
  EXPECT_EQ(On.Stats.DistinctStates, Off.Stats.DistinctStates);
  EXPECT_EQ(On.Stats.Terminals, Off.Stats.Terminals);
  EXPECT_EQ(On.Stats.NodesExplored, Off.Stats.NodesExplored);
  EXPECT_EQ(On.TerminalHashes, Off.TerminalHashes);
  EXPECT_GT(Rec.recorded(), 0u);
}

TEST(TraceCheckerTest, ParallelWorkersGetOwnSinks) {
  CompiledProgram Prog = compile(corpus::german(2));
  obs::TraceRecorder Rec(1u << 18);
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.StopOnFirstError = false;
  Opts.Workers = 4;
  Opts.Trace = &Rec;
  CheckResult R = check(Prog, Opts);
  EXPECT_EQ(R.Stats.WorkersUsed, 4);
  EXPECT_EQ(Rec.sinkCount(), 4u);
  if (Rec.dropped() == 0) {
    auto Counts = Rec.countsByKind();
    EXPECT_EQ(Counts[static_cast<size_t>(obs::TraceKind::Slice)],
              R.Stats.Slices);
  }
}

TEST(TraceCheckerTest, MscRendersCounterexample) {
  CompiledProgram Prog = compile(
      corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation));
  CheckOptions Opts;
  Opts.DelayBound = 2;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.ErrorFound);
  std::string Msc =
      obs::renderScheduleMsc(Prog, R.Schedule, Opts);
  EXPECT_NE(Msc.find("assert-failed"), std::string::npos) << Msc;
  EXPECT_NE(Msc.find("Home"), std::string::npos) << Msc;

  // The chart replays under the check's queue bound: the second send
  // overflows the Receiver's one-slot queue.
  CompiledProgram Bounded = compile(R"(
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
  CheckOptions BoundedOpts;
  BoundedOpts.MaxQueue = 1;
  CheckResult Overflow = check(Bounded, BoundedOpts);
  ASSERT_TRUE(Overflow.ErrorFound);
  ASSERT_EQ(Overflow.Error, ErrorKind::QueueOverflow);
  Msc = obs::renderScheduleMsc(Bounded, Overflow.Schedule, BoundedOpts);
  EXPECT_NE(Msc.find("queue-overflow"), std::string::npos) << Msc;
}

//===----------------------------------------------------------------------===//
// Host integration
//===----------------------------------------------------------------------===//

TEST(TraceHostTest, HostRecordsPumpEvents) {
  LowerOptions LO;
  LO.EraseGhosts = true;
  CompileResult CR = compileString(corpus::switchLed(), LO);
  ASSERT_TRUE(CR.ok()) << CR.Diags.str();
  Host H(*CR.Program);
  obs::TraceRecorder Rec;
  H.attachTrace(Rec);
  int32_t Id = H.createMachine("SwitchLedDriver");
  ASSERT_GE(Id, 0);
  ASSERT_TRUE(H.addEvent(Id, "SwitchedOn"));
  ASSERT_TRUE(H.addEvent(Id, "LedOk"));
  ASSERT_EQ(Rec.dropped(), 0u);
  auto Counts = Rec.countsByKind();
  EXPECT_EQ(Counts[static_cast<size_t>(obs::TraceKind::Slice)],
            H.stats().SlicesRun);
  EXPECT_GT(Counts[static_cast<size_t>(obs::TraceKind::New)], 0u);
  EXPECT_GT(Counts[static_cast<size_t>(obs::TraceKind::Dequeue)], 0u);

  obs::MetricsRegistry Reg;
  H.exportMetrics(Reg);
  ASSERT_NE(Reg.findCounter("p_host_slices_total"), nullptr);
  EXPECT_EQ(Reg.findCounter("p_host_slices_total")->value(),
            H.stats().SlicesRun);
  ASSERT_NE(Reg.findGauge("p_host_machines_live"), nullptr);
  EXPECT_GE(Reg.findGauge("p_host_machines_live")->value(), 1.0);
}

//===----------------------------------------------------------------------===//
// Multicast observers
//===----------------------------------------------------------------------===//

TEST(ObserverTest, DequeueObserversAreAdditive) {
  LowerOptions LO;
  LO.EraseGhosts = true;
  CompileResult CR = compileString(corpus::switchLed(), LO);
  ASSERT_TRUE(CR.ok()) << CR.Diags.str();
  Host H(*CR.Program);
  int FirstCount = 0, SecondCount = 0;
  H.executor().addDequeueObserver(
      [&](int32_t, int32_t) { ++FirstCount; });
  H.executor().setDequeueObserver( // The alias registers, not replaces.
      [&](int32_t, int32_t) { ++SecondCount; });
  int32_t Id = H.createMachine("SwitchLedDriver");
  H.addEvent(Id, "SwitchedOn");
  H.addEvent(Id, "LedOk");
  EXPECT_GT(FirstCount, 0);
  EXPECT_EQ(FirstCount, SecondCount);
}

//===----------------------------------------------------------------------===//
// Progress heartbeat
//===----------------------------------------------------------------------===//

TEST(ProgressTest, HeartbeatFiresAndSnapshotsGrow) {
  CompiledProgram Prog = compile(corpus::german(2));
  CheckOptions Opts;
  Opts.DelayBound = 2;
  Opts.StopOnFirstError = false;
  Opts.ProgressIntervalSeconds = 0.001;
  std::vector<CheckStats> Beats;
  Opts.Progress = [&](const CheckStats &S) { Beats.push_back(S); };
  CheckResult R = check(Prog, Opts);
  ASSERT_GE(Beats.size(), 1u) << "no heartbeat fired";
  for (size_t I = 1; I < Beats.size(); ++I) {
    EXPECT_GE(Beats[I].NodesExplored, Beats[I - 1].NodesExplored);
    EXPECT_GE(Beats[I].Seconds, Beats[I - 1].Seconds);
  }
  EXPECT_LE(Beats.back().NodesExplored, R.Stats.NodesExplored);
  EXPECT_EQ(Beats.back().WorkersUsed, 1);
}

//===----------------------------------------------------------------------===//
// Bench-report schema
//===----------------------------------------------------------------------===//

// Benches write run reports, so the one validator must refuse what the
// retired bench schema refused: a document of the wrong shape, a report
// with no records, and a record without its stats.
TEST(BenchJsonTest, ValidatorRejectsMalformedReports) {
  std::string Why;
  obs::Json BenchArray = obs::Json::array();
  EXPECT_FALSE(obs::validateRunReport(BenchArray, Why));
  EXPECT_FALSE(Why.empty());

  obs::RunReport Empty("unit");
  EXPECT_FALSE(obs::validateRunReport(Empty.json(), Why));
  EXPECT_FALSE(Why.empty());

  obs::RunReport Measured("unit");
  Measured.addMeasureRun(obs::Json::object(), obs::Json::object(), 1.0);
  obs::Json Doc = Measured.json();
  ASSERT_TRUE(obs::validateRunReport(Doc, Why)) << Why;
  obs::Json Rec = obs::Json::object();
  Rec.set("kind", "measure");
  Rec.set("config", obs::Json::object());
  Rec.set("seconds", 1.0);
  obs::Json Runs = obs::Json::array();
  Runs.push(std::move(Rec));
  Doc.set("runs", std::move(Runs));
  EXPECT_FALSE(obs::validateRunReport(Doc, Why));
  EXPECT_NE(Why.find("stats"), std::string::npos) << Why;
}

} // namespace
