//===- tests/obs_report_test.cpp - Profiler and run-report tests ------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observatory contracts: the search profiler is a pure observer
// (CheckStats bit-identical with Profile on or off, across reductions,
// visited modes, and worker counts) whose merged attribution reconciles
// exactly with the stat counters; coverage reports name dead handlers;
// the Host exports queue high-water and dispatch-latency metrics; and
// RunReport documents validate, render, and round-trip through disk.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "host/Host.h"
#include "host/LatencyProbe.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

using namespace p;

namespace {

CompiledProgram compile(const std::string &Src,
                        const LowerOptions &Opts = {}) {
  CompileResult R = compileString(Src, Opts);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  return std::move(*R.Program);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

//===----------------------------------------------------------------------===//
// ProfileHistogram
//===----------------------------------------------------------------------===//

TEST(ProfileHistogramTest, ObserveMergeQuantile) {
  obs::ProfileHistogram A;
  A.init({1.0, 2.0, 4.0});
  ASSERT_EQ(A.Counts.size(), 4u); // Three bounds + the +Inf bucket.

  A.observe(0.5);
  A.observe(1.5);
  A.observe(3.0);
  A.observe(100.0); // +Inf bucket.
  EXPECT_EQ(A.N, 4u);
  EXPECT_DOUBLE_EQ(A.Sum, 105.0);
  EXPECT_EQ(A.Counts[0], 1u);
  EXPECT_EQ(A.Counts[1], 1u);
  EXPECT_EQ(A.Counts[2], 1u);
  EXPECT_EQ(A.Counts[3], 1u);

  obs::ProfileHistogram B;
  B.init({1.0, 2.0, 4.0});
  B.observe(0.25);
  A.merge(B);
  EXPECT_EQ(A.N, 5u);
  EXPECT_EQ(A.Counts[0], 2u);

  // The +Inf bucket clamps to the last finite bound.
  EXPECT_LE(A.quantile(1.0), 4.0);
  EXPECT_GT(A.quantile(0.5), 0.0);

  obs::ProfileHistogram Empty;
  Empty.init({1.0});
  EXPECT_EQ(Empty.quantile(0.5), 0.0);
}

TEST(ProfileHistogramTest, AtomicHistogramMergeAndQuantile) {
  obs::Histogram A({1.0, 10.0});
  obs::Histogram B({1.0, 10.0});
  for (int I = 0; I != 10; ++I)
    A.observe(0.5);
  B.observe(5.0);
  A.merge(B);
  EXPECT_EQ(A.count(), 11u);
  EXPECT_DOUBLE_EQ(A.sum(), 10.0);
  // 10 of 11 observations sit in the first bucket: the median
  // interpolates inside it, the p99 lands in the second.
  EXPECT_LE(histogramQuantile(A, 0.5), 1.0);
  EXPECT_GT(histogramQuantile(A, 0.99), 1.0);

  obs::Histogram Empty({1.0});
  EXPECT_EQ(histogramQuantile(Empty, 0.5), 0.0);
}

//===----------------------------------------------------------------------===//
// Profiler determinism: Profile is an observer
//===----------------------------------------------------------------------===//

// Fields deterministic on exhausted serial searches; all must be
// bit-identical with the profiler on or off.
void expectStatsIdentical(const CheckStats &A, const CheckStats &B) {
  EXPECT_EQ(A.DistinctStates, B.DistinctStates);
  EXPECT_EQ(A.NodesExplored, B.NodesExplored);
  EXPECT_EQ(A.Slices, B.Slices);
  EXPECT_EQ(A.Terminals, B.Terminals);
  EXPECT_EQ(A.ErrorsFound, B.ErrorsFound);
  EXPECT_EQ(A.MaxDepth, B.MaxDepth);
  EXPECT_EQ(A.Exhausted, B.Exhausted);
  EXPECT_EQ(A.VisitedBytes, B.VisitedBytes);
  EXPECT_EQ(A.SymmetryCollapsed, B.SymmetryCollapsed);
  EXPECT_EQ(A.FaultsInjected, B.FaultsInjected);
}

TEST(ProfileTest, OffIsBitIdenticalAcrossReduceVisitedWorkers) {
  CompiledProgram Prog = compile(corpus::workerPool(3));
  for (Reduction Reduce : {Reduction::Off, Reduction::Symmetry}) {
    for (VisitedMode Visited :
         {VisitedMode::Fingerprint, VisitedMode::Exact}) {
      for (int Workers : {1, 2}) {
        CheckOptions Opts;
        Opts.DelayBound = 1;
        Opts.Workers = Workers;
        Opts.Reduce = Reduce;
        Opts.Visited = Visited;
        Opts.StopOnFirstError = false;
        CheckOptions WithProf = Opts;
        WithProf.Profile = true;

        CheckResult Off = check(Prog, Opts);
        CheckResult On = check(Prog, WithProf);
        SCOPED_TRACE("reduce=" + std::string(reductionName(Reduce)) +
                     " visited=" + std::to_string(int(Visited)) +
                     " workers=" + std::to_string(Workers));
        ASSERT_TRUE(Off.Stats.Exhausted);
        ASSERT_TRUE(On.Stats.Exhausted);
        EXPECT_FALSE(Off.Profile.Enabled);
        EXPECT_TRUE(On.Profile.Enabled);
        if (Workers == 1) {
          expectStatsIdentical(Off.Stats, On.Stats);
        } else {
          // Parallel runs pin the worker-count-independent fields (the
          // determinism contract in DESIGN.md).
          EXPECT_EQ(Off.Stats.DistinctStates, On.Stats.DistinctStates);
          EXPECT_EQ(Off.Stats.Terminals, On.Stats.Terminals);
          EXPECT_EQ(Off.Stats.ErrorsFound, On.Stats.ErrorsFound);
          EXPECT_EQ(Off.Stats.Exhausted, On.Stats.Exhausted);
        }
      }
    }
  }
}

TEST(ProfileTest, AttributionReconcilesWithStats) {
  CompiledProgram Prog = compile(corpus::workerPool(3));
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.Reduce = Reduction::Symmetry;
  Opts.Profile = true;
  Opts.StopOnFirstError = false;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.Stats.Exhausted);
  const obs::SearchProfile &P = R.Profile;
  ASSERT_TRUE(P.Enabled);
  ASSERT_EQ(P.Machines.size(), Prog.Machines.size() + 1);

  // Every explored node is credited somewhere, and all but the root to
  // a real machine type: the trailing row holds exactly the root, which
  // is what makes the >= 99% acceptance bar hold on any real run.
  EXPECT_EQ(P.totalNodes(), R.Stats.NodesExplored);
  EXPECT_EQ(P.attributedNodes() + 1, P.totalNodes());

  uint64_t States = 0, Slices = 0, Sym = 0;
  for (const obs::MachineProfile &M : P.Machines) {
    States += M.States;
    Slices += M.Slices;
    Sym += M.SymmetryCollapsed;
  }
  EXPECT_EQ(States, R.Stats.DistinctStates);
  EXPECT_EQ(Slices, R.Stats.Slices);
  EXPECT_EQ(Sym, R.Stats.SymmetryCollapsed);

  // One depth/delay observation per explored node.
  EXPECT_EQ(P.Depth.N, R.Stats.NodesExplored);
  EXPECT_EQ(P.DelaysUsed.N, R.Stats.NodesExplored);
  // No faults configured: the fault histogram stays untouched.
  EXPECT_EQ(P.FaultsUsed.N, 0u);
  // The pool actually dispatched something.
  EXPECT_FALSE(P.Transitions.empty());
  uint64_t SliceTimed = 0;
  EXPECT_EQ(P.SliceSeconds.N, Slices);
  for (const obs::MachineProfile &M : P.Machines)
    SliceTimed += M.Slices;
  EXPECT_EQ(SliceTimed, Slices);

  // toJson resolves names and reconciles its own totals.
  obs::Json J = P.toJson(Prog);
  EXPECT_EQ(J.get("nodes_total").asNumber(),
            static_cast<double>(R.Stats.NodesExplored));
  EXPECT_TRUE(J.get("machines").isArray());
  EXPECT_TRUE(J.get("hot_transitions").isArray());
  EXPECT_GT(J.get("hot_transitions").size(), 0u);
}

TEST(ProfileTest, ChoicePointsAndTableOccupancyAreReported) {
  CompiledProgram Prog = compile(corpus::german(2));
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.Profile = true;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.Stats.Exhausted);
  const obs::SearchProfile &P = R.Profile;
  // German's ghost driver branches on `*`. A serial search pops every
  // true branch inside the window its false sibling opened.
  EXPECT_GT(P.ChoiceProbes, 0u);
  EXPECT_EQ(P.ChoiceDecided, P.ChoiceProbes);
  EXPECT_EQ(P.ChoiceUnwindowed, 0u);
  EXPECT_GT(P.VisitedSlotsUsed, 0u);
  EXPECT_LT(P.VisitedSlotsUsed, P.VisitedSlots);
  EXPECT_LE(P.VisitedSlots * 16, R.Stats.VisitedBytes);

  const std::string Text = P.str(Prog);
  EXPECT_NE(Text.find("choice points: " + std::to_string(P.ChoiceProbes) +
                      " probed for " +
                      std::to_string(2 * P.ChoiceProbes) + " branches"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("visited: " + std::to_string(P.VisitedSlotsUsed) +
                      " of " + std::to_string(P.VisitedSlots) + " slots"),
            std::string::npos)
      << Text;

  obs::RunReport Rep("obs_report_test");
  Rep.addCheckRun(Prog, obs::Json::object(), R);
  obs::Json Doc = Rep.json();
  std::string Why;
  ASSERT_TRUE(obs::validateRunReport(Doc, Why)) << Why;
  const obs::Json &J = Doc.get("runs").at(0).get("profile");
  EXPECT_EQ(J.get("choice_points").get("probed").asNumber(),
            static_cast<double>(P.ChoiceProbes));
  EXPECT_EQ(J.get("visited_slots").get("used").asNumber(),
            static_cast<double>(P.VisitedSlotsUsed));

  // An enabled profile without the choice-point block is rejected.
  obs::Json Trimmed = obs::Json::object();
  for (const auto &[Key, V] : J.members())
    if (Key != "choice_points")
      Trimmed.set(Key, V);
  obs::Json Run = Doc.get("runs").at(0);
  Run.set("profile", std::move(Trimmed));
  obs::Json OneRun = obs::Json::array();
  OneRun.push(std::move(Run));
  Doc.set("runs", std::move(OneRun));
  EXPECT_FALSE(obs::validateRunReport(Doc, Why));
  EXPECT_NE(Why.find("choice_points"), std::string::npos) << Why;
}

TEST(ProfileTest, MergedParallelAttributionStillReconciles) {
  CompiledProgram Prog = compile(corpus::workerPool(3));
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.Workers = 2;
  Opts.Profile = true;
  Opts.StopOnFirstError = false;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.Stats.Exhausted);
  // NodesExplored races across workers, but whatever it counted, the
  // profile counted identically (the hooks share the fetch_add sites).
  EXPECT_EQ(R.Profile.totalNodes(), R.Stats.NodesExplored);
  EXPECT_EQ(R.Profile.attributedNodes() + 1, R.Profile.totalNodes());
  uint64_t States = 0;
  for (const obs::MachineProfile &M : R.Profile.Machines)
    States += M.States;
  EXPECT_EQ(States, R.Stats.DistinctStates);
}

//===----------------------------------------------------------------------===//
// Coverage: dead handlers are named
//===----------------------------------------------------------------------===//

// Sink's Idle state handles Never, but nothing ever sends it: after an
// exhausted search the (Idle, Never) handler is dead and the coverage
// report must say so by name.
const char *DeadHandlerSrc = R"(
event Go, Never;
main ghost machine Driver {
  var R: id;
  state S {
    entry {
      R = new Sink();
      send(R, Go);
    }
  }
}
machine Sink {
  state Idle {
    entry { }
    on Go goto Idle;
    on Never goto Idle;
  }
}
)";

TEST(ReportCoverageTest, DeadHandlerIsNamedUncovered) {
  CompiledProgram Prog = compile(DeadHandlerSrc);
  CheckOptions Opts;
  Opts.DelayBound = 2;
  Opts.TrackCoverage = true;
  Opts.StopOnFirstError = false;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.Stats.Exhausted);
  EXPECT_EQ(R.Stats.ErrorsFound, 0u);

  obs::Json Cov = obs::coverageToJson(Prog, R.Coverage);
  std::string Why;
  EXPECT_TRUE(obs::validateCoverageJson(Cov, Why)) << Why;

  bool FoundSink = false, FoundDead = false;
  for (size_t I = 0; I != Cov.size(); ++I) {
    const obs::Json &M = Cov.at(I);
    if (M.get("machine").asString() != "Sink")
      continue;
    FoundSink = true;
    const obs::Json &U = M.get("uncovered_transitions");
    ASSERT_TRUE(U.isArray());
    for (size_t J = 0; J != U.size(); ++J) {
      const obs::Json &T = U.at(J);
      if (T.get("state").asString() == "Idle" &&
          T.get("event").asString() == "Never") {
        FoundDead = true;
        EXPECT_EQ(T.get("kind").asString(), "step");
      }
      // The fired (Idle, Go) step must NOT be reported uncovered.
      EXPECT_FALSE(T.get("state").asString() == "Idle" &&
                   T.get("event").asString() == "Go");
    }
  }
  EXPECT_TRUE(FoundSink);
  EXPECT_TRUE(FoundDead);
}

//===----------------------------------------------------------------------===//
// Host metrics: queue high-water and dispatch latency
//===----------------------------------------------------------------------===//

TEST(HostMetricsTest, QueueHighWaterAndDispatchLatencyExport) {
  HostLatencyProbe Probe(50);
  const Host &H = Probe.host();
  EXPECT_GT(H.stats().EventsDelivered, 0u);
  EXPECT_GE(H.stats().QueueDepthHighWater, 1u);
  EXPECT_GT(H.dispatchLatency().count(), 0u);
  EXPECT_GT(H.eventsPerSecond(), 0.0);

  obs::MetricsRegistry Reg;
  H.exportMetrics(Reg);
  const obs::Gauge *HighWater = Reg.findGauge("p_host_queue_depth_highwater");
  ASSERT_NE(HighWater, nullptr);
  EXPECT_GE(HighWater->value(), 1.0);

  const obs::Histogram *Lat =
      Reg.findHistogram("p_host_dispatch_latency_seconds");
  ASSERT_NE(Lat, nullptr);
  EXPECT_EQ(Lat->count(), H.dispatchLatency().count());
  // Dispatch happens after enqueue, so every latency is positive and
  // the quantiles are well-defined.
  EXPECT_GT(Lat->sum(), 0.0);
  EXPECT_GT(histogramQuantile(*Lat, 0.99), 0.0);
  EXPECT_LE(histogramQuantile(*Lat, 0.5), histogramQuantile(*Lat, 0.99));

  std::string Text = Reg.renderPrometheus();
  EXPECT_NE(Text.find("p_host_queue_depth_highwater"), std::string::npos);
  EXPECT_NE(Text.find("p_host_dispatch_latency_seconds"), std::string::npos);
  EXPECT_NE(Text.find("p_host_events_per_sec"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// RunReport: schema, HTML, disk round-trip
//===----------------------------------------------------------------------===//

TEST(RunReportTest, JsonValidatesAndHtmlNamesCoverage) {
  CompiledProgram Prog = compile(DeadHandlerSrc);
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.TrackCoverage = true;
  Opts.Profile = true;
  Opts.StopOnFirstError = false;
  CheckResult R = check(Prog, Opts);
  ASSERT_TRUE(R.Stats.Exhausted);

  obs::RunReport Rep("obs_report_test");
  obs::Json Config = obs::Json::object();
  Config.set("delay_bound", 1);
  Rep.addCheckRun(Prog, std::move(Config), R);

  HostLatencyProbe Probe(20);
  Rep.setHost(Probe.host());
  obs::MetricsRegistry Reg;
  Probe.host().exportMetrics(Reg);
  Rep.setMetrics(Reg);

  obs::Json Doc = Rep.json();
  std::string Why;
  EXPECT_TRUE(obs::validateRunReport(Doc, Why)) << Why;
  EXPECT_EQ(Doc.get("schema").asString(), "p-run-report-v2");
  EXPECT_EQ(Doc.get("tool").asString(), "obs_report_test");
  ASSERT_EQ(Doc.get("runs").size(), 1u);
  const obs::Json &Run = Doc.get("runs").at(0);
  EXPECT_EQ(Run.get("kind").asString(), "check");
  EXPECT_EQ(Run.get("stats").get("slices_interpreted").asNumber(),
            static_cast<double>(R.Stats.SlicesInterpreted));
  EXPECT_TRUE(Run.get("profile").isObject());
  EXPECT_TRUE(Run.get("coverage").isArray());
  EXPECT_TRUE(Doc.get("host").get("dispatch_latency").get("p50_seconds")
                  .isNumber());

  std::string Html = Rep.html();
  EXPECT_NE(Html.find("id=\"coverage\""), std::string::npos);
  EXPECT_NE(Html.find("Never"), std::string::npos); // The dead handler.
  EXPECT_NE(Html.find("obs_report_test"), std::string::npos);
  EXPECT_NE(Html.find("dispatch latency"), std::string::npos);
}

TEST(RunReportTest, WriteToRoundTripsThroughDisk) {
  CompiledProgram Prog = compile(DeadHandlerSrc);
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.TrackCoverage = true;
  Opts.StopOnFirstError = false;
  CheckResult R = check(Prog, Opts);

  obs::RunReport Rep("roundtrip");
  Rep.addCheckRun(Prog, obs::Json::object(), R);
  HostLatencyProbe Probe(10);
  Rep.setHost(Probe.host());

  // A trailing .json on the base is stripped, not doubled.
  std::string Base = ::testing::TempDir() + "p_obs_report_test.json";
  std::string Why;
  ASSERT_TRUE(Rep.writeTo(Base, &Why)) << Why;

  std::string Stem = ::testing::TempDir() + "p_obs_report_test";
  std::string JsonText = readFile(Stem + ".json");
  ASSERT_FALSE(JsonText.empty());
  obs::Json Parsed;
  ASSERT_TRUE(obs::Json::parse(JsonText, Parsed, &Why)) << Why;
  EXPECT_TRUE(obs::validateRunReport(Parsed, Why)) << Why;

  std::string HtmlText = readFile(Stem + ".html");
  EXPECT_NE(HtmlText.find("id=\"coverage\""), std::string::npos);
  std::remove((Stem + ".json").c_str());
  std::remove((Stem + ".html").c_str());
}

TEST(RunReportTest, CheckAndMeasureRecordsValidate) {
  CompiledProgram Prog = compile(corpus::elevator());
  CheckOptions Opts;
  Opts.DelayBound = 1;
  Opts.StopOnFirstError = false;
  CheckResult R = check(Prog, Opts);

  obs::RunReport Rep("unit");
  obs::Json Config = obs::Json::object();
  Config.set("program", "elevator");
  Config.set("delay_bound", 1);
  Rep.addCheckRun(Prog, std::move(Config), R);
  obs::Json Driver = obs::Json::object();
  Driver.set("driver", "p_interpreter");
  obs::Json Free = obs::Json::object();
  Free.set("ns_per_event", 123.0);
  Rep.addMeasureRun(std::move(Driver), std::move(Free), 0.5);

  obs::Json Parsed;
  std::string Why;
  ASSERT_TRUE(obs::Json::parse(Rep.json().str(2), Parsed, &Why)) << Why;
  EXPECT_TRUE(obs::validateRunReport(Parsed, Why)) << Why;
  const obs::Json &Check = Parsed.get("runs").at(0);
  EXPECT_EQ(Check.get("kind").asString(), "check");
  const obs::Json &Stats = Check.get("stats");
  EXPECT_EQ(static_cast<uint64_t>(Stats.get("distinct_states").asNumber()),
            R.Stats.DistinctStates);
  EXPECT_EQ(static_cast<uint64_t>(Stats.get("nodes_explored").asNumber()),
            R.Stats.NodesExplored);
  const obs::Json &Measure = Parsed.get("runs").at(1);
  EXPECT_EQ(Measure.get("kind").asString(), "measure");
  EXPECT_EQ(Measure.get("stats").get("ns_per_event").asNumber(), 123.0);

  std::string Html = Rep.html();
  EXPECT_NE(Html.find("id=\"runs\""), std::string::npos);
  EXPECT_NE(Html.find("id=\"measurements\""), std::string::npos);
  EXPECT_NE(Html.find("p_interpreter"), std::string::npos);
}

TEST(RunReportTest, DashWritesTheJsonToStdout) {
  HostLatencyProbe Probe(10);
  obs::RunReport Rep("dash");
  Rep.addMeasureRun(obs::Json::object(), obs::Json::object(), 0.0);
  Rep.setHost(Probe.host());
  ::testing::internal::CaptureStdout();
  std::string Why;
  const bool Ok = Rep.writeTo("-", &Why);
  const std::string Out = ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(Ok) << Why;
  obs::Json Parsed;
  ASSERT_TRUE(obs::Json::parse(Out, Parsed, &Why)) << Why;
  EXPECT_TRUE(obs::validateRunReport(Parsed, Why)) << Why;

  // An invalid document is refused, not written.
  obs::RunReport Empty("empty");
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(Empty.writeTo("-", &Why));
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  EXPECT_NE(Why.find("schema violation"), std::string::npos) << Why;
}

/// \p Doc with run \p I's record replaced by \p Edit's result.
obs::Json withRun(const obs::Json &Doc, size_t I,
                  const std::function<obs::Json(obs::Json)> &Edit) {
  obs::Json Runs = obs::Json::array();
  for (size_t K = 0; K != Doc.get("runs").size(); ++K)
    Runs.push(K == I ? Edit(Doc.get("runs").at(K)) : Doc.get("runs").at(K));
  obs::Json Out = Doc;
  Out.set("runs", std::move(Runs));
  return Out;
}

/// \p Obj without member \p Key.
obs::Json without(const obs::Json &Obj, const std::string &Key) {
  obs::Json Out = obs::Json::object();
  for (const auto &[K, V] : Obj.members())
    if (K != Key)
      Out.set(K, V);
  return Out;
}

TEST(RunReportTest, ValidatorRejectsMalformedDocuments) {
  std::string Why;

  // Not an object at all (an array was the retired bench schema).
  EXPECT_FALSE(obs::validateRunReport(obs::Json::array(), Why));
  EXPECT_FALSE(Why.empty());

  // Empty runs without a host section: nothing to report on.
  obs::RunReport Empty("empty");
  EXPECT_FALSE(obs::validateRunReport(Empty.json(), Why));
  EXPECT_FALSE(Why.empty());

  // Empty runs WITH a host section is the host-only-tool shape.
  HostLatencyProbe Probe(10);
  obs::RunReport HostOnly("host_only");
  HostOnly.setHost(Probe.host());
  EXPECT_TRUE(obs::validateRunReport(HostOnly.json(), Why)) << Why;

  // Wrong schema tag, including the previous version's.
  obs::Json Doc = HostOnly.json();
  Doc.set("schema", "not-a-report");
  EXPECT_FALSE(obs::validateRunReport(Doc, Why));
  Doc.set("schema", "p-run-report-v1");
  EXPECT_FALSE(obs::validateRunReport(Doc, Why));

  // A check report whose records the cases below break one at a time.
  CompiledProgram Prog = compile(DeadHandlerSrc);
  CheckOptions Opts;
  Opts.DelayBound = 1;
  obs::RunReport Rep("malformed");
  Rep.addCheckRun(Prog, obs::Json::object(), check(Prog, Opts));
  Rep.addMeasureRun(obs::Json::object(), obs::Json::object(), 0.0);
  const obs::Json Good = Rep.json();
  ASSERT_TRUE(obs::validateRunReport(Good, Why)) << Why;

  // A record missing its stats block, of either kind.
  for (size_t I : {0u, 1u}) {
    obs::Json Bad =
        withRun(Good, I, [](obs::Json R) { return without(R, "stats"); });
    EXPECT_FALSE(obs::validateRunReport(Bad, Why)) << "run " << I;
    EXPECT_NE(Why.find("stats"), std::string::npos) << Why;
  }

  // A record without a kind, or with an unknown one.
  obs::Json NoKind =
      withRun(Good, 0, [](obs::Json R) { return without(R, "kind"); });
  EXPECT_FALSE(obs::validateRunReport(NoKind, Why));
  obs::Json OddKind = withRun(Good, 1, [](obs::Json R) {
    R.set("kind", "bench");
    return R;
  });
  EXPECT_FALSE(obs::validateRunReport(OddKind, Why));

  // A check record missing any one of the checker keys.
  for (const char *Key : {"slices_interpreted", "steal_count", "max_depth",
                          "peak_rss_bytes", "contention_ns"}) {
    obs::Json Bad = withRun(Good, 0, [&](obs::Json R) {
      R.set("stats", without(R.get("stats"), Key));
      return R;
    });
    EXPECT_FALSE(obs::validateRunReport(Bad, Why)) << Key;
    EXPECT_NE(Why.find(Key), std::string::npos) << Why;
  }
}

} // namespace
