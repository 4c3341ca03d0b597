//===- obs/BenchJson.cpp -----------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/BenchJson.h"

#include "checker/Checker.h"
#include "obs/Report.h"
#include "support/AtomicFile.h"

#include <cstdio>
#include <fstream>
#include <iostream>

using namespace p;
using namespace p::obs;

Json p::obs::checkStatsToJson(const CheckStats &Stats) {
  Json J = Json::object();
  J.set("distinct_states", Stats.DistinctStates);
  J.set("nodes_explored", Stats.NodesExplored);
  J.set("slices", Stats.Slices);
  J.set("slices_interpreted", Stats.SlicesInterpreted);
  J.set("terminals", Stats.Terminals);
  J.set("errors_found", Stats.ErrorsFound);
  J.set("max_depth", Stats.MaxDepth);
  J.set("exhausted", Stats.Exhausted);
  J.set("visited_bytes", Stats.VisitedBytes);
  J.set("peak_rss_bytes", Stats.PeakRssBytes);
  J.set("omission_possible", Stats.OmissionPossible);
  J.set("workers_used", Stats.WorkersUsed);
  J.set("steal_count", Stats.StealCount);
  J.set("contention_ns", Stats.ContentionNs);
  J.set("faults_injected", Stats.FaultsInjected);
  J.set("symmetry_collapsed", Stats.SymmetryCollapsed);
  J.set("interrupted", Stats.Interrupted);
  J.set("resumed", Stats.Resumed);
  J.set("checkpoints_written", Stats.CheckpointsWritten);
  J.set("checkpoint_bytes", Stats.LastCheckpointBytes);
  J.set("frontier_spilled_nodes", Stats.FrontierSpilledNodes);
  J.set("frontier_spill_bytes", Stats.FrontierSpillBytes);
  return J;
}

void BenchReport::addRun(Json Config, const CheckStats &Stats) {
  Json R = Json::object();
  R.set("bench", Bench);
  R.set("config", std::move(Config));
  R.set("stats", checkStatsToJson(Stats));
  R.set("seconds", Stats.Seconds);
  Runs.push(std::move(R));
}

void BenchReport::addRun(Json Config, const CompiledProgram &Prog,
                         const CheckResult &R) {
  Json Rec = Json::object();
  Rec.set("bench", Bench);
  Rec.set("config", std::move(Config));
  Rec.set("stats", checkStatsToJson(R.Stats));
  Rec.set("seconds", R.Stats.Seconds);
  if (!R.Coverage.Machines.empty())
    Rec.set("coverage", coverageToJson(Prog, R.Coverage));
  Runs.push(std::move(Rec));
}

void BenchReport::addRun(Json Config, Json Stats, double Seconds) {
  Json R = Json::object();
  R.set("bench", Bench);
  R.set("config", std::move(Config));
  R.set("stats", std::move(Stats));
  R.set("seconds", Seconds);
  Runs.push(std::move(R));
}

std::string BenchReport::str() const { return Runs.str(2) + "\n"; }

bool BenchReport::writeTo(const std::string &PathOrDash) const {
  if (PathOrDash == "-") {
    std::cout << str();
    std::cout.flush();
    return true;
  }
  // Temp+rename so an interrupted bench leaves either the previous
  // report or the complete new one, never a torn prefix.
  return writeFileAtomic(PathOrDash, str());
}

bool p::obs::validateBenchReport(const Json &Report, std::string &Why,
                                 bool RequireCheckerStats) {
  if (!Report.isArray()) {
    Why = "report is not a JSON array";
    return false;
  }
  if (Report.size() == 0) {
    Why = "report has no run records";
    return false;
  }
  static const char *CheckerKeys[] = {"distinct_states",
                                      "nodes_explored",
                                      "workers_used",
                                      "steal_count",
                                      "contention_ns",
                                      "visited_bytes",
                                      "peak_rss_bytes",
                                      "symmetry_collapsed"};
  for (size_t I = 0; I != Report.size(); ++I) {
    const Json &R = Report.at(I);
    std::string At = "record " + std::to_string(I) + ": ";
    if (!R.isObject()) {
      Why = At + "not an object";
      return false;
    }
    if (!R.get("bench").isString() || R.get("bench").asString().empty()) {
      Why = At + "missing string 'bench'";
      return false;
    }
    if (!R.get("config").isObject()) {
      Why = At + "missing object 'config'";
      return false;
    }
    if (!R.get("stats").isObject()) {
      Why = At + "missing object 'stats'";
      return false;
    }
    if (!R.get("seconds").isNumber() || R.get("seconds").asNumber() < 0) {
      Why = At + "missing non-negative number 'seconds'";
      return false;
    }
    if (RequireCheckerStats) {
      for (const char *Key : CheckerKeys)
        if (!R.get("stats").get(Key).isNumber()) {
          Why = At + "stats missing numeric '" + Key + "'";
          return false;
        }
    }
    if (R.has("coverage") &&
        !validateCoverageJson(R.get("coverage"), Why, At))
      return false;
  }
  Why.clear();
  return true;
}
