//===- obs/Report.cpp ---------------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"

#include "checker/Checker.h"
#include "host/Host.h"
#include "obs/Metrics.h"
#include "pir/Program.h"
#include "runtime/Errors.h"
#include "support/AtomicFile.h"

#include <cstdio>
#include <utility>

using namespace p;
using namespace p::obs;

/// The canonical stats{} object of a check record: every CheckStats
/// counter under a stable snake_case key.
static Json checkStatsToJson(const CheckStats &Stats) {
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

Json p::obs::coverageToJson(const CompiledProgram &Prog,
                            const CoverageReport &Cov) {
  Json Out = Json::array();
  for (size_t T = 0; T != Cov.Machines.size() && T != Prog.Machines.size();
       ++T) {
    const CoverageReport::MachineCoverage &MC = Cov.Machines[T];
    // A type the run never instantiated has no coverage story to tell.
    if (MC.StatesVisited.empty() && MC.TransitionsFired.empty())
      continue;
    const MachineInfo &Info = Prog.Machines[T];
    Json M = Json::object();
    M.set("machine", Info.Name);
    M.set("states_covered", static_cast<uint64_t>(MC.StatesVisited.size()));
    M.set("states_total", static_cast<uint64_t>(Info.States.size()));
    M.set("transitions_covered",
          static_cast<uint64_t>(MC.TransitionsFired.size()));
    M.set("transitions_total",
          static_cast<uint64_t>(Info.countTransitions()));

    Json Unreached = Json::array();
    for (size_t S = 0; S != Info.States.size(); ++S)
      if (!MC.StatesVisited.count(static_cast<int32_t>(S)))
        Unreached.push(Info.States[S].Name);
    M.set("unreached_states", std::move(Unreached));

    // Every handler the schedules never dispatched, by name. After an
    // exhausted search these are dead handlers: events that can never
    // arrive in that state.
    Json Uncovered = Json::array();
    for (size_t S = 0; S != Info.States.size(); ++S) {
      const StateInfo &St = Info.States[S];
      for (size_t E = 0; E != St.OnEvent.size(); ++E) {
        if (St.OnEvent[E].Kind == TransitionKind::None)
          continue;
        if (MC.TransitionsFired.count({static_cast<int32_t>(S),
                                       static_cast<int32_t>(E)}))
          continue;
        Json U = Json::object();
        U.set("state", St.Name);
        U.set("event", E < Prog.Events.size() ? Prog.Events[E].Name
                                              : std::to_string(E));
        switch (St.OnEvent[E].Kind) {
        case TransitionKind::Step:
          U.set("kind", "step");
          break;
        case TransitionKind::Call:
          U.set("kind", "call");
          break;
        case TransitionKind::Action:
          U.set("kind", "action");
          break;
        case TransitionKind::None:
          break;
        }
        Uncovered.push(std::move(U));
      }
    }
    M.set("uncovered_transitions", std::move(Uncovered));
    Out.push(std::move(M));
  }
  return Out;
}

Json p::obs::hostToJson(const Host &H) {
  const HostStats &S = H.stats();
  Json J = Json::object();
  J.set("events_delivered", S.EventsDelivered);
  J.set("slices_run", S.SlicesRun);
  J.set("machines_created", S.MachinesCreated);
  J.set("machines_crashed", S.MachinesCrashed);
  J.set("events_per_sec", H.eventsPerSecond());
  J.set("queue_depth_highwater", S.QueueDepthHighWater);

  Json PerMachine = Json::array();
  const std::vector<uint32_t> HighWater = H.queueHighWater();
  const Config &Cfg = H.config();
  const CompiledProgram &Prog = H.program();
  for (size_t Id = 0; Id != HighWater.size(); ++Id) {
    if (HighWater[Id] == 0)
      continue;
    Json R = Json::object();
    R.set("id", static_cast<uint64_t>(Id));
    const int32_t T =
        Id < Cfg.Machines.size() ? Cfg.Machines[Id]->MachineIndex : -1;
    R.set("machine", T >= 0 &&
                             T < static_cast<int32_t>(Prog.Machines.size())
                         ? Prog.Machines[T].Name
                         : std::string("?"));
    R.set("highwater", static_cast<uint64_t>(HighWater[Id]));
    PerMachine.push(std::move(R));
  }
  J.set("per_machine_queue_highwater", std::move(PerMachine));

  const Histogram &L = H.dispatchLatency();
  Json D = Json::object();
  D.set("count", L.count());
  D.set("sum_seconds", L.sum());
  D.set("p50_seconds", histogramQuantile(L, 0.5));
  D.set("p99_seconds", histogramQuantile(L, 0.99));
  Json B = Json::array();
  for (double Bound : L.bounds())
    B.push(Bound);
  Json C = Json::array();
  for (size_t I = 0; I != L.bounds().size() + 1; ++I)
    C.push(L.bucketCount(I));
  D.set("bounds", std::move(B));
  D.set("counts", std::move(C));
  J.set("dispatch_latency", std::move(D));
  return J;
}

void RunReport::addCheckRun(const CompiledProgram &Prog, Json Config,
                            const CheckResult &R) {
  Json Run = Json::object();
  Run.set("kind", "check");
  Run.set("config", std::move(Config));
  Run.set("stats", checkStatsToJson(R.Stats));
  Run.set("seconds", R.Stats.Seconds);
  if (R.ErrorFound) {
    Json E = Json::object();
    E.set("kind", errorKindName(R.Error));
    E.set("message", R.ErrorMessage);
    E.set("delays_used", R.DelaysUsedOnError);
    E.set("faults_used", R.FaultsUsedOnError);
    Run.set("error", std::move(E));
  }
  if (R.Profile.Enabled)
    Run.set("profile", R.Profile.toJson(Prog));
  if (!R.Coverage.Machines.empty())
    Run.set("coverage", coverageToJson(Prog, R.Coverage));
  Runs.push(std::move(Run));
}

void RunReport::addMeasureRun(Json Config, Json Stats, double Seconds) {
  Json Run = Json::object();
  Run.set("kind", "measure");
  Run.set("config", std::move(Config));
  Run.set("stats", std::move(Stats));
  Run.set("seconds", Seconds);
  Runs.push(std::move(Run));
}

void RunReport::setHost(const Host &H) { HostJson = hostToJson(H); }

void RunReport::setMetrics(const MetricsRegistry &Registry) {
  MetricsText = Registry.renderPrometheus();
}

Json RunReport::json() const {
  Json J = Json::object();
  J.set("schema", SchemaTag);
  J.set("tool", Tool);
  J.set("runs", Runs);
  if (!HostJson.isNull())
    J.set("host", HostJson);
  if (!MetricsText.isNull())
    J.set("metrics", MetricsText);
  return J;
}

//===----------------------------------------------------------------------===//
// HTML rendering (from the JSON document, so both artifacts agree).
//===----------------------------------------------------------------------===//

static std::string htmlEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    case '"':
      Out += "&quot;";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

static std::string fmtNumber(const Json &V) {
  if (!V.isNumber())
    return V.isString() ? V.asString() : V.str();
  const double N = V.asNumber();
  char Buf[64];
  if (N == static_cast<double>(static_cast<int64_t>(N)) &&
      N < 9.0e15 && N > -9.0e15)
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(N));
  else
    std::snprintf(Buf, sizeof(Buf), "%.6g", N);
  return Buf;
}

/// "key=value key=value" one-liner of a config object.
static std::string configLine(const Json &Config) {
  std::string Out;
  if (!Config.isObject())
    return Out;
  for (const auto &[K, V] : Config.members()) {
    if (!Out.empty())
      Out += ' ';
    Out += K + "=" +
           (V.isString() ? V.asString() : fmtNumber(V));
  }
  return Out;
}

std::string RunReport::html() const {
  const Json J = json();
  std::string H;
  H += "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n";
  H += "<title>" + htmlEscape(Tool) + " run report</title>\n";
  H += "<style>\n"
       "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;"
       "max-width:72em;padding:0 1em;color:#222}\n"
       "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em}\n"
       "table{border-collapse:collapse;margin:0.5em 0}\n"
       "th,td{border:1px solid #ccc;padding:0.25em 0.6em;text-align:left}\n"
       "th{background:#f2f2f2}\n"
       "td.num,th.num{text-align:right;font-variant-numeric:tabular-nums}\n"
       ".ok{color:#2a7a2a}.bad{color:#b00020}\n"
       ".cfg{color:#666;font-size:0.9em}\n"
       "pre{background:#f7f7f7;border:1px solid #ddd;padding:0.6em;"
       "overflow-x:auto}\n"
       "</style></head><body>\n";
  H += "<h1>" + htmlEscape(Tool) + " run report</h1>\n";
  H += "<p class=\"cfg\">schema " + htmlEscape(J.get("schema").asString()) +
       "</p>\n";

  const Json &Runs = J.get("runs");

  auto isKind = [](const Json &R, const char *Kind) {
    return R.get("kind").asString() == Kind;
  };
  auto countKind = [&](const char *Kind) {
    size_t N = 0;
    for (size_t I = 0; I != Runs.size(); ++I)
      N += isKind(Runs.at(I), Kind);
    return N;
  };

  // Per-run summary table of the check records.
  if (countKind("check") > 0) {
    H += "<h2>Check runs</h2>\n<table id=\"runs\">\n"
         "<tr><th>#</th><th>config</th><th class=\"num\">states</th>"
         "<th class=\"num\">nodes</th><th class=\"num\">max depth</th>"
         "<th class=\"num\">seconds</th><th>exhausted</th>"
         "<th>result</th></tr>\n";
    for (size_t I = 0; I != Runs.size(); ++I) {
      const Json &R = Runs.at(I);
      if (!isKind(R, "check"))
        continue;
      const Json &S = R.get("stats");
      H += "<tr><td class=\"num\">" + std::to_string(I) + "</td><td>" +
           htmlEscape(configLine(R.get("config"))) + "</td>";
      H += "<td class=\"num\">" + fmtNumber(S.get("distinct_states")) +
           "</td>";
      H += "<td class=\"num\">" + fmtNumber(S.get("nodes_explored")) +
           "</td>";
      H += "<td class=\"num\">" + fmtNumber(S.get("max_depth")) + "</td>";
      H += "<td class=\"num\">" + fmtNumber(R.get("seconds")) + "</td>";
      H += std::string("<td>") +
           (S.get("exhausted").isBool() && S.get("exhausted").asBool()
                ? "yes"
                : "no") +
           "</td>";
      if (R.has("error"))
        H += "<td class=\"bad\">error: " +
             htmlEscape(R.get("error").get("kind").asString()) + "</td>";
      else
        H += "<td class=\"ok\">clean</td>";
      H += "</tr>\n";
    }
    H += "</table>\n";
  }

  // Measure records: free-form stats, one line each.
  if (countKind("measure") > 0) {
    H += "<h2>Measurements</h2>\n<table id=\"measurements\">\n"
         "<tr><th>#</th><th>config</th><th>stats</th>"
         "<th class=\"num\">seconds</th></tr>\n";
    for (size_t I = 0; I != Runs.size(); ++I) {
      const Json &R = Runs.at(I);
      if (!isKind(R, "measure"))
        continue;
      H += "<tr><td class=\"num\">" + std::to_string(I) + "</td><td>" +
           htmlEscape(configLine(R.get("config"))) + "</td><td>" +
           htmlEscape(configLine(R.get("stats"))) +
           "</td><td class=\"num\">" + fmtNumber(R.get("seconds")) +
           "</td></tr>\n";
    }
    H += "</table>\n";
  }

  // Profile tables (one per run that has one).
  for (size_t I = 0; I != Runs.size(); ++I) {
    const Json &R = Runs.at(I);
    if (!R.has("profile"))
      continue;
    const Json &P = R.get("profile");
    H += "<h2>Search profile (run " + std::to_string(I) + ")</h2>\n";
    H += "<p class=\"cfg\">nodes attributed " +
         fmtNumber(P.get("nodes_attributed")) + " / " +
         fmtNumber(P.get("nodes_total")) + "</p>\n";
    const Json &Machines = P.get("machines");
    if (Machines.isArray() && Machines.size() > 0) {
      H += "<table><tr><th>machine</th><th class=\"num\">nodes</th>"
           "<th class=\"num\">states</th><th class=\"num\">slices</th>"
           "<th class=\"num\">slice s</th><th class=\"num\">symmetry "
           "collapsed</th></tr>\n";
      for (size_t M = 0; M != Machines.size(); ++M) {
        const Json &Row = Machines.at(M);
        H += "<tr><td>" + htmlEscape(Row.get("machine").asString()) +
             "</td><td class=\"num\">" + fmtNumber(Row.get("nodes")) +
             "</td><td class=\"num\">" + fmtNumber(Row.get("states")) +
             "</td><td class=\"num\">" + fmtNumber(Row.get("slices")) +
             "</td><td class=\"num\">" +
             fmtNumber(Row.get("slice_seconds")) +
             "</td><td class=\"num\">" +
             fmtNumber(Row.get("symmetry_collapsed")) + "</td></tr>\n";
      }
      H += "</table>\n";
    }
    const Json &Hot = P.get("hot_transitions");
    if (Hot.isArray() && Hot.size() > 0) {
      H += "<h2>Hot transitions (run " + std::to_string(I) + ")</h2>\n";
      H += "<table><tr><th>machine</th><th>state</th><th>event</th>"
           "<th class=\"num\">dispatches</th></tr>\n";
      for (size_t T = 0; T != Hot.size(); ++T) {
        const Json &Row = Hot.at(T);
        H += "<tr><td>" + htmlEscape(Row.get("machine").asString()) +
             "</td><td>" + htmlEscape(Row.get("state").asString()) +
             "</td><td>" + htmlEscape(Row.get("event").asString()) +
             "</td><td class=\"num\">" + fmtNumber(Row.get("count")) +
             "</td></tr>\n";
      }
      H += "</table>\n";
    }
  }

  // Coverage: one table, all runs, uncovered transitions named.
  bool CoverageHeader = false;
  for (size_t I = 0; I != Runs.size(); ++I) {
    const Json &R = Runs.at(I);
    if (!R.has("coverage"))
      continue;
    if (!CoverageHeader) {
      H += "<h2>Coverage</h2>\n<table id=\"coverage\">\n"
           "<tr><th>run</th><th>machine</th><th class=\"num\">states</th>"
           "<th class=\"num\">transitions</th><th>unreached states</th>"
           "<th>uncovered transitions</th></tr>\n";
      CoverageHeader = true;
    }
    const Json &Cov = R.get("coverage");
    for (size_t M = 0; M != Cov.size(); ++M) {
      const Json &Row = Cov.at(M);
      H += "<tr><td class=\"num\">" + std::to_string(I) + "</td><td>" +
           htmlEscape(Row.get("machine").asString()) + "</td>";
      H += "<td class=\"num\">" + fmtNumber(Row.get("states_covered")) +
           "/" + fmtNumber(Row.get("states_total")) + "</td>";
      H += "<td class=\"num\">" +
           fmtNumber(Row.get("transitions_covered")) + "/" +
           fmtNumber(Row.get("transitions_total")) + "</td>";
      std::string Unreached;
      const Json &U = Row.get("unreached_states");
      for (size_t K = 0; K != U.size(); ++K)
        Unreached += (K ? ", " : "") + U.at(K).asString();
      H += "<td>" + htmlEscape(Unreached) + "</td>";
      std::string Uncov;
      const Json &UT = Row.get("uncovered_transitions");
      for (size_t K = 0; K != UT.size(); ++K) {
        const Json &Pair = UT.at(K);
        Uncov += (K ? ", " : "") + Pair.get("state").asString() + " on " +
                 Pair.get("event").asString();
      }
      H += "<td>" +
           (Uncov.empty() ? std::string("<span class=\"ok\">full</span>")
                          : htmlEscape(Uncov)) +
           "</td></tr>\n";
    }
  }
  if (CoverageHeader)
    H += "</table>\n";

  // Host section.
  if (J.has("host")) {
    const Json &Ho = J.get("host");
    const Json &D = Ho.get("dispatch_latency");
    H += "<h2>Host</h2>\n<table id=\"host\">\n";
    H += "<tr><th>events delivered</th><td class=\"num\">" +
         fmtNumber(Ho.get("events_delivered")) + "</td></tr>\n";
    H += "<tr><th>slices run</th><td class=\"num\">" +
         fmtNumber(Ho.get("slices_run")) + "</td></tr>\n";
    H += "<tr><th>events/sec</th><td class=\"num\">" +
         fmtNumber(Ho.get("events_per_sec")) + "</td></tr>\n";
    H += "<tr><th>queue depth high-water</th><td class=\"num\">" +
         fmtNumber(Ho.get("queue_depth_highwater")) + "</td></tr>\n";
    H += "<tr><th>dispatch latency p50</th><td class=\"num\">" +
         fmtNumber(D.get("p50_seconds")) + " s</td></tr>\n";
    H += "<tr><th>dispatch latency p99</th><td class=\"num\">" +
         fmtNumber(D.get("p99_seconds")) + " s</td></tr>\n";
    H += "<tr><th>dispatches timed</th><td class=\"num\">" +
         fmtNumber(D.get("count")) + "</td></tr>\n";
    H += "</table>\n";
  }

  // Raw metrics dump, when attached.
  if (J.has("metrics"))
    H += "<h2>Metrics</h2>\n<pre>" +
         htmlEscape(J.get("metrics").asString()) + "</pre>\n";

  H += "</body></html>\n";
  return H;
}

static std::string stripReportExt(std::string Base) {
  for (const char *Ext : {".json", ".html"}) {
    const size_t N = std::string(Ext).size();
    if (Base.size() > N && Base.compare(Base.size() - N, N, Ext) == 0)
      return Base.substr(0, Base.size() - N);
  }
  return Base;
}

bool RunReport::writeTo(const std::string &Base, std::string *Why) const {
  const Json J = json();
  std::string Reason;
  if (!validateRunReport(J, Reason)) {
    if (Why)
      *Why = "schema violation: " + Reason;
    return false;
  }
  if (Base == "-") {
    if (std::fputs((J.str(2) + "\n").c_str(), stdout) < 0 ||
        std::fflush(stdout) != 0) {
      if (Why)
        *Why = "cannot write to stdout";
      return false;
    }
  } else {
    const std::string Stem = stripReportExt(Base);
    // Atomic temp+rename emission: a reader (or a crash — reports are
    // written right when interrupted runs wind down) never observes a
    // half-written report, only the old file or the new one.
    if (!writeFileAtomic(Stem + ".json", J.str(2) + "\n", Why) ||
        !writeFileAtomic(Stem + ".html", html(), Why))
      return false;
  }
  if (Why)
    Why->clear();
  return true;
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

bool p::obs::validateCoverageJson(const Json &Cov, std::string &Why,
                                  const std::string &At) {
  if (!Cov.isArray()) {
    Why = At + "coverage is not an array";
    return false;
  }
  for (size_t M = 0; M != Cov.size(); ++M) {
    const Json &Row = Cov.at(M);
    const std::string Here =
        At + "coverage[" + std::to_string(M) + "]: ";
    if (!Row.isObject() || !Row.get("machine").isString()) {
      Why = Here + "missing string 'machine'";
      return false;
    }
    for (const char *Key :
         {"states_covered", "states_total", "transitions_covered",
          "transitions_total"})
      if (!Row.get(Key).isNumber()) {
        Why = Here + "missing numeric '" + Key + "'";
        return false;
      }
    if (!Row.get("unreached_states").isArray() ||
        !Row.get("uncovered_transitions").isArray()) {
      Why = Here + "missing unreached_states/uncovered_transitions arrays";
      return false;
    }
    const Json &UT = Row.get("uncovered_transitions");
    for (size_t K = 0; K != UT.size(); ++K)
      if (!UT.at(K).get("state").isString() ||
          !UT.at(K).get("event").isString()) {
        Why = Here + "uncovered transition without state/event names";
        return false;
      }
  }
  return true;
}

bool p::obs::validateRunReport(const Json &Report, std::string &Why) {
  if (!Report.isObject()) {
    Why = "report is not a JSON object";
    return false;
  }
  if (!Report.get("schema").isString() ||
      Report.get("schema").asString() != SchemaTag) {
    Why = std::string("missing schema tag '") + SchemaTag + "'";
    return false;
  }
  if (!Report.get("tool").isString() ||
      Report.get("tool").asString().empty()) {
    Why = "missing string 'tool'";
    return false;
  }
  const Json &Runs = Report.get("runs");
  if (!Runs.isArray()) {
    Why = "missing array 'runs'";
    return false;
  }
  if (Runs.size() == 0 && !Report.has("host")) {
    Why = "empty runs array without a host section";
    return false;
  }
  // The checker counters every perf trajectory reads off a check record.
  static const char *CheckKeys[] = {
      "distinct_states", "nodes_explored", "slices_interpreted",
      "max_depth",       "workers_used",   "steal_count",
      "contention_ns",   "visited_bytes",  "peak_rss_bytes",
      "symmetry_collapsed"};
  for (size_t I = 0; I != Runs.size(); ++I) {
    const Json &R = Runs.at(I);
    const std::string At = "run " + std::to_string(I) + ": ";
    if (!R.isObject() || !R.get("config").isObject()) {
      Why = At + "missing object 'config'";
      return false;
    }
    const Json &Kind = R.get("kind");
    const bool IsCheck = Kind.isString() && Kind.asString() == "check";
    if (!IsCheck && !(Kind.isString() && Kind.asString() == "measure")) {
      Why = At + "'kind' is neither \"check\" nor \"measure\"";
      return false;
    }
    const Json &S = R.get("stats");
    if (!S.isObject()) {
      Why = At + "missing object 'stats'";
      return false;
    }
    if (IsCheck)
      for (const char *Key : CheckKeys)
        if (!S.get(Key).isNumber()) {
          Why = At + "stats missing numeric '" + Key + "'";
          return false;
        }
    if (!R.get("seconds").isNumber() || R.get("seconds").asNumber() < 0) {
      Why = At + "missing non-negative number 'seconds'";
      return false;
    }
    if (R.has("profile")) {
      if (!R.get("profile").isObject() ||
          !R.get("profile").get("enabled").isBool()) {
        Why = At + "profile without boolean 'enabled'";
        return false;
      }
      const Json &P = R.get("profile");
      if (P.get("enabled").asBool() && !P.get("machines").isArray()) {
        Why = At + "enabled profile without 'machines' array";
        return false;
      }
      static const std::pair<const char *, const char *> ProfileKeys[] = {
          {"choice_points", "probed"},
          {"choice_points", "decided"},
          {"choice_points", "unwindowed"},
          {"visited_slots", "used"},
          {"visited_slots", "slots"}};
      if (P.get("enabled").asBool())
        for (const auto &[Obj, Key] : ProfileKeys)
          if (!P.get(Obj).isObject() || !P.get(Obj).get(Key).isNumber()) {
            Why = At + "enabled profile missing numeric '" + Obj + "." +
                  Key + "'";
            return false;
          }
    }
    if (R.has("coverage") &&
        !validateCoverageJson(R.get("coverage"), Why, At))
      return false;
  }
  if (Report.has("host")) {
    const Json &Ho = Report.get("host");
    if (!Ho.isObject() || !Ho.get("events_delivered").isNumber()) {
      Why = "host section without numeric 'events_delivered'";
      return false;
    }
    const Json &D = Ho.get("dispatch_latency");
    if (!D.isObject() || !D.get("p50_seconds").isNumber() ||
        !D.get("p99_seconds").isNumber() || !D.get("count").isNumber()) {
      Why = "host dispatch_latency without numeric p50/p99/count";
      return false;
    }
  }
  if (Report.has("metrics") && !Report.get("metrics").isString()) {
    Why = "metrics section is not a string";
    return false;
  }
  Why.clear();
  return true;
}
