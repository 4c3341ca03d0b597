//===- obs/Report.h - Unified run reports ----------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One self-contained artifact per tool run, and the one report schema
/// of every bench and example: `--report out` writes `out.json` +
/// `out.html` combining every layer's view of the run — one record per
/// check() run (CheckStats, the search profile (obs/Profile.h),
/// structural coverage with *named* uncovered transitions, the dead-
/// handler report) or per measurement (free-form stats), a live Host's
/// latency/queue metrics, and a Prometheus metrics dump. `--report -`
/// writes the JSON alone to stdout.
///
/// The JSON carries a schema tag ("p-run-report-v2") and is validated
/// by validateRunReport before it is written: a report a binary managed
/// to write is schema-valid by construction. The HTML is a single
/// dependency-free file (inline CSS, no scripts) rendered from the
/// same JSON.
///
//===----------------------------------------------------------------------===//

#ifndef P_OBS_REPORT_H
#define P_OBS_REPORT_H

#include "obs/Json.h"

#include <string>

namespace p {
class Host;
struct CheckResult;
struct CompiledProgram;
struct CoverageReport;
} // namespace p

namespace p::obs {

class MetricsRegistry;

/// The schema tag every report carries.
inline constexpr char SchemaTag[] = "p-run-report-v2";

/// Renders structural coverage with names resolved from \p Prog:
/// per-machine covered/total counts, unreached state names, and every
/// uncovered (state, event) pair that *has* a handler — after an
/// exhausted search those are dead handlers. Machine types the run
/// never instantiated are skipped.
Json coverageToJson(const CompiledProgram &Prog, const CoverageReport &Cov);

/// Renders a live Host's observability surface: delivery counters,
/// events/sec, queue-depth high-water marks, and the enqueue→dispatch
/// latency histogram with p50/p99.
Json hostToJson(const Host &H);

/// Collects one tool run's layers and writes the report pair.
class RunReport {
public:
  explicit RunReport(std::string Tool) : Tool(std::move(Tool)) {}

  /// Adds a `"kind": "check"` record for a check() run: config + stats
  /// always; profile and coverage when the result carries them; error
  /// details when one was found.
  void addCheckRun(const CompiledProgram &Prog, Json Config,
                   const CheckResult &R);

  /// Adds a `"kind": "measure"` record with free-form \p Stats (host
  /// and overhead benches, which run no check()).
  void addMeasureRun(Json Config, Json Stats, double Seconds);

  /// Attaches a live host's metrics section (replaces any previous).
  void setHost(const Host &H);
  bool hasHost() const { return !HostJson.isNull(); }

  /// Attaches a Prometheus text dump of \p Registry.
  void setMetrics(const MetricsRegistry &Registry);

  /// The report document (schema SchemaTag).
  Json json() const;

  /// The report as one dependency-free HTML page.
  std::string html() const;

  /// Validates the document and writes `<Base>.json` + `<Base>.html`
  /// (a trailing .json/.html on \p Base is stripped first); a \p Base
  /// of "-" writes the JSON alone to stdout. Returns
  /// false — with the reason in \p Why when non-null — on a schema
  /// violation or I/O error; callers treat that as a fatal tool error.
  bool writeTo(const std::string &Base, std::string *Why = nullptr) const;

private:
  std::string Tool;
  Json Runs = Json::array();
  Json HostJson;    ///< Null until setHost.
  Json MetricsText; ///< Null until setMetrics.
};

/// Validates one coverage block (the array coverageToJson produces);
/// \p At prefixes the failure reason.
bool validateCoverageJson(const Json &Cov, std::string &Why,
                          const std::string &At = "");

/// Schema check for a parsed run report: schema tag, tool name, a runs
/// array whose records carry a kind ("check" or "measure"), config,
/// stats and seconds — check records with the checker stat keys every
/// perf trajectory needs and well-formed optional profile/coverage
/// blocks, measure records with any stats object — and, when a host
/// section is present, a dispatch_latency object with numeric
/// p50_seconds/p99_seconds. An empty runs array is only valid when a
/// host section is present (host-only tools). On failure returns false
/// with a human-readable reason in \p Why.
bool validateRunReport(const Json &Report, std::string &Why);

} // namespace p::obs

#endif // P_OBS_REPORT_H
