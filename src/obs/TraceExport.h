//===- obs/TraceExport.h - Trace exporters and re-parsers ------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a recorded trace three ways:
///
///  * JSONL — one JSON object per line, the archival format; round-
///    trips through parseJsonl (tests reconcile per-kind counts with
///    CheckStats).
///  * Chrome trace-event JSON — loadable in Perfetto / chrome://tracing
///    (each sink renders as a thread track of instant events).
///  * Text message-sequence chart — machines as columns, sends as
///    arrows; the human-readable view of a counterexample.
///
/// renderScheduleMsc replays a checker schedule (the counterexample's
/// SchedDecisions) through replaySchedule with tracing attached and
/// renders the MSC of exactly that path.
///
//===----------------------------------------------------------------------===//

#ifndef P_OBS_TRACEEXPORT_H
#define P_OBS_TRACEEXPORT_H

#include "obs/Trace.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace p {
struct CheckOptions;
struct CompiledProgram;
struct SchedDecision;
} // namespace p

namespace p::obs {

/// Writes one JSON object per event:
///   {"ts":<ns>,"tid":<sink>,"kind":"send","m":<id>,"a":<a>,"b":<b>}
/// Returns the number of lines written.
size_t exportJsonl(const std::vector<TraceEvent> &Events,
                   std::ostream &Out);

/// Parses exportJsonl output back. Returns false on the first
/// malformed line (and reports its 1-based number via \p BadLine).
bool parseJsonl(std::istream &In, std::vector<TraceEvent> &Out,
                size_t *BadLine = nullptr);

/// Writes the Chrome trace-event format (JSON object with a
/// "traceEvents" array of instant events, one Perfetto track per
/// sink). \p Prog, when given, resolves machine/event/state names
/// into the event args.
void exportChromeTrace(const std::vector<TraceEvent> &Events,
                       std::ostream &Out,
                       const CompiledProgram *Prog = nullptr);

/// Renders a text message-sequence chart: one column per machine,
/// sends as labelled arrows, state entries and errors as annotations.
/// At most \p MaxRows event rows are rendered (a trailing note says
/// how many were elided).
std::string renderMsc(const std::vector<TraceEvent> &Events,
                      const CompiledProgram *Prog = nullptr,
                      size_t MaxRows = 200);

/// Replays \p Schedule (e.g. CheckResult::Schedule) with replaySchedule
/// under \p Opts, the options of the producing check() run (model
/// bodies, the slice step limit, the queue bound and overflow policy),
/// with tracing attached, and returns the MSC of that single path up to
/// its error.
std::string renderScheduleMsc(const CompiledProgram &Prog,
                              const std::vector<SchedDecision> &Schedule,
                              const CheckOptions &Opts);

} // namespace p::obs

#endif // P_OBS_TRACEEXPORT_H
