//===- obs/TraceExport.cpp ---------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceExport.h"

#include "checker/Replay.h"
#include "obs/Json.h"
#include "pir/Program.h"
#include "runtime/Executor.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

using namespace p;
using namespace p::obs;

//===----------------------------------------------------------------------===//
// JSONL
//===----------------------------------------------------------------------===//

size_t p::obs::exportJsonl(const std::vector<TraceEvent> &Events,
                           std::ostream &Out) {
  std::string Line;
  for (const TraceEvent &E : Events) {
    Line.clear();
    Line += "{\"ts\":";
    Line += std::to_string(E.TimeNs);
    Line += ",\"tid\":";
    Line += std::to_string(E.Tid);
    Line += ",\"kind\":\"";
    Line += traceKindName(E.Kind);
    Line += "\",\"m\":";
    Line += std::to_string(E.Machine);
    Line += ",\"a\":";
    Line += std::to_string(E.A);
    Line += ",\"b\":";
    Line += std::to_string(E.B);
    Line += "}\n";
    Out << Line;
  }
  return Events.size();
}

bool p::obs::parseJsonl(std::istream &In, std::vector<TraceEvent> &Out,
                        size_t *BadLine) {
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    Json J;
    if (!Json::parse(Line, J) || !J.isObject() || !J.get("ts").isNumber() ||
        !J.get("kind").isString()) {
      if (BadLine)
        *BadLine = LineNo;
      return false;
    }
    TraceEvent E;
    E.TimeNs = static_cast<uint64_t>(J.get("ts").asNumber());
    E.Tid = static_cast<uint16_t>(J.get("tid").asInt());
    E.Machine = static_cast<int32_t>(J.get("m").asInt());
    E.A = static_cast<int32_t>(J.get("a").asInt());
    E.B = static_cast<int32_t>(J.get("b").asInt());
    if (!traceKindFromName(J.get("kind").asString().c_str(), E.Kind)) {
      if (BadLine)
        *BadLine = LineNo;
      return false;
    }
    Out.push_back(E);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Chrome trace-event JSON (Perfetto)
//===----------------------------------------------------------------------===//

namespace {

std::string eventName(const CompiledProgram *Prog, int32_t Event) {
  if (Prog && Event >= 0 &&
      Event < static_cast<int32_t>(Prog->Events.size()))
    return Prog->Events[Event].Name;
  return "ev" + std::to_string(Event);
}

std::string stateName(const CompiledProgram *Prog, int32_t TypeIndex,
                      int32_t State) {
  if (Prog && TypeIndex >= 0 &&
      TypeIndex < static_cast<int32_t>(Prog->Machines.size()) &&
      State >= 0 &&
      State <
          static_cast<int32_t>(Prog->Machines[TypeIndex].States.size()))
    return Prog->Machines[TypeIndex].States[State].Name;
  return "s" + std::to_string(State);
}

std::string machineTypeName(const CompiledProgram *Prog,
                            int32_t TypeIndex) {
  if (Prog && TypeIndex >= 0 &&
      TypeIndex < static_cast<int32_t>(Prog->Machines.size()))
    return Prog->Machines[TypeIndex].Name;
  return "machine" + std::to_string(TypeIndex);
}

/// Human label for an event's A/B payload, used in Chrome-trace args
/// and MSC annotations.
std::string describeArgs(const TraceEvent &E, const CompiledProgram *Prog) {
  switch (E.Kind) {
  case TraceKind::Send:
    return eventName(Prog, E.A) + " -> #" + std::to_string(E.B);
  case TraceKind::Dequeue:
  case TraceKind::Raise:
    return eventName(Prog, E.A);
  case TraceKind::New:
    return machineTypeName(Prog, E.A);
  case TraceKind::StateEnter:
  case TraceKind::StateExit:
    return stateName(Prog, E.B, E.A);
  case TraceKind::Error:
    return errorKindName(static_cast<ErrorKind>(E.A));
  case TraceKind::FaultInjected: {
    std::string Out = faultKindName(static_cast<FaultKind>(E.A));
    if (E.B >= 0) // Queue faults carry the affected event in B.
      Out += " " + eventName(Prog, E.B);
    return Out;
  }
  case TraceKind::QueueOverflow:
    return eventName(Prog, E.A);
  case TraceKind::Delay:
  case TraceKind::Slice:
  case TraceKind::Halt:
    return "";
  }
  return "";
}

} // namespace

void p::obs::exportChromeTrace(const std::vector<TraceEvent> &Events,
                               std::ostream &Out,
                               const CompiledProgram *Prog) {
  uint64_t Base = Events.empty() ? 0 : Events.front().TimeNs;
  Json Root = Json::object();
  Json Arr = Json::array();
  for (const TraceEvent &E : Events) {
    Json O = Json::object();
    std::string Name = traceKindName(E.Kind);
    std::string Detail = describeArgs(E, Prog);
    if (!Detail.empty())
      Name += " " + Detail;
    O.set("name", Name);
    O.set("ph", "i");
    O.set("s", "t"); // Thread-scoped instant.
    // Microseconds with nanosecond precision, relative to the first
    // event so the timeline starts at zero.
    O.set("ts", static_cast<double>(E.TimeNs - Base) / 1000.0);
    O.set("pid", 1);
    O.set("tid", static_cast<int64_t>(E.Tid));
    Json Args = Json::object();
    Args.set("machine", static_cast<int64_t>(E.Machine));
    Args.set("a", static_cast<int64_t>(E.A));
    Args.set("b", static_cast<int64_t>(E.B));
    O.set("args", std::move(Args));
    Arr.push(std::move(O));
  }
  Root.set("traceEvents", std::move(Arr));
  Root.set("displayTimeUnit", "ns");
  Out << Root.str();
}

//===----------------------------------------------------------------------===//
// Text message-sequence chart
//===----------------------------------------------------------------------===//

namespace {

/// Column id -1 is the external environment ("env": host SMAddEvent).
struct MscLayout {
  std::vector<int32_t> MachineIds; ///< Column order.
  std::map<int32_t, size_t> ColOf;
  size_t Width = 14;

  size_t center(size_t Col) const { return Col * Width + Width / 2; }
};

void put(std::string &Row, size_t Pos, const std::string &Text) {
  if (Row.size() < Pos + Text.size())
    Row.resize(Pos + Text.size(), ' ');
  for (size_t I = 0; I != Text.size(); ++I)
    Row[Pos + I] = Text[I];
}

std::string lifelineRow(const MscLayout &L) {
  std::string Row(L.MachineIds.size() * L.Width, ' ');
  for (size_t C = 0; C != L.MachineIds.size(); ++C)
    Row[L.center(C)] = '|';
  return Row;
}

} // namespace

std::string p::obs::renderMsc(const std::vector<TraceEvent> &Events,
                              const CompiledProgram *Prog,
                              size_t MaxRows) {
  // Participants: every machine an event mentions, plus "env" when an
  // external send appears. Machine types come from new/state events.
  MscLayout L;
  std::map<int32_t, int32_t> TypeOf;
  bool HasEnv = false;
  auto note = [&](int32_t Id) {
    if (Id < 0) {
      HasEnv = true;
      return;
    }
    if (!L.ColOf.count(Id)) {
      L.ColOf[Id] = 0; // Placeholder; assigned after collection.
      L.MachineIds.push_back(Id);
    }
  };
  for (const TraceEvent &E : Events) {
    note(E.Machine);
    if (E.Kind == TraceKind::Send)
      note(E.B);
    if (E.Kind == TraceKind::New)
      TypeOf[E.Machine] = E.A;
    if (E.Kind == TraceKind::StateEnter || E.Kind == TraceKind::StateExit)
      TypeOf[E.Machine] = E.B;
  }
  std::sort(L.MachineIds.begin(), L.MachineIds.end());
  if (HasEnv)
    L.MachineIds.insert(L.MachineIds.begin(), -1);

  std::vector<std::string> Labels;
  for (int32_t Id : L.MachineIds) {
    std::string Label =
        Id < 0 ? "env"
               : (TypeOf.count(Id) ? machineTypeName(Prog, TypeOf[Id])
                                   : std::string("machine")) +
                     "#" + std::to_string(Id);
    Labels.push_back(Label);
    L.Width = std::max(L.Width, Label.size() + 2);
  }
  for (size_t C = 0; C != L.MachineIds.size(); ++C)
    L.ColOf[L.MachineIds[C]] = C;

  std::string Out;
  // Header: centered labels over the lifelines.
  {
    std::string Row(L.MachineIds.size() * L.Width, ' ');
    for (size_t C = 0; C != Labels.size(); ++C) {
      size_t Pos = L.center(C) >= Labels[C].size() / 2
                       ? L.center(C) - Labels[C].size() / 2
                       : 0;
      put(Row, Pos, Labels[C]);
    }
    Out += Row + "\n";
  }

  size_t Rows = 0, Elided = 0;
  for (const TraceEvent &E : Events) {
    // The MSC shows communication and control structure; scheduling
    // noise (slices, state exits) stays in the JSONL/Chrome views.
    if (E.Kind == TraceKind::Slice || E.Kind == TraceKind::StateExit)
      continue;
    if (Rows >= MaxRows) {
      ++Elided;
      continue;
    }
    std::string Row = lifelineRow(L);
    size_t Col = L.ColOf.count(E.Machine) ? L.ColOf[E.Machine] : 0;
    size_t C = L.center(Col);
    switch (E.Kind) {
    case TraceKind::Send: {
      size_t To = L.ColOf.count(E.B) ? L.ColOf[E.B] : Col;
      std::string Label = eventName(Prog, E.A);
      if (To == Col) {
        put(Row, C + 1, "(self " + Label + ")");
        break;
      }
      size_t Lo = std::min(C, L.center(To));
      size_t Hi = std::max(C, L.center(To));
      for (size_t P = Lo + 1; P < Hi; ++P)
        Row[P] = '-';
      if (To > Col)
        Row[Hi - 1] = '>';
      else
        Row[Lo + 1] = '<';
      size_t Mid = Lo + (Hi - Lo) / 2;
      size_t LPos = Mid >= Label.size() / 2 ? Mid - Label.size() / 2 : Lo + 2;
      put(Row, LPos, Label);
      break;
    }
    case TraceKind::Dequeue:
      put(Row, C + 1, "? " + eventName(Prog, E.A));
      break;
    case TraceKind::Raise:
      put(Row, C + 1, "^ " + eventName(Prog, E.A));
      break;
    case TraceKind::New:
      put(Row, C + 1, "* new " + machineTypeName(Prog, E.A));
      break;
    case TraceKind::StateEnter:
      put(Row, C + 1, "[" + stateName(Prog, E.B, E.A) + "]");
      break;
    case TraceKind::Delay:
      put(Row, C + 1, "~ delayed");
      break;
    case TraceKind::Halt:
      Row[C] = 'X';
      break;
    case TraceKind::Error:
      put(Row, C + 1,
          std::string("!! ") + errorKindName(static_cast<ErrorKind>(E.A)));
      break;
    case TraceKind::FaultInjected:
      put(Row, C + 1,
          std::string("%% ") + faultKindName(static_cast<FaultKind>(E.A)) +
              (E.B >= 0 ? " " + eventName(Prog, E.B) : std::string()));
      break;
    case TraceKind::QueueOverflow:
      put(Row, C + 1,
          std::string("%% queue-overflow ") + eventName(Prog, E.A));
      break;
    case TraceKind::Slice:
    case TraceKind::StateExit:
      break;
    }
    // Trim trailing spaces for tidy output.
    while (!Row.empty() && Row.back() == ' ')
      Row.pop_back();
    Out += Row + "\n";
    ++Rows;
  }
  if (Elided)
    Out += "... (" + std::to_string(Elided) + " more events elided)\n";
  return Out;
}

std::string
p::obs::renderScheduleMsc(const CompiledProgram &Prog,
                          const std::vector<SchedDecision> &Schedule,
                          const CheckOptions &Opts) {
  TraceRecorder Recorder;
  Executor Exec(Prog);
  Exec.setTraceSink(&Recorder.openSink());
  replaySchedule(Exec, Schedule, Opts);
  return renderMsc(Recorder.snapshot(), &Prog);
}
