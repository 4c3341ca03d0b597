//===- obs/Profile.cpp --------------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"

#include "obs/Metrics.h"
#include "pir/Program.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace p;
using namespace p::obs;

void ProfileHistogram::init(std::vector<double> UpperBounds) {
  Bounds = std::move(UpperBounds);
  Counts.assign(Bounds.size() + 1, 0);
  N = 0;
  Sum = 0;
}

void ProfileHistogram::observe(double X) {
  size_t I = 0;
  while (I != Bounds.size() && X > Bounds[I])
    ++I;
  Counts[I] += 1;
  N += 1;
  Sum += X;
}

void ProfileHistogram::merge(const ProfileHistogram &O) {
  if (Counts.empty()) {
    *this = O;
    return;
  }
  assert(Counts.size() == O.Counts.size() && "merging mismatched bounds");
  for (size_t I = 0; I != Counts.size() && I != O.Counts.size(); ++I)
    Counts[I] += O.Counts[I];
  N += O.N;
  Sum += O.Sum;
}

double ProfileHistogram::quantile(double Q) const {
  if (N == 0 || Counts.empty())
    return 0;
  Q = std::min(std::max(Q, 0.0), 1.0);
  const double Rank = Q * static_cast<double>(N);
  uint64_t Cum = 0;
  for (size_t I = 0; I != Counts.size(); ++I) {
    const uint64_t Prev = Cum;
    Cum += Counts[I];
    if (static_cast<double>(Cum) < Rank)
      continue;
    // The +Inf bucket has no upper edge: clamp to the last finite bound.
    if (I >= Bounds.size())
      return Bounds.empty() ? 0 : Bounds.back();
    const double Lo = I == 0 ? 0 : Bounds[I - 1];
    const double Hi = Bounds[I];
    if (Counts[I] == 0)
      return Hi;
    const double Frac =
        (Rank - static_cast<double>(Prev)) / static_cast<double>(Counts[I]);
    return Lo + (Hi - Lo) * std::min(std::max(Frac, 0.0), 1.0);
  }
  return Bounds.empty() ? 0 : Bounds.back();
}

Json ProfileHistogram::toJson() const {
  Json J = Json::object();
  J.set("count", N);
  J.set("sum", Sum);
  J.set("p50", quantile(0.5));
  J.set("p99", quantile(0.99));
  Json B = Json::array();
  for (double Bound : Bounds)
    B.push(Bound);
  Json C = Json::array();
  for (uint64_t Count : Counts)
    C.push(Count);
  J.set("bounds", std::move(B));
  J.set("counts", std::move(C));
  return J;
}

void SearchProfile::init(size_t NumTypes) {
  Enabled = true;
  Machines.assign(NumTypes + 1, MachineProfile{});
  Depth.init(exponentialBounds(1, 2, 16));
  DelaysUsed.init(exponentialBounds(1, 2, 8));
  FaultsUsed.init(exponentialBounds(1, 2, 8));
  SliceSeconds.init(exponentialBounds(1e-7, 4, 12));
  Transitions.clear();
  for (uint64_t &K : FaultKinds)
    K = 0;
}

void SearchProfile::merge(const SearchProfile &O) {
  for (size_t I = 0; I != Machines.size() && I != O.Machines.size(); ++I) {
    Machines[I].Nodes += O.Machines[I].Nodes;
    Machines[I].States += O.Machines[I].States;
    Machines[I].Slices += O.Machines[I].Slices;
    Machines[I].SlicesInterpreted += O.Machines[I].SlicesInterpreted;
    Machines[I].SliceNs += O.Machines[I].SliceNs;
    Machines[I].SymmetryCollapsed += O.Machines[I].SymmetryCollapsed;
  }
  Depth.merge(O.Depth);
  DelaysUsed.merge(O.DelaysUsed);
  FaultsUsed.merge(O.FaultsUsed);
  SliceSeconds.merge(O.SliceSeconds);
  for (const auto &[K, V] : O.Transitions)
    Transitions[K] += V;
  for (size_t I = 0; I != 4; ++I)
    FaultKinds[I] += O.FaultKinds[I];
  MemoEntries += O.MemoEntries;
  MemoBytes += O.MemoBytes;
  ChoiceProbes += O.ChoiceProbes;
  ChoiceDecided += O.ChoiceDecided;
  ChoiceUnwindowed += O.ChoiceUnwindowed;
}

uint64_t SearchProfile::attributedNodes() const {
  uint64_t T = 0;
  for (size_t I = 0; I + 1 < Machines.size(); ++I)
    T += Machines[I].Nodes;
  return T;
}

uint64_t SearchProfile::totalNodes() const {
  uint64_t T = 0;
  for (const MachineProfile &M : Machines)
    T += M.Nodes;
  return T;
}

/// The display name of attribution row \p I: a machine type's name, or
/// "(root)" for the trailing unattributed row.
static std::string rowName(const CompiledProgram &Prog, size_t I,
                           size_t Rows) {
  if (I + 1 == Rows)
    return "(root)";
  if (I < Prog.Machines.size())
    return Prog.Machines[I].Name;
  return "type" + std::to_string(I);
}

Json SearchProfile::toJson(const CompiledProgram &Prog,
                           size_t MaxTransitions) const {
  Json J = Json::object();
  J.set("enabled", Enabled);
  if (!Enabled)
    return J;
  J.set("nodes_attributed", attributedNodes());
  J.set("nodes_total", totalNodes());

  Json Rows = Json::array();
  for (size_t I = 0; I != Machines.size(); ++I) {
    const MachineProfile &M = Machines[I];
    // The root row is all zeros except its single node; skip fully-empty
    // rows of machine types the program never ran.
    if (M.Nodes == 0 && M.States == 0 && M.Slices == 0 &&
        M.SymmetryCollapsed == 0)
      continue;
    Json R = Json::object();
    R.set("machine", rowName(Prog, I, Machines.size()));
    R.set("nodes", M.Nodes);
    R.set("states", M.States);
    R.set("slices", M.Slices);
    R.set("slices_interpreted", M.SlicesInterpreted);
    R.set("slice_seconds", static_cast<double>(M.SliceNs) * 1e-9);
    R.set("symmetry_collapsed", M.SymmetryCollapsed);
    Rows.push(std::move(R));
  }
  J.set("machines", std::move(Rows));

  J.set("depth", Depth.toJson());
  J.set("delays_used", DelaysUsed.toJson());
  if (FaultsUsed.N > 0)
    J.set("faults_used", FaultsUsed.toJson());
  J.set("slice_seconds", SliceSeconds.toJson());

  // Hottest dispatches first; the key tiebreak keeps the order stable
  // across runs with equal counts.
  std::vector<std::pair<std::tuple<int32_t, int32_t, int32_t>, uint64_t>>
      Hot(Transitions.begin(), Transitions.end());
  std::sort(Hot.begin(), Hot.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first;
  });
  if (Hot.size() > MaxTransitions)
    Hot.resize(MaxTransitions);
  Json T = Json::array();
  for (const auto &[K, Count] : Hot) {
    const auto [Type, State, Event] = K;
    Json R = Json::object();
    R.set("machine", Type >= 0 &&
                             Type < static_cast<int32_t>(Prog.Machines.size())
                         ? Prog.Machines[Type].Name
                         : std::to_string(Type));
    const bool KnownState =
        Type >= 0 && Type < static_cast<int32_t>(Prog.Machines.size()) &&
        State >= 0 &&
        State < static_cast<int32_t>(Prog.Machines[Type].States.size());
    R.set("state", KnownState ? Prog.Machines[Type].States[State].Name
                              : std::to_string(State));
    R.set("event", Event >= 0 &&
                           Event < static_cast<int32_t>(Prog.Events.size())
                       ? Prog.Events[Event].Name
                       : std::to_string(Event));
    R.set("count", Count);
    T.push(std::move(R));
  }
  J.set("hot_transitions", std::move(T));

  Json F = Json::object();
  F.set("drop", FaultKinds[0]);
  F.set("duplicate", FaultKinds[1]);
  F.set("crash", FaultKinds[2]);
  F.set("foreign", FaultKinds[3]);
  J.set("fault_kinds", std::move(F));
  J.set("memo_entries", MemoEntries);
  J.set("memo_bytes", MemoBytes);
  Json C = Json::object();
  C.set("probed", ChoiceProbes);
  C.set("decided", ChoiceDecided);
  C.set("unwindowed", ChoiceUnwindowed);
  J.set("choice_points", std::move(C));
  Json V = Json::object();
  V.set("used", VisitedSlotsUsed);
  V.set("slots", VisitedSlots);
  J.set("visited_slots", std::move(V));
  return J;
}

std::string SearchProfile::str(const CompiledProgram &Prog) const {
  if (!Enabled)
    return "profile: off\n";
  std::string Out;
  char Buf[256];
  const uint64_t Total = std::max<uint64_t>(totalNodes(), 1);
  std::snprintf(Buf, sizeof(Buf),
                "  %-18s %12s %6s %12s %10s %10s %10s %10s\n", "machine",
                "nodes", "%", "states", "slices", "interp", "slice_ms",
                "collapsed");
  Out += Buf;
  for (size_t I = 0; I != Machines.size(); ++I) {
    const MachineProfile &M = Machines[I];
    if (M.Nodes == 0 && M.States == 0 && M.Slices == 0 &&
        M.SymmetryCollapsed == 0)
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "  %-18s %12llu %5.1f%% %12llu %10llu %10llu %10.1f "
                  "%10llu\n",
                  rowName(Prog, I, Machines.size()).c_str(),
                  static_cast<unsigned long long>(M.Nodes),
                  100.0 * static_cast<double>(M.Nodes) /
                      static_cast<double>(Total),
                  static_cast<unsigned long long>(M.States),
                  static_cast<unsigned long long>(M.Slices),
                  static_cast<unsigned long long>(M.SlicesInterpreted),
                  static_cast<double>(M.SliceNs) * 1e-6,
                  static_cast<unsigned long long>(M.SymmetryCollapsed));
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "  depth p50=%.0f p99=%.0f; delays p50=%.0f; slice p99=%.2gs\n",
                Depth.quantile(0.5), Depth.quantile(0.99),
                DelaysUsed.quantile(0.5), SliceSeconds.quantile(0.99));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  slice memo: %llu entries holding %.1f KiB of snapshots\n",
                static_cast<unsigned long long>(MemoEntries),
                static_cast<double>(MemoBytes) / 1024.0);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  choice points: %llu probed for %llu branches; %llu true "
                "branches decided by the ledger, %llu admitted without a "
                "window\n",
                static_cast<unsigned long long>(ChoiceProbes),
                static_cast<unsigned long long>(2 * ChoiceProbes),
                static_cast<unsigned long long>(ChoiceDecided),
                static_cast<unsigned long long>(ChoiceUnwindowed));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  visited: %llu of %llu slots (load %.3f)\n",
                static_cast<unsigned long long>(VisitedSlotsUsed),
                static_cast<unsigned long long>(VisitedSlots),
                VisitedSlots ? static_cast<double>(VisitedSlotsUsed) /
                                   static_cast<double>(VisitedSlots)
                             : 0.0);
  Out += Buf;
  return Out;
}
