//===- checker/Checker.cpp ---------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"

#include "checker/ParallelSearch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace p;

CheckResult p::check(const CompiledProgram &Prog, const CheckOptions &Opts,
                     Executor *Exec) {
  return runParallelSearch(Prog, Opts, Exec);
}

const char *p::visitedModeName(VisitedMode M) {
  switch (M) {
  case VisitedMode::Exact:
    return "exact";
  case VisitedMode::Fingerprint:
    return "fingerprint";
  case VisitedMode::Compact:
    return "compact";
  }
  return "?";
}

bool p::parseVisitedMode(const char *Name, VisitedMode &Out) {
  for (VisitedMode M :
       {VisitedMode::Exact, VisitedMode::Fingerprint, VisitedMode::Compact})
    if (!std::strcmp(Name, visitedModeName(M))) {
      Out = M;
      return true;
    }
  return false;
}

uint64_t p::packDecision(const SchedDecision &D) {
  auto Field = [](int32_t V) {
    const uint64_t F = static_cast<uint64_t>(static_cast<int64_t>(V) + 1);
    if (F >> 30) {
      // Never truncate: a wrong id would replay a different schedule.
      std::fprintf(stderr, "decision id %d does not fit the trace log\n", V);
      std::abort();
    }
    return F;
  };
  return static_cast<uint64_t>(D.K) | uint64_t(D.Choice) << 3 |
         Field(D.Machine) << 4 | Field(D.Aux) << 34;
}

SchedDecision p::unpackDecision(uint64_t Word) {
  SchedDecision D;
  D.K = static_cast<SchedDecision::Kind>(Word & 7);
  D.Choice = (Word >> 3) & 1;
  D.Machine = static_cast<int32_t>((Word >> 4) & 0x3fffffff) - 1;
  D.Aux = static_cast<int32_t>(Word >> 34) - 1;
  return D;
}

void CoverageReport::merge(const CoverageReport &From) {
  if (Machines.size() < From.Machines.size())
    Machines.resize(From.Machines.size());
  for (size_t M = 0; M != From.Machines.size(); ++M) {
    const MachineCoverage &F = From.Machines[M];
    Machines[M].StatesVisited.insert(F.StatesVisited.begin(),
                                     F.StatesVisited.end());
    Machines[M].TransitionsFired.insert(F.TransitionsFired.begin(),
                                        F.TransitionsFired.end());
  }
}

std::string CoverageReport::str(const CompiledProgram &Prog) const {
  std::string Out;
  for (size_t I = 0; I != Machines.size() && I != Prog.Machines.size();
       ++I) {
    const MachineInfo &Info = Prog.Machines[I];
    const MachineCoverage &Cov = Machines[I];
    if (Cov.StatesVisited.empty())
      continue; // Never instantiated (e.g. erased ghost machines).
    Out += Info.Name + ": states " +
           std::to_string(Cov.StatesVisited.size()) + "/" +
           std::to_string(Info.States.size()) + ", transitions " +
           std::to_string(Cov.TransitionsFired.size()) + "/" +
           std::to_string(Info.countTransitions()) + "\n";
    // Name anything never reached; that is what a tester acts on.
    for (size_t S = 0; S != Info.States.size(); ++S)
      if (!Cov.StatesVisited.count(static_cast<int32_t>(S)))
        Out += "  unreached state: " + Info.States[S].Name + "\n";
  }
  return Out;
}
