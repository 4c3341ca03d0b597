//===- checker/Checker.cpp ---------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"

#include "checker/ParallelSearch.h"

#include <cerrno>
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

bool p::parseVisitedFlag(int Argc, char **Argv, int &I, VisitedMode &Mode,
                         uint64_t &CapBytes) {
  const char *Flag = Argv[I];
  const bool IsMode = !std::strcmp(Flag, "--visited-mode");
  if (!IsMode && std::strcmp(Flag, "--visited-cap"))
    return false;
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "%s needs a value\n", Flag);
    std::exit(2);
  }
  const char *Value = Argv[++I];
  bool Ok;
  if (IsMode) {
    Ok = parseVisitedMode(Value, Mode);
  } else {
    // strtoull alone accepts "64M" as 64 and "-1" as 2^64-1: demand a
    // plain decimal byte count that fits.
    char *End = nullptr;
    errno = 0;
    CapBytes = std::strtoull(Value, &End, 10);
    Ok = *Value >= '0' && *Value <= '9' && *End == '\0' && errno != ERANGE;
  }
  if (!Ok) {
    std::fprintf(stderr, "%s wants %s, got '%s'\n", Flag,
                 IsMode ? "exact|fingerprint|compact" : "a decimal byte count",
                 Value);
    std::exit(2);
  }
  return true;
}

bool p::parseReductionFlag(int Argc, char **Argv, int &I, Reduction &Out) {
  if (std::strcmp(Argv[I], "--reduction"))
    return false;
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "--reduction needs a value (%s)\n", ReductionChoices);
    std::exit(2);
  }
  const char *Value = Argv[++I];
  for (Reduction R : {Reduction::Off, Reduction::Symmetry})
    if (!std::strcmp(Value, reductionName(R))) {
      Out = R;
      return true;
    }
  std::fprintf(stderr, "--reduction wants %s, got '%s'\n", ReductionChoices,
               Value);
  std::exit(2);
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
