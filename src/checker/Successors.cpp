//===- checker/Successors.cpp ---------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Successors.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace p;

int p::compareDecision(const SchedDecision &A, const SchedDecision &B) {
  // Siblings share their node, so a Delay's machine and a Choose's or
  // ForeignFault's machine agree, and false orders before true.
  const auto Key = [](const SchedDecision &D) {
    return std::tuple(D.K, D.Machine, D.Aux, D.Choice);
  };
  return Key(A) < Key(B) ? -1 : Key(B) < Key(A) ? 1 : 0;
}

int p::compareSchedule(const std::vector<SchedDecision> &A,
                       const std::vector<SchedDecision> &B) {
  size_t N = std::min(A.size(), B.size());
  for (size_t I = 0; I != N; ++I)
    if (int C = compareDecision(A[I], B[I]))
      return C;
  return A.size() < B.size() ? -1 : A.size() > B.size() ? 1 : 0;
}

bool p::normalize(const Executor &Exec, const Config &Cfg, SchedStack &S) {
  while (!S.empty() && !Exec.isEnabled(Cfg, S.top()))
    S.pop();
  // Every enabled machine is in S (see Successors.h).
  assert(!S.empty() ||
         lastEnabled(Exec, Cfg, static_cast<int32_t>(Cfg.Machines.size())) <
             0);
  return !S.empty();
}
